"""Fail when key benchmark metrics regress versus a committed baseline.

Usage::

    python benchmarks/check_perf_regression.py \
        --baseline baseline.json --current benchmarks/results/BENCH_kernel.json \
        --keys zero_delay_events_per_sec transport_msgs_per_sec \
        --tolerance 0.20

The baseline is typically the committed ``BENCH_kernel.json`` (extracted
in CI via ``git show``); the current file is the one the bench job just
wrote.  All compared keys are higher-is-better rates: the check fails when
``current < (1 - tolerance) * baseline``.  Keys missing from the baseline
are skipped (first run after a metric is introduced); keys missing from
the current run fail.

``--floor key=value`` adds an *absolute* minimum on top of the relative
gate: unlike the baseline comparison, it cannot drift downward when a
regressed baseline is (re-)committed.  Used to pin hard-won improvements
-- e.g. ``--floor spawn_join_per_sec=90000`` keeps the slim spawn/join
win from ever silently eroding back to the pre-slim-join ~68k/s level.

``--ratio NUM/DEN=MAX`` gates a *lower-is-better* relationship between
two metrics of the same current run (no baseline involved): the check
fails when ``current[NUM] > MAX * current[DEN]``.  Used for scaling
laws -- e.g. ``--ratio
bigtopo5000_wall_per_device/bigtopo1000_wall_per_device=1.3`` keeps the
sharded 5000-device run's per-device wall cost within 1.3x the
1000-device figure (near-linear scale-out).
"""

import argparse
import json
import sys


def load_metrics(path):
    with open(path) as handle:
        payload = json.load(handle)
    return payload.get("metrics", payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed benchmark JSON (the reference)")
    parser.add_argument("--current", required=True,
                        help="freshly generated benchmark JSON")
    parser.add_argument("--keys", nargs="+", required=True,
                        help="higher-is-better metric keys to compare")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--floor", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="absolute minimum for a metric, independent of "
                             "the baseline (repeatable)")
    parser.add_argument("--ratio", action="append", default=[],
                        metavar="NUM/DEN=MAX",
                        help="lower-is-better ceiling on current[NUM] / "
                             "current[DEN], independent of the baseline "
                             "(repeatable)")
    args = parser.parse_args(argv)

    floors = {}
    for item in args.floor:
        key, _, raw = item.partition("=")
        if not key or not raw:
            parser.error("--floor expects KEY=VALUE, got %r" % item)
        try:
            floors[key] = float(raw)
        except ValueError:
            parser.error("--floor value for %s is not a number: %r"
                         % (key, raw))

    ratios = []
    for item in args.ratio:
        keys, _, raw = item.partition("=")
        numerator, slash, denominator = keys.partition("/")
        if not numerator or not slash or not denominator or not raw:
            parser.error("--ratio expects NUM/DEN=MAX, got %r" % item)
        try:
            ratios.append((numerator, denominator, float(raw)))
        except ValueError:
            parser.error("--ratio ceiling for %s is not a number: %r"
                         % (keys, raw))

    baseline = load_metrics(args.baseline)
    current = load_metrics(args.current)
    failures = []
    for key in args.keys:
        reference = baseline.get(key)
        if reference is None:
            print("perf-check: %s not in baseline, skipping" % key)
            continue
        value = current.get(key)
        if value is None:
            failures.append("%s missing from current results" % key)
            continue
        floor = (1.0 - args.tolerance) * reference
        verdict = "OK" if value >= floor else "REGRESSED"
        print("perf-check: %s  baseline=%.0f  current=%.0f  floor=%.0f  %s"
              % (key, reference, value, floor, verdict))
        if value < floor:
            failures.append(
                "%s regressed: %.0f < %.0f (baseline %.0f, tolerance %d%%)"
                % (key, value, floor, reference, args.tolerance * 100)
            )
    for key, minimum in sorted(floors.items()):
        value = current.get(key)
        if value is None:
            failures.append("%s missing from current results (floor %.0f)"
                            % (key, minimum))
            continue
        verdict = "OK" if value >= minimum else "BELOW FLOOR"
        print("perf-check: %s  absolute-floor=%.0f  current=%.0f  %s"
              % (key, minimum, value, verdict))
        if value < minimum:
            failures.append("%s below absolute floor: %.0f < %.0f"
                            % (key, value, minimum))
    for numerator, denominator, maximum in ratios:
        label = "%s/%s" % (numerator, denominator)
        top = current.get(numerator)
        bottom = current.get(denominator)
        if top is None or bottom is None:
            missing = [key for key, value
                       in ((numerator, top), (denominator, bottom))
                       if value is None]
            failures.append("%s missing from current results (ratio gate "
                            "%s<=%.3g)" % (", ".join(missing), label, maximum))
            continue
        if bottom <= 0:
            failures.append("%s denominator is %.3g, cannot gate ratio %s"
                            % (denominator, bottom, label))
            continue
        ratio = top / bottom
        verdict = "OK" if ratio <= maximum else "ABOVE CEILING"
        print("perf-check: %s  ratio=%.3f  ceiling=%.3f  "
              "(num=%.4g den=%.4g)  %s"
              % (label, ratio, maximum, top, bottom, verdict))
        if ratio > maximum:
            failures.append(
                "%s ratio above ceiling: %.3f > %.3f (scaling is no longer "
                "near-linear)" % (label, ratio, maximum)
            )
    if failures:
        for failure in failures:
            print("perf-check: FAIL - %s" % failure, file=sys.stderr)
        return 1
    print("perf-check: all compared metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
