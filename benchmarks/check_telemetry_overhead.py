"""Fail when the telemetry flight recorder costs more than it should.

Usage::

    python benchmarks/check_telemetry_overhead.py \
        --results benchmarks/results/BENCH_kernel.json --tolerance 0.10

Telemetry is designed to be pay-for-what-you-trace: attaching the session
recorder must leave the kernel hot loop and the end-to-end Figure-6c run
within ``tolerance`` of the telemetry-free measurements from the same
bench run.  Two comparisons, both from one ``BENCH_kernel.json``
so machine speed cancels out:

* ``zero_delay_telemetry_events_per_sec`` vs ``zero_delay_events_per_sec``
  (higher-is-better rate: the with-telemetry rate must stay above
  ``(1 - tolerance) * without``);
* ``figure6c_telemetry_wall_seconds`` vs ``figure6c_wall_seconds``
  (lower-is-better time: the with-telemetry time must stay below
  ``(1 + tolerance) * without``).
"""

import argparse
import json
import sys

#: (with-telemetry key, baseline key, True when higher is better)
COMPARISONS = (
    ("zero_delay_telemetry_events_per_sec",
     "zero_delay_events_per_sec", True),
    ("figure6c_telemetry_wall_seconds",
     "figure6c_wall_seconds", False),
)


def load_metrics(path):
    with open(path) as handle:
        payload = json.load(handle)
    return payload.get("metrics", payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", required=True,
                        help="benchmark JSON holding both measurements")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional overhead (default 0.10)")
    args = parser.parse_args(argv)

    metrics = load_metrics(args.results)
    failures = []
    for telemetry_key, baseline_key, higher_is_better in COMPARISONS:
        telemetry_value = metrics.get(telemetry_key)
        baseline_value = metrics.get(baseline_key)
        if telemetry_value is None or baseline_value is None:
            failures.append("missing %s or %s in %s"
                            % (telemetry_key, baseline_key, args.results))
            continue
        if higher_is_better:
            limit = (1.0 - args.tolerance) * baseline_value
            passed = telemetry_value >= limit
        else:
            limit = (1.0 + args.tolerance) * baseline_value
            passed = telemetry_value <= limit
        print("telemetry-overhead: %s=%.4g vs %s=%.4g  limit=%.4g  %s"
              % (telemetry_key, telemetry_value, baseline_key,
                 baseline_value, limit, "OK" if passed else "TOO SLOW"))
        if not passed:
            failures.append(
                "%s (%.4g) exceeds %d%% overhead vs %s (%.4g)"
                % (telemetry_key, telemetry_value, args.tolerance * 100,
                   baseline_key, baseline_value)
            )
    if failures:
        for failure in failures:
            print("telemetry-overhead: FAIL - %s" % failure, file=sys.stderr)
        return 1
    print("telemetry-overhead: recorder cost within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
