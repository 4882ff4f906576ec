"""Compare benchmark results of a parent commit and a change.

Each input file is the ``--out`` of one ``run.py`` invocation.  Run the
two commits alternately, parent first in one pair and the change first in
the next, at least ten pairs with identical settings::

    python benchmarks/e2e/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ...

For every workload it prints one row with a verdict per end-to-end metric
of ``BENCHMARK.json``, then each side's median and quartiles, then the
per-layer self-time deltas of the traced rounds, so that a claimed saving
can be located.  A metric is

* **improved** when there are >= 10 pairs, the change wins >= 9/10 of
  them (ties count for neither side) and the medians differ by more than
  the parent's interquartile range;
* **unresolved** when the parent's interquartile range exceeds the
  metric's bound, unless every change run beats every parent run;
* **regressed** when the change's median is worse than the parent's by
  more than the bound;
* **unchanged** otherwise.

Simulated metrics repeat exactly under one seed, so when both sides ran
the same seeds they are held to a bound of zero: a pure speed-up leaves
them unchanged.  ``records_unreported_frac`` (the failed operations) is
compared the same way, so a gain does not hide lost records.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), os.pardir, os.pardir))
MIN_PAIRS = 10
WIN_RATE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def classify(parent, change, better, bound):
    """Verdict for one metric; ``parent``/``change`` hold one value per run."""
    sign = 1.0 if better == "higher" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (change_median - parent_median)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_RATE * len(pairs)
            and gain > 0 and abs(change_median - parent_median) > q3 - q1):
        return "improved"
    scale = abs(parent_median) or 1.0
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if (q3 - q1) / scale > bound and not all_better:
        return "unresolved"
    if -gain / scale > bound:
        return "regressed"
    return "unchanged"


def load(paths):
    runs = []
    for path in paths:
        with open(path) as handle:
            runs.append(json.load(handle))
    return runs


def values(runs, workload, part, metric):
    return [run[workload][part][metric]["value"] for run in runs
            if workload in run and metric in run[workload].get(part, {})]


def compare(parent_docs, change_docs, contract, out=sys.stdout):
    """Print the comparison; returns True when nothing regressed."""
    same_seeds = ([doc["seed"] for doc in parent_docs]
                  == [doc["seed"] for doc in change_docs])
    metrics = [(entry["name"], entry["unit"], entry["better"], entry["bound"])
               for entry in contract["end_to_end"]]
    metrics.append(("records_unreported_frac", "frac", "lower", 0.0))
    parent_runs = [doc["workloads"] for doc in parent_docs]
    change_runs = [doc["workloads"] for doc in change_docs]
    ok = True
    workloads = [name for name in parent_runs[0] if name in change_runs[0]]
    for workload in workloads:
        verdicts = []
        details = []
        for metric, unit, better, bound in metrics:
            parent = values(parent_runs, workload, "end_to_end", metric)
            change = values(change_runs, workload, "end_to_end", metric)
            if not parent or not change:
                continue
            exact = parent_runs[0][workload]["end_to_end"][metric].get("exact")
            if exact and same_seeds:
                bound = 0.0
            verdict = classify(parent, change, better, bound)
            ok = ok and verdict != "regressed"
            parent_median = statistics.median(parent)
            change_median = statistics.median(change)
            delta = ((change_median - parent_median) / parent_median
                     if parent_median else 0.0)
            verdicts.append("%s=%s(%+.1f%%)" % (metric, verdict,
                                                100 * delta))
            details.append("    %-23s parent %.6g [%.6g, %.6g]  change %.6g "
                           "[%.6g, %.6g]  %s, n=%d/%d" % (
                               metric, parent_median, *quartiles(parent),
                               change_median, *quartiles(change),
                               unit, len(parent), len(change)))
        out.write("%-14s %s\n" % (workload, "  ".join(verdicts)))
        for line in details:
            out.write(line + "\n")
        layers = sorted(
            metric[:-len(".self_s")]
            for metric in parent_runs[0][workload].get("per_layer", {})
            if metric.endswith(".self_s"))
        rows = []
        for layer in layers:
            parent = values(parent_runs, workload, "per_layer",
                            layer + ".self_s")
            change = values(change_runs, workload, "per_layer",
                            layer + ".self_s")
            if parent and change:
                rows.append((layer, statistics.median(parent),
                             statistics.median(change)))
        if rows:
            out.write("    %-23s %10s %10s %10s\n" % (
                "layer self_s", "parent", "change", "delta"))
            for layer, parent, change in sorted(
                    rows, key=lambda row: row[2] - row[1]):
                out.write("    %-23s %10.3f %10.3f %+10.3f\n" % (
                    layer, parent, change, change - parent))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--contract",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.contract) as handle:
        contract = json.load(handle)
    if len(args.parent) != len(args.change):
        parser.error("give as many parent runs as change runs (pairs)")
    ok = compare(load(args.parent), load(args.change), contract)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
