"""End-to-end pipeline benchmark: collect -> classify/store -> analyze -> report.

Run every workload (7 timed rounds each, interleaved, plus one traced
round for the per-layer ledger)::

    python benchmarks/e2e/run.py --seed 42 --out results.json

Run one workload the way ``BENCHMARK.json`` does::

    python benchmarks/e2e/run.py --rounds 2 --workload bulk_analysis \\
        --seed 1 --seconds 30 --trace 0

Scale one workload's devices and requests together (1/3, 2/3 and all)
and fit the exponent of wall time against records::

    python benchmarks/e2e/run.py --sweep bulk_analysis

Every round runs in a fresh single-threaded worker process
(``worker.py``), one process at a time; the first round is discarded.
Host-time metrics are medians over the timed rounds, taken with tracing
off, in the calibrated seconds ``worker.py`` describes.  Simulated
metrics and counters must repeat exactly in every round,
traced round included.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (requested and
unreported records over the timed rounds) and ``metrics``.  With
``--workload`` it holds the metrics ``BENCHMARK.json`` lists for
``--trace``; otherwise every metric of every workload.  A failed output
check exits with status 1.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit("run.py: no repro package under %s; run from a full checkout"
             % SRC)
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (needs src/ on the path)

#: Set-up samples taken per round; 7 rounds give the >= 15 builds the
#: set-up median rests on.
BUILDS_PER_ROUND = 3
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "records_per_s": "records/s",
    "sim_s_per_wall_s": "sim-s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "records_unreported_frac": "frac",
    "makespan_sim_s": "sim-s",
    "report_lag_p50_sim_s": "sim-s",
    "report_lag_p90_sim_s": "sim-s",
    "due_to_report_p50_sim_s": "sim-s",
    "due_to_report_p90_sim_s": "sim-s",
    "run_ref_s": "s",
    "run_wall_s": "s",
    "setup_wall_s": "s",
}


def per_layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("share", "ratio", "overhead")):
        return "frac"
    if name.endswith("facts_per_run"):
        return "facts"
    return "count"


def run_worker(name, seed, scale, traced, builds):
    command = [sys.executable, os.path.join(HERE, "worker.py"), name,
               str(seed), repr(scale), "1" if traced else "0", str(builds)]
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if completed.returncode != 0:
        raise RuntimeError("worker %s failed:\n%s" % (
            " ".join(command[2:]), completed.stderr))
    return json.loads(completed.stdout.splitlines()[-1])


def summary(values):
    """Median and quartiles (``statistics.quantiles``, n=4) of samples."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": len(values),
            "q1": q1, "q3": q3}


def measure(cells, seed, rounds, seconds, trace):
    """Run every cell ``rounds`` times (and for ``seconds``), interleaved.

    ``cells`` maps a label to ``(workload, scale)``.  After ``rounds``
    timed rounds, another is added only while one more round, plus the
    traced round when ``trace`` is set, still fits in ``seconds`` counted
    from the start.  Returns label -> list of timed round results, plus
    label -> traced round result.
    """
    timed = {label: [] for label in cells}
    started = time.monotonic()
    index = 0
    while True:
        begun = time.monotonic()
        for label, (name, scale) in cells.items():
            result = run_worker(name, seed, scale, False, BUILDS_PER_ROUND)
            if index:  # the first round is discarded
                timed[label].append(result)
        index += 1
        now = time.monotonic()
        needed = (now - begun) * (2 if trace else 1)
        if index > rounds and now + needed - started > seconds:
            break
    traced = {}
    if trace:
        for label, (name, scale) in cells.items():
            traced[label] = run_worker(name, seed, scale, True, 1)
    return timed, traced


def aggregate(name, timed, traced):
    """Metrics, checks and record counts of one cell."""
    checks = []
    for result in timed + ([traced] if traced else []):
        checks.extend(result["checks"])
        for key in ("simulated", "counters"):
            if result[key] != timed[0][key]:
                checks.append("%s differ between rounds of %s"
                              % (key, name))
    first = timed[0]
    end_to_end = {
        "records_per_s": summary(
            r["records_reported"] / r["run_ref_s"] for r in timed),
        "sim_s_per_wall_s": summary(r["sim_s"] / r["run_ref_s"]
                                    for r in timed),
        "setup_s": summary(s for r in timed for s in r["setup_ref_s"]),
        "peak_rss_mb": summary(r["peak_rss_mb"] for r in timed),
        "run_ref_s": summary(r["run_ref_s"] for r in timed),
        "run_wall_s": summary(r["run_wall_s"] for r in timed),
        "setup_wall_s": summary(s for r in timed for s in r["setup_s"]),
    }
    for metric, value in first["simulated"].items():
        end_to_end[metric] = summary([value])
        end_to_end[metric]["exact"] = True
    for metric, unit in END_TO_END.items():
        end_to_end[metric]["unit"] = unit
    cell = {
        "end_to_end": end_to_end,
        "counters": first["counters"],
        "checks": checks,
        "attempted": sum(r["records_requested"] for r in timed),
        "failed": sum(r["records_unreported"] for r in timed),
    }
    if traced:
        layer = dict(traced["ledger"])
        layer.update(traced["counters"])
        layer["bench.trace_overhead"] = (
            traced["run_ref_s"] / end_to_end["run_ref_s"]["value"] - 1.0)
        cell["per_layer"] = {
            metric: {"value": value, "unit": per_layer_unit(metric)}
            for metric, value in sorted(layer.items())}
        cell["entry_calls"] = traced["entry_calls"]
    return cell


def print_cell(label, cell):
    print("== %s" % label)
    for metric, entry in cell["end_to_end"].items():
        print("  %-26s %14.6g %-10s n=%-3d q1=%.6g q3=%.6g" % (
            metric, entry["value"], entry["unit"], entry["n"], entry["q1"],
            entry["q3"]))
    ledger = cell.get("per_layer")
    if ledger:
        print("  layer                    self_s      share      calls")
        for layer in sorted(
                {m.rsplit(".", 1)[0] for m in ledger if m.endswith(".share")
                 and not m.startswith("bench.")},
                key=lambda layer: -ledger[layer + ".self_s"]["value"]):
            print("  %-22s %8.3f %9.1f%% %10d" % (
                layer, ledger[layer + ".self_s"]["value"],
                100 * ledger[layer + ".share"]["value"],
                ledger[layer + ".calls"]["value"]))
        for metric in ("bench.attributed_share", "bench.trace_overhead"):
            print("  %-22s %8.3f" % (metric, ledger[metric]["value"]))
    for check in cell["checks"]:
        print("  CHECK FAILED: %s" % check)


def contract_metrics(cell, trace):
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    listed = contract["per_layer"] if trace else contract["end_to_end"]
    measured = cell["per_layer"] if trace else cell["end_to_end"]
    metrics = {}
    for entry in listed:
        value = measured[entry["name"]]
        if value["unit"] != entry["unit"]:
            raise ValueError("unit of %s: measured %r, BENCHMARK.json %r"
                             % (entry["name"], value["unit"], entry["unit"]))
        metrics[entry["name"]] = {"value": value["value"],
                                  "unit": value["unit"]}
    return metrics


def fit_exponent(records, walls):
    """Least-squares slope of log(wall) against log(records)."""
    xs = [math.log(r) for r in records]
    ys = [math.log(w) for w in walls]
    mean_x, mean_y = statistics.mean(xs), statistics.mean(ys)
    return (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
            / sum((x - mean_x) ** 2 for x in xs))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=7,
                        help="minimum timed rounds per workload")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="after --rounds, add rounds while the run "
                             "still fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: add a traced round and report the "
                             "per-layer ledger (default 1 for all "
                             "workloads; with --workload, 0)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply devices and requests")
    parser.add_argument("--sweep", choices=sorted(workloads.WORKLOADS),
                        help="run one workload at 1/3, 2/3 and 3/3 scale")
    parser.add_argument("--out", help="write every result to this file")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    single = args.workload is not None
    trace = bool(args.trace if args.trace is not None else not single)
    if args.sweep:
        trace = True
        cells = {
            "%s@%d" % (args.sweep, workloads.scaled(
                workloads.WORKLOADS[args.sweep][0], args.scale * part / 3)):
            (args.sweep, args.scale * part / 3)
            for part in (1, 2, 3)}
    else:
        names = [args.workload] if single else list(workloads.WORKLOADS)
        cells = {name: (name, args.scale) for name in names}
    timed, traced = measure(cells, args.seed, args.rounds, args.seconds,
                            trace)
    results = {}
    for label, (name, _) in cells.items():
        results[label] = aggregate(name, timed[label], traced.get(label))
        results[label]["why"] = workloads.WORKLOADS[name][4]
        print_cell(label, results[label])
    correct = not any(cell["checks"] for cell in results.values())
    output = {
        "correct": correct,
        "attempted": sum(cell["attempted"] for cell in results.values()),
        "failed": sum(cell["failed"] for cell in results.values()),
    }
    if args.sweep:
        records = [workloads.requested_records(name, scale)
                   for name, scale in cells.values()]
        walls = [results[label]["end_to_end"]["run_ref_s"]["value"]
                 for label in cells]
        exponent = fit_exponent(records, walls)
        print("%-24s %9s %14s %14s" % ("cell", "records", "records/s",
                                       "rules.self_s"))
        for label, count in zip(cells, records):
            print("%-24s %9d %14.1f %14.3f" % (
                label, count,
                results[label]["end_to_end"]["records_per_s"]["value"],
                results[label]["per_layer"]["rules.self_s"]["value"]))
        print("wall time ~ records^%.3f" % exponent)
        output["metrics"] = {"wall_exponent": {"value": exponent,
                                               "unit": "1"}}
        for label in cells:
            for metric, part in (("records_per_s", "end_to_end"),
                                 ("rules.self_s", "per_layer")):
                entry = results[label][part][metric]
                output["metrics"]["%s.%s" % (label, metric)] = {
                    "value": entry["value"], "unit": entry["unit"]}
    elif single:
        output["metrics"] = contract_metrics(results[args.workload], trace)
    else:
        output["metrics"] = {
            "%s/%s" % (label, metric): {"value": entry["value"],
                                        "unit": entry["unit"]}
            for label, cell in results.items()
            for part in ("end_to_end", "per_layer")
            for metric, entry in cell.get(part, {}).items()}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "scale": args.scale,
                       "rounds": args.rounds, "seconds": args.seconds,
                       "workloads": results, **output}, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
    print(json.dumps(output, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
