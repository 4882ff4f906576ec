"""One benchmark round in a fresh, single-threaded process.

``run.py`` starts one of these per round; run it by hand to debug one::

    python benchmarks/e2e/worker.py WORKLOAD SEED SCALE TRACED BUILDS

It builds the workload ``BUILDS`` times (the first build is the one that
runs), runs the pipeline until the ledger drains, checks the outputs and
prints one JSON object.  With ``TRACED`` = 1 the round runs under the
per-layer ledger of ``layers.py``.

Host times are calibrated.  The machine's speed can drift by 2x within
minutes when it shares its host (README.md, "Noise"), so a fixed chunk of
pure-Python work runs after every simulated slice and around every build.
Each host time is scaled by the chunk's reference time over its measured
time, so it reads as seconds on the reference machine in a quiet hour.
The raw times are reported too.
"""

import gc
import heapq
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.normpath(os.path.join(HERE, os.pardir, os.pardir,
                                                 "src")))

import workloads  # noqa: E402  (needs src/ on the path)

#: Seconds one calibration chunk takes on the reference machine, a quiet
#: 2-core Intel Xeon VM running Python 3.11.
CALIBRATION_CHUNK_S = 0.00145
#: Calibration chunks run just before and just after each build.
CHUNKS_PER_BUILD = 3

_TABLE = {key: [key, 3 * key] for key in range(1024)}


def calibration_chunk():
    """Fixed pure-Python work: dict lookups, a small heap, arithmetic.

    Its working set fits in cache, so its time follows the speed the
    interpreter gets from the machine; in trials it tracked the
    workloads' slowdowns more closely than a chunk over a large table.
    """
    heap = []
    x = total = 0
    for index in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        entry = _TABLE[x & 1023]
        heapq.heappush(heap, (entry[1], index))
        total += entry[0]
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return total


def chunk_seconds(count):
    """Total time of ``count`` calibration chunks."""
    started = perf_counter()
    for _ in range(count):
        calibration_chunk()
    return perf_counter() - started


def timed_build(name, seed, scale):
    """Build once: (system, due, raw seconds, calibrated seconds)."""
    chunks = chunk_seconds(CHUNKS_PER_BUILD)
    started = perf_counter()
    system, due = workloads.build(name, seed, scale)
    wall = perf_counter() - started
    chunks += chunk_seconds(CHUNKS_PER_BUILD)
    return (system, due, wall,
            wall * CALIBRATION_CHUNK_S * 2 * CHUNKS_PER_BUILD / chunks)


def timed_run(system):
    """Run slice by slice until the ledger drains.

    Returns (drained, raw seconds, calibrated seconds).  Only the
    simulated slices are timed, not the drain checks and calibration
    chunks between them.
    """
    sim = system.sim
    wall = chunks = 0.0
    slices = 0
    while (not workloads.drained(system)
           and sim.now < workloads.DRAIN_DEADLINE):
        started = perf_counter()
        sim.run(until=sim.now + workloads.DRAIN_SLICE)
        wall += perf_counter() - started
        chunks += chunk_seconds(1)
        slices += 1
    return (workloads.drained(system), wall,
            wall * CALIBRATION_CHUNK_S * slices / chunks)


def main(argv):
    name, seed, scale, traced, builds = (
        argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", int(argv[5]))
    # A tiny build first: the lazy imports inside the system facade are
    # paid here, not inside the timed set-up.
    workloads.build(name, seed, scale=0.01)
    gc.collect()
    ledger = None
    if traced:
        import layers

        ledger = layers.Ledger().install()
    system, due, setup_wall, setup_ref = timed_build(name, seed, scale)
    setup_s, setup_ref_s = [setup_wall], [setup_ref]
    if ledger is not None:
        ledger.attach(system)
    drained, run_wall_s, run_ref_s = timed_run(system)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    requested = workloads.requested_records(name, scale)
    counters = workloads.counters(system)
    reported, unreported, simulated, checks = workloads.outputs(
        system, due, requested)
    if not drained:
        checks.append("pipeline did not drain by t=%g"
                      % workloads.DRAIN_DEADLINE)
    sim_s = system.sim.now
    del system
    gc.collect()
    for _ in range(builds - 1):
        setup_wall, setup_ref = timed_build(name, seed, scale)[2:]
        setup_s.append(setup_wall)
        setup_ref_s.append(setup_ref)
        gc.collect()
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "run_wall_s": run_wall_s,
        "run_ref_s": run_ref_s,
        "sim_s": sim_s,
        "peak_rss_mb": peak_rss_mb,
        "records_requested": requested,
        "records_reported": reported,
        "records_unreported": unreported,
        "simulated": simulated,
        "counters": counters,
        "checks": checks,
    }
    if ledger is not None:
        ledger.uninstall()
        result["ledger"] = ledger.report()
        result["entry_calls"] = ledger.entry_point_calls()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv)
