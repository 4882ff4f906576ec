"""K1 -- kernel microbenchmarks: the perf trajectory for the event loop.

Every experiment in this reproduction (Figure 6, the crossover sweep, the
X3 scalability bench) decomposes into millions of ``simkernel`` events, so
the ROADMAP's "fast as the hardware allows" north star starts here.  This
bench measures:

* heap event throughput -- timer chains through the priority queue;
* zero-delay throughput -- ``spawn`` / ``SimEvent.trigger`` style
  same-instant callbacks (the kernel's fast lane);
* process spawn/join throughput;
* resource contention -- many processes hammering one FIFO resource;
* transport -- 50-message same-flow bursts sent as one ``post_batch``
  (one transfer) against 50 ``post`` calls (one transfer each);
* an end-to-end Figure-6c (agent grid) wall-clock measurement.

Results go to stdout, ``benchmarks/results/kernel.txt`` and -- machine
readable -- ``benchmarks/results/BENCH_kernel.json`` so future PRs have a
perf trajectory to compare against (see DESIGN.md "Performance").
"""

import gc
import json
import os
import shutil
import statistics
import tempfile
import time

from repro.evaluation.export import bench_to_dict, dump_json
from repro.evaluation.tables import format_table
from repro.network.addressing import Address
from repro.network.topology import Network
from repro.network.transport import Message, Transport
from repro.simkernel.resources import Resource, ResourceKind
from repro.simkernel.simulator import Simulator

from conftest import RESULTS_DIR, emit

BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_kernel.json")

SEED = 42
ROUNDS = 3

# Sized so each microbench takes O(100ms): slow enough to dominate timer
# noise, fast enough for the CI smoke job.
HEAP_EVENTS = 200_000
ZERO_DELAY_EVENTS = 200_000
PENDING_TIMERS = 10_000
TIMER_CHURN_EVENTS = 200_000
SPAWN_PROCESSES = 30_000
CONTENTION_PROCESSES = 2_000
CONTENTION_USES = 25
TRANSPORT_MESSAGES = 100_000
TRANSPORT_BURST = 50  # same-instant same-flow messages per burst
TRANSPORT_PAIRS = 5  # interleaved post_batch / post rounds
HISTOGRAM_RECORDS = 500_000
# X3 big-topology configuration: 500 managed devices, 32 management hosts
# (16 collectors + 14 analyzers + storage + interface).
BIGTOPO_DEVICES = 500
BIGTOPO_REQUESTS_PER_TYPE = 25
BIGTOPO_COLLECTORS = 16
BIGTOPO_ANALYZERS = 14

_RESULTS = {}


def _noop():
    pass


def _timed(work):
    """Seconds one ``work()`` call takes."""
    # Drain garbage left by earlier benches/rounds so a gen-2 pause
    # from someone else's cycles doesn't land inside this timing.
    gc.collect()
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def _best_rate(work, count, rounds=ROUNDS):
    """Run ``work`` (fresh state per round) and return best ops/sec."""
    best = min(_timed(work) for _ in range(rounds))
    return count / best, best


def test_bench_heap_event_throughput():
    """Timer chain with distinct future times: pure heap push/pop."""

    def work():
        sim = Simulator(seed=SEED)
        remaining = [HEAP_EVENTS]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        assert remaining[0] == 0

    rate, elapsed = _best_rate(work, HEAP_EVENTS)
    _RESULTS["heap_events_per_sec"] = rate
    print("heap events/sec: %.0f (%.3fs for %d)" %
          (rate, elapsed, HEAP_EVENTS))


def test_bench_zero_delay_throughput():
    """Same-instant callback chain: the spawn/trigger fast lane.

    The chain runs against a heap populated with pending future timers
    (``PENDING_TIMERS``), the realistic shape: in every experiment,
    same-instant triggers and spawns interleave with thousands of
    outstanding poll timers and timeouts.
    """

    def work():
        sim = Simulator(seed=SEED)
        for index in range(PENDING_TIMERS):
            sim.schedule(1e9 + index, _noop)
        remaining = [ZERO_DELAY_EVENTS]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(0.0, tick)

        sim.schedule(0.0, tick)
        sim.run(until=1.0)
        assert remaining[0] == 0

    rate, elapsed = _best_rate(work, ZERO_DELAY_EVENTS)
    _RESULTS["zero_delay_events_per_sec"] = rate
    print("zero-delay events/sec: %.0f (%.3fs for %d)" %
          (rate, elapsed, ZERO_DELAY_EVENTS))


def test_bench_timer_churn_throughput():
    """Heartbeat-reset churn: a large pending-timer population.

    ``PENDING_TIMERS`` watchdogs sit ~30s in the future; every simulated
    second each one is cancelled and re-armed (the retransmit/heartbeat
    reset pattern that dominates bigtopo's pending-timer population).
    Each processed heartbeat costs one pop, one O(1) lazy cancel and two
    near-future schedules; cancelled watchdogs stay in the heap until
    they surface, so every sift runs over ~2x ``PENDING_TIMERS`` entries.
    """
    rounds_of_heartbeats = TIMER_CHURN_EVENTS // PENDING_TIMERS

    def work():
        sim = Simulator(seed=SEED)
        count = [0]
        watchdogs = [None] * PENDING_TIMERS

        def expired(index):
            raise AssertionError("watchdog %d expired mid-bench" % index)

        def heartbeat(index):
            count[0] += 1
            watchdogs[index].cancel()
            watchdogs[index] = sim.schedule(30.0, expired, (index,))
            sim.schedule(1.0, heartbeat, (index,))

        for index in range(PENDING_TIMERS):
            watchdogs[index] = sim.schedule(30.0, expired, (index,))
            sim.schedule(0.0001 * index, heartbeat, (index,))
        sim.run(until=float(rounds_of_heartbeats))
        assert count[0] >= TIMER_CHURN_EVENTS

    rate, elapsed = _best_rate(work, TIMER_CHURN_EVENTS)
    _RESULTS["timer_churn_per_sec"] = rate
    print("timer churn/sec: %.0f (%.3fs for %d)" %
          (rate, elapsed, TIMER_CHURN_EVENTS))


def test_bench_spawn_join_throughput():
    """Spawn a swarm of one-sleep processes and join them all."""

    def work():
        sim = Simulator(seed=SEED)

        def worker(delay):
            yield delay
            return delay

        def parent():
            children = [
                sim.spawn(worker(0.001 * (index % 7)), name="w")
                for index in range(SPAWN_PROCESSES)
            ]
            for child in children:
                yield child

        done = sim.spawn(parent())
        sim.run()
        assert done.done

    rate, elapsed = _best_rate(work, SPAWN_PROCESSES)
    _RESULTS["spawn_join_per_sec"] = rate
    print("spawn+join/sec: %.0f (%.3fs for %d)" %
          (rate, elapsed, SPAWN_PROCESSES))


def test_bench_resource_contention():
    """Many processes queueing default-priority work on one resource."""
    total_uses = CONTENTION_PROCESSES * CONTENTION_USES

    def work():
        sim = Simulator(seed=SEED)
        cpu = Resource(sim, "cpu", ResourceKind.CPU, capacity=1000.0)

        def hammer():
            for _ in range(CONTENTION_USES):
                yield cpu.use(1.0, label="hammer")

        for _ in range(CONTENTION_PROCESSES):
            sim.spawn(hammer(), name="hammer")
        sim.run()
        assert cpu.completed_requests == total_uses

    rate, elapsed = _best_rate(work, total_uses)
    _RESULTS["resource_uses_per_sec"] = rate
    print("resource uses/sec: %.0f (%.3fs for %d)" %
          (rate, elapsed, total_uses))


def _transport_work(batched):
    """TRANSPORT_BURST same-flow messages per instant, as one ``post_batch``
    (one transfer) or as TRANSPORT_BURST ``post`` calls (one transfer
    each)."""

    def work():
        sim = Simulator(seed=SEED)
        network = Network(sim)
        network.add_host("src", "site1")
        network.add_host("dst", "site1")
        network.host("dst").bind("in", lambda message: None)
        transport = Transport(network)
        source = Address("src", "out")
        sink = Address("dst", "in")
        post, post_batch = transport.post, transport.post_batch

        def driver():
            for _ in range(TRANSPORT_MESSAGES // TRANSPORT_BURST):
                if batched:
                    post_batch([Message(source, sink, None, 1.0)
                                for _ in range(TRANSPORT_BURST)])
                else:
                    for _ in range(TRANSPORT_BURST):
                        post(Message(source, sink, None, 1.0))
                yield 1000.0  # let the NIC drain before the next burst

        sim.spawn(driver())
        sim.run()
        assert transport.messages_delivered == TRANSPORT_MESSAGES

    return work


def test_bench_transport_batched_vs_single():
    """One ``post_batch`` per burst against one ``post`` per message.

    The two lanes run in alternation, one round each per pair, so machine
    drift hits both alike; the >=2x claim is held on the median of the
    per-pair ratios, not on one best-of-N figure against another.
    """
    batched, single = _transport_work(True), _transport_work(False)
    batched_times, single_times, ratios = [], [], []
    for _ in range(TRANSPORT_PAIRS):
        batched_times.append(_timed(batched))
        single_times.append(_timed(single))
        ratios.append(single_times[-1] / batched_times[-1])
    ratio = statistics.median(ratios)
    _RESULTS["transport_msgs_per_sec"] = TRANSPORT_MESSAGES / min(batched_times)
    _RESULTS["transport_unbatched_msgs_per_sec"] = \
        TRANSPORT_MESSAGES / min(single_times)
    _RESULTS["transport_batch_speedup_median"] = ratio
    print("transport msgs/sec: post_batch %.0f, post %.0f; per-pair "
          "ratios %s, median %.2f" % (
              _RESULTS["transport_msgs_per_sec"],
              _RESULTS["transport_unbatched_msgs_per_sec"],
              " ".join("%.2f" % r for r in ratios), ratio))
    assert ratio >= 2.0


def test_bench_bigtopo_wallclock():
    """X3 big topology: 500 devices on a 32-host grid, end to end."""
    from repro.evaluation.experiments import run_scenario_on_grid
    from repro.workloads.scenarios import scaling_scenario

    scenario = scaling_scenario(BIGTOPO_DEVICES, BIGTOPO_REQUESTS_PER_TYPE)
    start = time.perf_counter()
    result = run_scenario_on_grid(
        scenario, seed=SEED, timeout=8000,
        collector_count=BIGTOPO_COLLECTORS, analyzer_count=BIGTOPO_ANALYZERS,
        dataset_threshold=scenario.total_requests,
    )
    elapsed = time.perf_counter() - start
    assert result.completed
    assert len(result.system.management_hosts()) == 32
    _RESULTS["bigtopo_wall_seconds"] = elapsed
    _RESULTS["bigtopo_sim_seconds_per_wall_second"] = result.makespan / elapsed
    print("bigtopo wall clock: %.3fs (makespan %.1fs, %d messages)" %
          (elapsed, result.makespan,
           result.system.transport.stats()["sent"]))


def test_bench_bigtopo_streaming_telemetry():
    """The 500-device bigtopo run, fully traced, spans streamed to disk.

    The acceptance bar for the streaming exporter: the whole traced run
    completes with *zero* rejected spans (closed spans rotate to chunked
    Chrome-trace files instead of hitting the in-memory capacity ceiling)
    and leaves a readable manifest behind.
    """
    from repro.evaluation.experiments import run_scenario_on_grid
    from repro.simkernel.telemetry import load_streaming_trace
    from repro.workloads.scenarios import scaling_scenario

    stream_dir = tempfile.mkdtemp(prefix="bigtopo-stream-")
    try:
        scenario = scaling_scenario(BIGTOPO_DEVICES,
                                    BIGTOPO_REQUESTS_PER_TYPE)
        start = time.perf_counter()
        result = run_scenario_on_grid(
            scenario, seed=SEED, timeout=8000,
            collector_count=BIGTOPO_COLLECTORS,
            analyzer_count=BIGTOPO_ANALYZERS,
            dataset_threshold=scenario.total_requests,
            telemetry={"stream_dir": stream_dir,
                       "stream_chunk_spans": 5000},
        )
        elapsed = time.perf_counter() - start
        assert result.completed
        telemetry = result.system.telemetry
        telemetry.finalize()
        recorder = telemetry.recorder
        assert recorder.dropped == 0, (
            "streaming run rejected %d spans" % recorder.dropped)
        loaded, manifest = load_streaming_trace(stream_dir)
        assert manifest["finalized"]
        assert manifest["spans_dropped"] == 0
        total_spans = telemetry.exporter.spans_exported + len(
            loaded.open_spans())
        assert len(loaded.spans) == total_spans
        _RESULTS["bigtopo_streaming_wall_seconds"] = elapsed
        print("bigtopo streaming wall clock: %.3fs (%d spans exported in "
              "%d chunks, %d open, 0 dropped)" % (
                  elapsed, telemetry.exporter.spans_exported,
                  len(manifest["chunks"]), len(loaded.open_spans())))
    finally:
        shutil.rmtree(stream_dir, ignore_errors=True)


def test_bench_histogram_record_throughput():
    """``LatencyHistogram.record`` on a realistic latency spread.

    The health layer feeds every closed pipeline span through this call
    in-line, so it sits on the telemetry hot path: O(1), allocation-free
    once the working set of sparse buckets exists.  Values are
    precomputed (log-uniform across 8 decades) so the measurement is the
    record loop, not ``random``.
    """
    import random

    from repro.simkernel.histogram import LatencyHistogram

    rng = random.Random(SEED)
    values = [10 ** rng.uniform(-4, 4) for _ in range(HISTOGRAM_RECORDS)]

    def work():
        histogram = LatencyHistogram()
        record = histogram.record
        for value in values:
            record(value)
        assert histogram.count == HISTOGRAM_RECORDS

    rate, elapsed = _best_rate(work, HISTOGRAM_RECORDS)
    _RESULTS["histogram_record_per_sec"] = rate
    print("histogram records/sec: %.0f (%.3fs for %d)" %
          (rate, elapsed, HISTOGRAM_RECORDS))


def test_bench_zero_delay_telemetry_throughput():
    """The zero-delay chain with a telemetry session attached.

    The flight recorder must be pay-for-what-you-trace: attaching a
    :class:`Telemetry` (spans and metrics are passive bookkeeping that
    the kernel never touches) should leave the hot loop's
    throughput within noise of the plain run above.  The CI overhead gate
    (``benchmarks/check_telemetry_overhead.py``) compares the two.
    """
    from repro.simkernel.telemetry import Telemetry

    def work():
        sim = Simulator(seed=SEED)
        Telemetry(sim)  # attached with default options
        for index in range(PENDING_TIMERS):
            sim.schedule(1e9 + index, _noop)
        remaining = [ZERO_DELAY_EVENTS]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(0.0, tick)

        sim.schedule(0.0, tick)
        sim.run(until=1.0)
        assert remaining[0] == 0

    rate, elapsed = _best_rate(work, ZERO_DELAY_EVENTS)
    _RESULTS["zero_delay_telemetry_events_per_sec"] = rate
    print("zero-delay events/sec with telemetry: %.0f (%.3fs for %d)" %
          (rate, elapsed, ZERO_DELAY_EVENTS))


def _figure6c_wallclock(telemetry):
    from repro.baselines.driver import run_architecture
    from repro.core.system import GridTopologySpec

    best = None
    for _ in range(ROUNDS):
        spec = GridTopologySpec.paper_figure6c(
            seed=SEED, dataset_threshold=30, telemetry=telemetry)
        start = time.perf_counter()
        result = run_architecture(spec, "grid", polls_per_type=10,
                                  timeout=4000)
        elapsed = time.perf_counter() - start
        assert result.completed
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_bench_figure6c_wallclock():
    """End-to-end wall clock for the paper's Figure-6c agent-grid run."""
    best = _figure6c_wallclock(telemetry=False)
    _RESULTS["figure6c_wall_seconds"] = best
    print("figure6c wall clock: %.3fs" % best)


def test_bench_figure6c_telemetry_wallclock():
    """Figure-6c with the full flight recorder on: spans at every stage,
    labelled metric sources, dead-letter hooks.  Overhead-gated in CI."""
    best = _figure6c_wallclock(telemetry=True)
    _RESULTS["figure6c_telemetry_wall_seconds"] = best
    print("figure6c wall clock with telemetry: %.3fs" % best)


def test_bench_kernel_export():
    """Render the summary table and write BENCH_kernel.json."""
    expected = {
        "heap_events_per_sec",
        "zero_delay_events_per_sec",
        "timer_churn_per_sec",
        "spawn_join_per_sec",
        "resource_uses_per_sec",
        "bigtopo_streaming_wall_seconds",
        "transport_msgs_per_sec",
        "transport_unbatched_msgs_per_sec",
        "transport_batch_speedup_median",
        "histogram_record_per_sec",
        "bigtopo_wall_seconds",
        "bigtopo_sim_seconds_per_wall_second",
        "figure6c_wall_seconds",
        "zero_delay_telemetry_events_per_sec",
        "figure6c_telemetry_wall_seconds",
    }
    missing = expected - set(_RESULTS)
    assert not missing, "benches did not run: %s" % sorted(missing)

    rows = [(name, "%.0f" % value if "per_sec" in name else "%.4f" % value)
            for name, value in sorted(_RESULTS.items())]
    text = format_table(
        ("metric", "value"), rows,
        title="Kernel microbenchmarks (higher events/sec = better)",
    )
    emit("kernel", text)

    payload = bench_to_dict(
        "kernel", _RESULTS,
        context={
            "seed": SEED,
            "rounds": ROUNDS,
            "heap_events": HEAP_EVENTS,
            "zero_delay_events": ZERO_DELAY_EVENTS,
            "pending_timers": PENDING_TIMERS,
            "spawn_processes": SPAWN_PROCESSES,
            "contention_processes": CONTENTION_PROCESSES,
            "contention_uses": CONTENTION_USES,
            "transport_messages": TRANSPORT_MESSAGES,
            "transport_burst": TRANSPORT_BURST,
            "transport_pairs": TRANSPORT_PAIRS,
            "histogram_records": HISTOGRAM_RECORDS,
            "bigtopo_devices": BIGTOPO_DEVICES,
            "bigtopo_requests_per_type": BIGTOPO_REQUESTS_PER_TYPE,
            "bigtopo_collectors": BIGTOPO_COLLECTORS,
            "bigtopo_analyzers": BIGTOPO_ANALYZERS,
        },
    )
    dump_json(payload, BENCH_PATH)
    assert os.path.exists(BENCH_PATH)
