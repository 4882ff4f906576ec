"""Tests for the causal tracing + telemetry subsystem (flight recorder).

Covers the span recorder primitives, the kernel profiler, windowed
time-series snapshots, labelled metrics, Chrome-trace export, the
end-to-end span chain through a real grid run, determinism of identical
seeded runs, and -- crucially -- that telemetry is *passive*: a run with
the recorder attached produces exactly the same simulation as one without.
"""

import json

import pytest

from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)
from repro.network.topology import LinkSpec
from repro.simkernel.metrics import MetricRegistry, TimeSeries
from repro.simkernel.simulator import Simulator
from repro.simkernel.telemetry import (
    KernelProfiler,
    SpanRecorder,
    StreamingTraceExporter,
    Telemetry,
    TERMINAL_STATUSES,
    load_streaming_trace,
)


class _Clock:
    """Minimal sim stand-in: the recorder only reads ``now``."""

    def __init__(self):
        self.now = 0.0


class TestSpanRecorder:
    def test_start_end_records_interval_and_status(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        trace = recorder.new_trace()
        span = recorder.start("collect", trace, grid="collector",
                              host="h1", agent="c1", records=3)
        assert span.status == "open"
        assert span.t_end is None
        clock.now = 2.5
        recorder.end(span, records_stored=3)
        assert span.status == "ok"
        assert span.duration == 2.5
        assert span.detail == {"records": 3, "records_stored": 3}

    def test_end_by_id_and_first_end_wins(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        span = recorder.start("ship", recorder.new_trace())
        clock.now = 1.0
        recorder.end(span.span_id, status="ok")
        clock.now = 5.0
        # a late dead-letter for an already-delivered envelope must not
        # overwrite the outcome that actually happened first
        recorder.end(span.span_id, status="dead-letter")
        assert span.status == "ok"
        assert span.t_end == 1.0

    def test_end_tolerates_none_and_unknown_ids(self):
        recorder = SpanRecorder(_Clock())
        assert recorder.end(None) is None
        assert recorder.end(12345) is None

    def test_capacity_rejects_new_spans_keeping_chains_intact(self):
        recorder = SpanRecorder(_Clock(), capacity=2)
        trace = recorder.new_trace()
        first = recorder.start("a", trace)
        second = recorder.start("b", trace, parent=first)
        third = recorder.start("c", trace, parent=second)
        assert third is None
        assert recorder.dropped == 1
        assert len(recorder) == 2
        # everything stored still has its parent stored too
        assert recorder.orphan_spans() == []

    def test_deterministic_id_allocation(self):
        first = SpanRecorder(_Clock())
        second = SpanRecorder(_Clock())
        for recorder in (first, second):
            trace = recorder.new_trace()
            recorder.start("x", trace)
            recorder.start("y", recorder.new_trace())
        assert [s.key() for s in first.spans] == \
               [s.key() for s in second.spans]

    def test_orphan_detection_on_missing_parent_and_link(self):
        recorder = SpanRecorder(_Clock())
        trace = recorder.new_trace()
        orphan = recorder.start("classify", trace, parent=999)
        linked = recorder.start("notify", trace)
        recorder.link(linked, [(trace, 777)])
        orphans = recorder.orphan_spans()
        assert orphan in orphans
        assert linked in orphans

    def test_find_children_and_counts(self):
        recorder = SpanRecorder(_Clock())
        trace = recorder.new_trace()
        parent = recorder.start("ship", trace)
        child = recorder.start("classify", trace, parent=parent)
        recorder.end(child)
        assert recorder.find(name="classify") == [child]
        assert recorder.find(trace_id=trace) == [parent, child]
        assert recorder.find(status="open") == [parent]
        assert recorder.children_of(parent) == [child]
        assert recorder.counts_by_name() == {"ship": 1, "classify": 1}
        assert recorder.trace_count == 1

    def test_pipeline_report_complete_and_terminal_chains(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        # chain 1: full pipeline
        t1 = recorder.new_trace()
        collect = recorder.start("collect", t1)
        recorder.end(collect)
        ship = recorder.start("ship", t1, parent=collect)
        recorder.end(ship)
        classify = recorder.start("classify", t1, parent=ship)
        recorder.end(classify)
        notify = recorder.start("notify", t1, parent=classify)
        recorder.end(notify)
        report = recorder.start("report", t1, parent=notify)
        recorder.end(report)
        # chain 2: dead-lettered in flight -- terminal, counts complete
        t2 = recorder.new_trace()
        collect2 = recorder.start("collect", t2)
        recorder.end(collect2)
        ship2 = recorder.start("ship", t2, parent=collect2)
        recorder.end(ship2, status="dead-letter")
        assert ship2.status in TERMINAL_STATUSES
        # chain 3: classified but its dataset never published
        t3 = recorder.new_trace()
        collect3 = recorder.start("collect", t3)
        recorder.end(collect3)
        ship3 = recorder.start("ship", t3, parent=collect3)
        recorder.end(ship3)
        classify3 = recorder.start("classify", t3, parent=ship3)
        recorder.end(classify3)
        outcome = recorder.pipeline_report()
        assert outcome["batches"] == 3
        assert outcome["complete"] == 2
        assert outcome["incomplete"] == [
            (t3, "classify", "dataset never published")]
        assert outcome["orphans"] == []

    def test_pipeline_report_follows_merge_links(self):
        recorder = SpanRecorder(_Clock())
        ships, classifies = [], []
        for _ in range(2):
            trace = recorder.new_trace()
            ship = recorder.start("ship", trace)
            recorder.end(ship)
            classify = recorder.start("classify", trace, parent=ship)
            recorder.end(classify)
            ships.append(ship)
            classifies.append(classify)
        # one dataset merges both batches: parent = first contributor,
        # links = the rest
        notify = recorder.start("notify", classifies[0].trace_id,
                                parent=classifies[0])
        recorder.link(
            notify, [(classifies[1].trace_id, classifies[1].span_id)])
        recorder.end(notify)
        report = recorder.start("report", notify.trace_id, parent=notify)
        recorder.end(report)
        outcome = recorder.pipeline_report()
        assert outcome["batches"] == 2
        assert outcome["complete"] == 2
        assert outcome["orphans"] == []


class TestChromeTraceExport:
    def test_export_is_valid_trace_event_format(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        trace = recorder.new_trace()
        span = recorder.start("collect", trace, grid="collector",
                              host="h1", agent="c1")
        clock.now = 0.25
        recorder.end(span)
        still_open = recorder.start("ship", trace, parent=span,
                                    grid="collector", host="h1", agent="c1")
        clock.now = 1.0
        payload = recorder.to_chrome_trace()
        json.dumps(payload)  # must be JSON-serializable as-is
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        assert meta  # process_name / thread_name rows present
        first = complete[0]
        assert first["ts"] == 0.0 and first["dur"] == 0.25 * 1e6
        assert isinstance(first["pid"], int)
        assert isinstance(first["tid"], int)
        assert first["args"]["trace_id"] == trace
        # the open span exports with a provisional end and open status
        second = complete[1]
        assert second["args"]["status"] == "open"
        assert second["dur"] == (1.0 - still_open.t_start) * 1e6
        names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert "h1" in names

    def test_summary_rows_aggregate_per_name(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        trace = recorder.new_trace()
        done = recorder.start("collect", trace)
        clock.now = 2.0
        recorder.end(done)
        recorder.start("collect", trace)
        rows = recorder.summary_rows()
        assert rows == [("collect", 2, 1, 2.0)]


class TestTimeSeriesSnapshot:
    def _series(self, count=100):
        series = TimeSeries("q")
        for index in range(count):
            series.record(float(index), index * 10)
        return series

    def test_full_copy_by_default(self):
        series = self._series(10)
        copy = series.snapshot()
        assert copy == series.points
        assert copy is not series.points

    def test_window_keeps_trailing_points_only(self):
        series = self._series(100)
        tail = series.snapshot(window=4.0)
        assert tail == [(t, v) for t, v in series.points if t >= 95.0]

    def test_max_points_decimates_keeping_first_and_last(self):
        series = self._series(100)
        decimated = series.snapshot(max_points=10)
        assert len(decimated) == 10
        assert decimated[0] == series.points[0]
        assert decimated[-1] == series.points[-1]
        assert decimated == sorted(decimated)

    def test_window_and_max_points_compose(self):
        series = self._series(1000)
        bounded = series.snapshot(window=500.0, max_points=5)
        assert len(bounded) == 5
        assert bounded[0][0] >= 499.0
        assert bounded[-1] == series.points[-1]

    def test_max_points_larger_than_series_is_full_copy(self):
        series = self._series(5)
        assert series.snapshot(max_points=50) == series.points

    def test_single_point_budget_returns_last(self):
        series = self._series(10)
        assert series.snapshot(max_points=1) == [series.points[-1]]

    def test_validation(self):
        series = self._series(5)
        with pytest.raises(ValueError):
            series.snapshot(window=-1.0)
        with pytest.raises(ValueError):
            series.snapshot(max_points=0)

    def test_registry_snapshot_routes_series_bounds(self):
        registry = MetricRegistry()
        series = registry.series("depth")
        for index in range(50):
            series.record(float(index), index)
        snap = registry.snapshot(series_max_points=5)
        assert len(snap["series"]["depth"]) == 5


class TestLabeledMetrics:
    def test_labels_canonicalized_into_name(self):
        registry = MetricRegistry()
        counter = registry.counter("reliable.sent",
                                   {"host": "h1", "grid": "network"})
        counter.inc(3)
        snap = registry.snapshot()
        assert snap["counters"]["reliable.sent{grid=network,host=h1}"] == 3.0

    def test_same_labels_same_instance(self):
        registry = MetricRegistry()
        first = registry.counter("x", {"a": "1"})
        second = registry.counter("x", {"a": "1"})
        other = registry.counter("x", {"a": "2"})
        assert first is second
        assert first is not other


class TestKernelProfiler:
    def test_accounts_callbacks_by_qualname(self):
        sim = Simulator(seed=1)
        profiler = KernelProfiler()
        sim.set_profiler(profiler)

        def tick():
            pass

        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, tick)
        sim.run()
        qualnames = [name for name, _, _ in profiler.top()]
        assert any("tick" in name for name in qualnames)
        snap = profiler.snapshot()
        tick_key = next(name for name in snap if "tick" in name)
        assert snap[tick_key]["count"] == 3
        assert snap[tick_key]["total_seconds"] >= 0.0

    def test_profiler_off_by_default(self):
        sim = Simulator(seed=1)
        assert sim._profiler is None

    def test_telemetry_profile_flag_installs(self):
        sim = Simulator(seed=1)
        telemetry = Telemetry(sim, profile=True)
        assert sim._profiler is telemetry.profiler
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert "kernel_profile" in telemetry.metrics_snapshot()


def _grid_spec(seed=7, telemetry=True, **overrides):
    parameters = dict(
        devices=[DeviceSpec("dev1", "server", "field"),
                 DeviceSpec("dev2", "router", "field")],
        collector_hosts=[HostSpec("col1", "field")],
        analysis_hosts=[HostSpec("inf1", "mgmt"), HostSpec("inf2", "mgmt")],
        storage_host=HostSpec("stor", "mgmt"),
        interface_host=HostSpec("iface", "mgmt"),
        seed=seed,
        dataset_threshold=6,
        telemetry=telemetry,
    )
    parameters.update(overrides)
    return GridTopologySpec(**parameters)


def _run(system, polls_per_type=4, timeout=600.0):
    system.assign_goals(system.make_paper_goals(polls_per_type=polls_per_type))
    completed = system.run_until_records(polls_per_type * 3, timeout=timeout)
    return completed


class TestGridTelemetry:
    def test_off_by_default(self):
        system = GridManagementSystem(_grid_spec(telemetry=False))
        assert system.telemetry is None
        assert system.platform.telemetry is None
        assert system.collectors[0].telemetry is None

    def test_full_pipeline_spans_with_zero_orphans(self):
        system = GridManagementSystem(_grid_spec(reliability=True))
        assert _run(system)
        recorder = system.telemetry.recorder
        counts = recorder.counts_by_name()
        for stage in ("collect", "ship", "classify", "notify",
                      "dispatch", "analyze", "report"):
            assert counts.get(stage, 0) > 0, "missing %s spans" % stage
        outcome = system.telemetry.pipeline_report()
        assert outcome["batches"] > 0
        assert outcome["complete"] == outcome["batches"]
        assert outcome["incomplete"] == []
        assert outcome["orphans"] == []
        assert outcome["open"] == []

    def test_span_causality_follows_figure2(self):
        system = GridManagementSystem(_grid_spec())
        assert _run(system)
        recorder = system.telemetry.recorder
        for ship in recorder.find(name="ship"):
            parent = recorder.get(ship.parent_id)
            assert parent.name == "collect"
            assert parent.trace_id == ship.trace_id
        for analyze in recorder.find(name="analyze"):
            assert recorder.get(analyze.parent_id).name == "dispatch"
        for dispatch in recorder.find(name="dispatch"):
            assert recorder.get(dispatch.parent_id).name == "notify"
        for report in recorder.find(name="report"):
            assert recorder.get(report.parent_id).name == "notify"

    def test_identical_seeded_runs_produce_identical_span_trees(self):
        first = GridManagementSystem(_grid_spec(seed=11))
        second = GridManagementSystem(_grid_spec(seed=11))
        _run(first)
        _run(second)
        # Dataset and job ids come from process-global counters (like
        # FIPA conversation ids), so two runs in one process label them
        # differently; canonicalize to first-seen order before comparing
        # -- everything else must match exactly.
        def keys(system):
            rename = {}
            rows = []
            for span in system.telemetry.recorder.spans:
                detail = dict(span.detail)
                for slot in ("dataset", "job_id"):
                    value = detail.get(slot)
                    if value is not None:
                        detail[slot] = rename.setdefault(
                            value, "%s#%d" % (slot, len(rename)))
                rows.append(span.key()[:-1] + (tuple(sorted(detail.items())),))
            return rows

        first_keys = keys(first)
        second_keys = keys(second)
        assert first_keys == second_keys
        assert first_keys  # non-vacuous

    def test_telemetry_is_passive_same_simulation_either_way(self):
        """A run with the recorder on is simulation-identical to one with
        it off: same clock, same reports, same resource accounting."""
        with_telemetry = GridManagementSystem(_grid_spec(seed=13))
        without = GridManagementSystem(_grid_spec(seed=13, telemetry=False))
        _run(with_telemetry)
        _run(without)
        assert with_telemetry.sim.now == without.sim.now
        assert len(with_telemetry.interface.reports) == \
               len(without.interface.reports)
        assert [r.records_analyzed for r in with_telemetry.interface.reports] \
               == [r.records_analyzed for r in without.interface.reports]
        first_report = with_telemetry.utilization_report().as_rows()
        second_report = without.utilization_report().as_rows()
        assert first_report == second_report

    def test_dead_lettered_batch_gets_terminal_ship_span(self):
        # Kill the storage host before any batch can cross the WAN: every
        # ship envelope exhausts its retries and must surface as an
        # explicit dead-letter span, never a silent gap in the trace.
        system = GridManagementSystem(_grid_spec(
            seed=3,
            reliability={"ack_timeout": 0.5, "max_attempts": 2},
            wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=0.0),
        ))
        system.network.hosts["stor"].fail()
        system.assign_goals(system.make_paper_goals(polls_per_type=2))
        system.run(until=120.0)
        recorder = system.telemetry.recorder
        dead = recorder.find(name="ship", status="dead-letter")
        assert dead
        assert all(span.status in TERMINAL_STATUSES for span in dead)
        assert recorder.orphan_spans() == []
        outcome = system.telemetry.pipeline_report()
        assert outcome["complete"] == outcome["batches"]
        # the channel's accounting surfaced as registered metrics
        snap = system.telemetry.metrics_snapshot()
        assert snap["registry"]["counters"][
            "reliable.dead_letters{grid=network}"] >= 1

    def test_metrics_snapshot_has_labelled_sources(self):
        system = GridManagementSystem(_grid_spec(reliability=True))
        assert _run(system)
        snap = system.telemetry.metrics_snapshot()
        json.dumps(snap)  # JSON-ready
        grids = {source["labels"]["grid"] for source in snap["sources"]}
        assert {"collector", "classifier", "processor",
                "interface", "network", "platform"} <= grids
        collector = next(s for s in snap["sources"]
                         if s["labels"]["agent"] == "collector-1")
        assert collector["metrics"]["records_shipped"] > 0
        assert snap["spans"]["recorded"] == len(system.telemetry.recorder)
        assert snap["registry"]["counters"][
            "reliable.sent{grid=network}"] > 0

    def test_chrome_trace_roundtrips_from_real_run(self):
        system = GridManagementSystem(_grid_spec())
        assert _run(system)
        payload = json.loads(json.dumps(system.telemetry.chrome_trace()))
        events = payload["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "report" for e in events)
        process_names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"col1", "stor"} <= process_names

    def test_telemetry_dict_passes_options(self):
        system = GridManagementSystem(_grid_spec(
            telemetry={"capacity": 5, "profile": False}))
        assert system.telemetry.recorder.capacity == 5
        _run(system)
        assert len(system.telemetry.recorder) <= 5
        assert system.telemetry.recorder.dropped > 0

    def test_pipeline_report_surfaces_dropped_spans(self):
        system = GridManagementSystem(_grid_spec(telemetry={"capacity": 5}))
        _run(system)
        outcome = system.telemetry.pipeline_report()
        assert outcome["dropped"] == system.telemetry.recorder.dropped
        assert outcome["dropped"] > 0


class TestStreamingTrace:
    def _record(self, recorder, clock, count, leave_open=0):
        trace = recorder.new_trace()
        spans = []
        for index in range(count):
            clock.now += 0.5
            span = recorder.start("stage%d" % (index % 3), trace,
                                  host="h%d" % (index % 2),
                                  agent="a%d" % (index % 4), i=index)
            spans.append(span)
        for span in spans[:count - leave_open if leave_open else count]:
            clock.now += 0.25
            recorder.end(span, extra=1)
        return spans

    def test_rotation_evicts_closed_spans_and_drops_stay_zero(self, tmp_path):
        clock = _Clock()
        recorder = SpanRecorder(clock, capacity=10)
        exporter = StreamingTraceExporter(recorder, str(tmp_path),
                                          chunk_spans=5)
        # 23 sequential spans overflow capacity=10 three times over; the
        # rotation keeps the in-memory store small and dropped at zero.
        for _ in range(23):
            self._record(recorder, clock, 1)
        assert recorder.dropped == 0
        assert len(recorder) < 10
        assert exporter.spans_exported + len(recorder) == 23
        assert len(exporter.chunks) == exporter.spans_exported // 5

    def test_finalize_exports_open_spans_provisionally(self, tmp_path):
        clock = _Clock()
        recorder = SpanRecorder(clock, capacity=100)
        exporter = StreamingTraceExporter(recorder, str(tmp_path),
                                          chunk_spans=50)
        self._record(recorder, clock, 6, leave_open=2)
        exporter.finalize()
        assert exporter.finalized
        # Open spans are still live in memory...
        assert len(recorder.open_spans()) == 2
        # ...but the sealed layout carries them with status "open".
        loaded, manifest = load_streaming_trace(str(tmp_path))
        assert manifest["finalized"] is True
        assert manifest["spans_exported"] == 4
        assert manifest["spans_open"] == 2
        assert len(loaded.open_spans()) == 2
        assert len(loaded) == 6
        # Idempotent: a second finalize adds no chunks.
        chunks = len(exporter.chunks)
        exporter.finalize()
        assert len(exporter.chunks) == chunks

    def test_loader_roundtrips_span_identity_exactly(self, tmp_path):
        clock = _Clock()
        recorder = SpanRecorder(clock, capacity=100)
        exporter = StreamingTraceExporter(recorder, str(tmp_path),
                                          chunk_spans=3)
        trace = recorder.new_trace()
        parent = recorder.start("collect", trace, grid="collector",
                                host="h1", agent="c1", records=3)
        clock.now = 1.5
        child = recorder.start("ship", trace, parent=parent, grid="collector",
                               host="h1", agent="c1")
        other = recorder.start("classify", recorder.new_trace(),
                               grid="storage", host="stor", agent="s1")
        recorder.link(other, [(trace, child.span_id)])
        for span in (parent, child, other):
            clock.now += 1.0
            recorder.end(span, ok=True)
        # chunk_spans=3 means ending the third span already rotated them
        # out of recorder.spans -- build the reference from the objects.
        expected = [(span.span_id, span.trace_id, span.parent_id, span.name,
                     span.grid, span.host, span.agent, span.t_start,
                     span.t_end, span.status, span.links, dict(span.detail))
                    for span in sorted((parent, child, other),
                                       key=lambda span: span.span_id)]
        exporter.finalize()
        loaded, _ = load_streaming_trace(str(tmp_path))
        actual = [(span.span_id, span.trace_id, span.parent_id, span.name,
                   span.grid, span.host, span.agent, span.t_start,
                   span.t_end, span.status, span.links, dict(span.detail))
                  for span in loaded.spans]
        assert actual == expected
        assert loaded.find(name="ship")[0].parent_id == parent.span_id
        assert loaded.get(other.span_id).links == ((trace, child.span_id),)

    def test_chunks_are_self_contained_chrome_traces(self, tmp_path):
        clock = _Clock()
        recorder = SpanRecorder(clock, capacity=100)
        StreamingTraceExporter(recorder, str(tmp_path), chunk_spans=4)
        self._record(recorder, clock, 9)
        recorder.exporter.finalize()
        chunk_files = sorted(tmp_path.glob("chunk-*.json"))
        assert len(chunk_files) == 3
        total = 0
        for path in chunk_files:
            payload = json.loads(path.read_text())
            for event in payload["traceEvents"]:
                assert event["ph"] == "X"
                assert event["dur"] >= 0
                assert {"trace_id", "span_id", "status",
                        "t0"} <= set(event["args"])
                total += 1
        assert total == 9

    def test_loader_rejects_non_manifest_directories(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError):
            load_streaming_trace(str(tmp_path))

    def test_grid_run_streams_with_zero_drops_and_full_audit(self, tmp_path):
        # Force rotation mid-run with a tiny chunk size and a capacity the
        # unstreamed run is known to overflow (see the capacity=5 test):
        # streaming must keep dropped at zero and the on-disk audit whole.
        system = GridManagementSystem(_grid_spec(telemetry={
            "capacity": 50, "stream_dir": str(tmp_path),
            "stream_chunk_spans": 10}))
        assert _run(system)
        telemetry = system.telemetry
        telemetry.finalize()
        assert telemetry.recorder.dropped == 0
        loaded, manifest = load_streaming_trace(str(tmp_path))
        assert manifest["spans_dropped"] == 0
        assert loaded.dropped == 0
        outcome = loaded.pipeline_report()
        assert outcome["batches"] > 0
        assert outcome["complete"] == outcome["batches"]
        assert outcome["incomplete"] == []
        assert outcome["orphans"] == []
        assert outcome["dropped"] == 0
        # The streamed view matches an unstreamed run of the same seed.
        reference = GridManagementSystem(_grid_spec())
        assert _run(reference)
        reference.telemetry.finalize()
        assert (loaded.counts_by_name()
                == reference.telemetry.recorder.counts_by_name())

    def test_attribution_records_behaviour_spans(self, tmp_path):
        system = GridManagementSystem(_grid_spec(
            telemetry={"attribution": True}))
        assert _run(system)
        recorder = system.telemetry.recorder
        behaviour_spans = [span for span in recorder.spans
                           if span.trace_id == Telemetry.BEHAVIOUR_TRACE]
        assert behaviour_spans
        assert all(span.name.startswith("behaviour:")
                   for span in behaviour_spans)
        assert all(span.grid == "agents" for span in behaviour_spans)
        names = {span.detail.get("behaviour") for span in behaviour_spans}
        assert len(names) > 1  # more than one behaviour kind attributed
        # Attribution is passive: the simulation result is unchanged.
        reference = GridManagementSystem(_grid_spec())
        assert _run(reference)
        assert (system.utilization_report().render()
                == reference.utilization_report().render())


class TestCloseHooks:
    def test_hooks_fire_on_end_with_final_span_state(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        seen = []
        recorder.close_hooks.append(
            lambda span: seen.append((span.name, span.status,
                                      span.duration)))
        span = recorder.start("ship", recorder.new_trace())
        assert seen == []  # start is not a close
        clock.now = 2.0
        recorder.end(span, status="dead-letter")
        assert seen == [("ship", "dead-letter", 2.0)]
        # First-end-wins: a duplicate end must not re-fire the hook.
        clock.now = 9.0
        recorder.end(span.span_id, status="ok")
        assert len(seen) == 1

    def test_multiple_hooks_fire_in_registration_order(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        order = []
        recorder.close_hooks.append(lambda span: order.append("first"))
        recorder.close_hooks.append(lambda span: order.append("second"))
        recorder.end(recorder.start("collect", recorder.new_trace()))
        assert order == ["first", "second"]


class TestStageLatency:
    def test_histograms_cover_closed_pipeline_spans_only(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        trace = recorder.new_trace()
        ship = recorder.start("ship", trace)
        clock.now = 4.0
        recorder.end(ship)
        recorder.start("classify", trace)      # left open
        recorder.end(recorder.start("bootstrap", trace))  # not a stage
        report = recorder.stage_latency()
        assert set(report) == {"ship"}
        assert report["ship"]["count"] == 1
        assert report["ship"]["p99"] == pytest.approx(4.0, rel=0.01)

    def test_pipeline_report_carries_the_section(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        recorder.end(recorder.start("collect", recorder.new_trace()))
        report = recorder.pipeline_report()
        assert "stage_latency" in report
        assert set(report["stage_latency"]) == {"collect"}


class TestCriticalPath:
    def _chain(self, recorder, clock, durations, trace=None):
        """Build a parent->child chain with the given durations."""
        trace = trace if trace is not None else recorder.new_trace()
        parent = None
        spans = []
        for index, duration in enumerate(durations):
            start = clock.now
            span = recorder.start("stage%d" % index, trace, parent=parent)
            clock.now = start + duration
            recorder.end(span)
            spans.append(span)
            parent = span
        return trace, spans

    def test_picks_the_heaviest_root_to_leaf_chain(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        trace = recorder.new_trace()
        root = recorder.start("ship", trace)
        clock.now = 1.0
        recorder.end(root)
        light = recorder.start("classify", trace, parent=root)
        clock.now = 1.5
        recorder.end(light)
        heavy = recorder.start("dispatch", trace, parent=root)
        clock.now = 9.0
        recorder.end(heavy)
        tail = recorder.start("analyze", trace, parent=heavy)
        clock.now = 12.0
        recorder.end(tail)
        path = recorder.critical_path(trace)
        assert [span.name for span in path] == \
            ["ship", "dispatch", "analyze"]

    def test_unknown_trace_is_empty(self):
        recorder = SpanRecorder(_Clock())
        assert recorder.critical_path(999) == []

    def test_slowest_traces_rank_by_critical_path_total(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        slow_trace, _ = self._chain(recorder, clock, [5.0, 5.0])
        fast_trace, _ = self._chain(recorder, clock, [1.0])
        rows = recorder.slowest_traces(limit=5)
        assert [row[0] for row in rows] == [slow_trace, fast_trace]
        assert rows[0][1] == pytest.approx(10.0)
        assert [span.name for span in rows[0][2]] == ["stage0", "stage1"]

    def test_slowest_traces_respects_limit(self):
        clock = _Clock()
        recorder = SpanRecorder(clock)
        for _ in range(4):
            self._chain(recorder, clock, [1.0])
        assert len(recorder.slowest_traces(limit=2)) == 2
