"""Causal tracing + unified telemetry: the pipeline flight recorder.

This module answers the operational question "where did batch 17
spend its time, and why did it never reach a report?" by recording
**spans**: named intervals with a causal parent, grouped into
traces that follow one collector batch through the Figure-2 pipeline
(collect -> ship -> classify -> notify -> dispatch -> analyze -> report).

Two pieces:

* :class:`SpanRecorder` -- a bounded store of :class:`Span` objects with
  deterministic ids (two identical seeded runs produce identical span
  trees).  Exports a Chrome-trace/Perfetto JSON timeline
  (:meth:`SpanRecorder.to_chrome_trace`) that loads directly into
  ``chrome://tracing`` / https://ui.perfetto.dev.
* :class:`Telemetry` -- the session facade: one recorder, labelled metric
  *sources* (per grid / host / agent) polled at snapshot time, and export
  helpers.

Everything here is passive Python bookkeeping: recording a span schedules
no events, draws no random numbers and charges no resources, so a run with
telemetry enabled is *simulation-identical* to the same run without it
(pinned by ``tests/test_telemetry.py``).

Span statuses form a small vocabulary:

``"open"``
    started, not yet ended (in flight, or leaked -- see orphan checks).
``"ok"``
    ended normally.
``"dead-letter"``
    the in-flight leg's envelope exhausted its retransmissions; terminal.
``"timeout"`` / ``"evicted"``
    a dispatch attempt retired by the Reaper / the heartbeat detector;
    non-terminal (a later attempt continues the chain).
``"abandoned"``
    the root gave up on a cluster/cross job; terminal for that cluster but
    the dataset still finalizes with an error finding.
"""

import collections
import json
import os


#: Spans whose status ends a chain without reaching the next stage.
TERMINAL_STATUSES = frozenset(("dead-letter", "abandoned"))

#: The Figure-2 pipeline stages, in causal order.
PIPELINE_STAGES = (
    "collect", "ship", "classify", "notify", "dispatch", "analyze", "report",
)


class Span:
    """One named interval with a causal parent.

    Attributes:
        span_id: recorder-unique integer (deterministic allocation order).
        trace_id: the trace (one per collector batch) this span belongs to.
        parent_id: causal parent span id, or ``None`` for roots.
        name: stage name ("collect", "ship", ... or anything else).
        grid: which grid did the work ("collector", "classifier",
            "processor", "interface", "network", "kernel").
        host / agent: where the work happened.
        t_start / t_end: simulated seconds (``t_end`` None while open).
        status: see module docstring.
        links: extra causal parents as ``(trace_id, span_id)`` tuples --
            used at merge points (many batches -> one dataset).
        detail: free-form dict of small JSON-able values.
    """

    __slots__ = ("span_id", "trace_id", "parent_id", "name", "grid", "host",
                 "agent", "t_start", "t_end", "status", "links", "detail")

    def __init__(self, span_id, trace_id, parent_id, name, grid, host, agent,
                 t_start, detail):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.grid = grid
        self.host = host
        self.agent = agent
        self.t_start = t_start
        self.t_end = None
        self.status = "open"
        self.links = ()
        self.detail = detail

    @property
    def duration(self):
        if self.t_end is None:
            return None
        return self.t_end - self.t_start

    def key(self):
        """A comparable tuple capturing the whole span (determinism tests)."""
        return (
            self.span_id, self.trace_id, self.parent_id, self.name,
            self.grid, self.host, self.agent, self.t_start, self.t_end,
            self.status, tuple(self.links),
            tuple(sorted(self.detail.items())),
        )

    def __repr__(self):
        return "Span(#%d %s %s t=[%.3f, %s] %s)" % (
            self.span_id, self.trace_id, self.name, self.t_start,
            "%.3f" % self.t_end if self.t_end is not None else "...",
            self.status,
        )


class SpanRecorder:
    """A bounded, deterministic span store.

    A full recorder *rejects new spans* instead of evicting old ones:
    evicting a parent would orphan its whole subtree, while rejecting the
    tail keeps every stored span's causal chain intact.  Rejections are
    counted in :attr:`dropped`.

    Args:
        sim: the simulator (span times come from ``sim.now``).
        capacity: maximum stored spans.
    """

    def __init__(self, sim, capacity=100_000):
        self.sim = sim
        self.capacity = capacity
        self.spans = []
        self.dropped = 0
        #: Optional :class:`StreamingTraceExporter`; when set, closed spans
        #: are rotated to disk and evicted so capacity is never reached.
        self.exporter = None
        #: Callables invoked with each span the moment it closes (before
        #: any streaming eviction) -- the in-line feed for the health
        #: layer's per-stage histograms.  Hooks must be passive: recording
        #: only, no event scheduling, no RNG draws.
        self.close_hooks = []
        self._by_id = {}
        self._next_span = 1
        self._next_trace = 1

    # -- recording ---------------------------------------------------------

    def new_trace(self):
        """Allocate a fresh trace id (one per collector batch)."""
        trace_id = "t-%d" % self._next_trace
        self._next_trace += 1
        return trace_id

    @property
    def trace_count(self):
        return self._next_trace - 1

    def start(self, name, trace_id, parent=None, grid="", host="", agent="",
              t_start=None, **detail):
        """Open a span; returns it (or ``None`` when at capacity).

        ``parent`` may be a :class:`Span` or a span id.  Callers must
        tolerate ``None`` -- at capacity the recorder refuses new spans so
        stored chains stay complete.
        """
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return None
        if isinstance(parent, Span):
            parent = parent.span_id
        span = Span(
            self._next_span, trace_id, parent, name, grid, host, agent,
            self.sim.now if t_start is None else t_start, detail,
        )
        self._next_span += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def end(self, span, status="ok", **detail):
        """Close a span (or span id); the first end wins, later ends no-op.

        The first-end-wins rule absorbs the at-least-once seam in the
        reliable channel: a delivered-then-dead-lettered envelope ends its
        ship span once with the outcome that actually happened first.
        """
        if span is None:
            return None
        if not isinstance(span, Span):
            span = self._by_id.get(span)
            if span is None:
                return None
        if span.t_end is not None:
            return span
        span.t_end = self.sim.now
        span.status = status
        if detail:
            span.detail.update(detail)
        for hook in self.close_hooks:
            hook(span)
        exporter = self.exporter
        if exporter is not None:
            exporter.span_closed()
        return span

    def link(self, span, contributors):
        """Attach extra causal parents (merge points)."""
        if span is not None:
            span.links = tuple(span.links) + tuple(contributors)

    def get(self, span_id):
        return self._by_id.get(span_id)

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self.spans)

    def find(self, name=None, trace_id=None, status=None):
        """Spans filtered by name / trace / status."""
        return [
            span for span in self.spans
            if (name is None or span.name == name)
            and (trace_id is None or span.trace_id == trace_id)
            and (status is None or span.status == status)
        ]

    def open_spans(self):
        return [span for span in self.spans if span.t_end is None]

    def orphan_spans(self):
        """Spans whose causal parent (or any link) is not in the store.

        A non-empty result means the trace tree is broken -- either a bug
        in context threading or capacity-dropped ancestors.
        """
        known = self._by_id
        orphans = []
        for span in self.spans:
            if span.parent_id is not None and span.parent_id not in known:
                orphans.append(span)
                continue
            for _, linked_id in span.links:
                if linked_id not in known:
                    orphans.append(span)
                    break
        return orphans

    def children_of(self, span):
        span_id = span.span_id if isinstance(span, Span) else span
        return [s for s in self.spans if s.parent_id == span_id]

    def end_children(self, span, status="ok", **detail):
        """Close any still-open direct children with the parent's outcome.

        Used when an attempt dies out from under its worker: the analyzer
        on a killed container never returns to close its analyze span, so
        whoever terminates the dispatch attempt closes the children too.
        """
        if span is None:
            return
        for child in self.children_of(span):
            if child.t_end is None:
                self.end(child, status=status, **detail)

    def counts_by_name(self):
        return dict(collections.Counter(span.name for span in self.spans))

    # -- pipeline chain validation ----------------------------------------

    def pipeline_report(self):
        """Audit every collector batch's span chain end to end.

        Returns a dict with:

        * ``batches`` -- number of shipped batches (ship spans);
        * ``complete`` -- batches whose chain reaches a report span or
          terminates in an explicitly-statused dead-letter span;
        * ``incomplete`` -- list of ``(trace_id, stage, why)`` for the rest;
        * ``orphans`` -- :meth:`orphan_spans` (must be empty);
        * ``open`` -- spans never closed (in-flight work at shutdown);
        * ``dropped`` -- spans rejected at capacity.  A non-zero value
          means the other numbers undercount: capacity drops must never be
          mistaken for complete chains.

        The merge points (many classify spans -> one notify; one notify ->
        many dispatch attempts) are followed through span ``links``.
        """
        notifies = self.find(name="notify")
        notify_by_contributor = {}
        for notify in notifies:
            if notify.parent_id is not None:
                notify_by_contributor[notify.parent_id] = notify
            for _, linked_id in notify.links:
                notify_by_contributor[linked_id] = notify
        reports_by_parent = {}
        for report in self.find(name="report"):
            if report.parent_id is not None:
                reports_by_parent[report.parent_id] = report
        incomplete = []
        complete = 0
        ships = self.find(name="ship")
        for ship in ships:
            if ship.status in TERMINAL_STATUSES:
                complete += 1
                continue
            classifies = [
                span for span in self.children_of(ship)
                if span.name == "classify"
            ]
            if not classifies:
                incomplete.append((ship.trace_id, "ship",
                                   "no classify span (status %s)" % ship.status))
                continue
            notify = notify_by_contributor.get(classifies[0].span_id)
            if notify is None:
                incomplete.append((ship.trace_id, "classify",
                                   "dataset never published"))
                continue
            if notify.status in TERMINAL_STATUSES:
                complete += 1
                continue
            report = reports_by_parent.get(notify.span_id)
            if report is None:
                incomplete.append((ship.trace_id, "notify",
                                   "dataset never reported"))
                continue
            complete += 1
        return {
            "batches": len(ships),
            "complete": complete,
            "incomplete": incomplete,
            "orphans": self.orphan_spans(),
            "open": self.open_spans(),
            "dropped": self.dropped,
            "stage_latency": self.stage_latency(),
        }

    def stage_latency(self, qs=(50, 95, 99)):
        """Per-stage latency quantiles over every *closed* span.

        Returns ``{stage: {count, mean, min, max, p50, p95, p99}}`` for
        each Figure-2 pipeline stage that recorded at least one closed
        span, computed through :class:`LatencyHistogram` -- so the live
        recorder, a ``--follow`` replay of a streamed trace and the
        health layer's in-line histograms all report the same numbers.
        """
        from repro.simkernel.histogram import LatencyHistogram

        stages = {}
        wanted = set(PIPELINE_STAGES)
        for span in self.spans:
            if span.t_end is None or span.name not in wanted:
                continue
            histogram = stages.get(span.name)
            if histogram is None:
                histogram = stages[span.name] = LatencyHistogram()
            histogram.record(span.t_end - span.t_start)
        return {
            stage: stages[stage].summary(qs)
            for stage in PIPELINE_STAGES if stage in stages
        }

    # -- critical path ------------------------------------------------------

    def critical_path(self, trace_id):
        """The longest-duration span chain of one trace, root to leaf.

        Follows ``parent_id`` edges only (links mark merge points, not
        time attribution) and maximises the *sum of span durations* along
        the chain; open spans contribute zero.  Returns the chain as a
        list of :class:`Span` objects in causal order -- empty when the
        trace recorded nothing.
        """
        members = [span for span in self.spans if span.trace_id == trace_id]
        if not members:
            return []
        ids = {span.span_id for span in members}
        children = {}
        roots = []
        for span in members:
            if span.parent_id in ids:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.append(span)

        best = {}  # span_id -> (total_duration, chain tuple)

        def chain_from(span):
            cached = best.get(span.span_id)
            if cached is not None:
                return cached
            weight = span.duration or 0.0
            tail = (0.0, ())
            for child in children.get(span.span_id, ()):
                candidate = chain_from(child)
                if candidate[0] > tail[0]:
                    tail = candidate
            result = (weight + tail[0], (span,) + tail[1])
            best[span.span_id] = result
            return result

        winner = (0.0, ())
        for root in roots:
            candidate = chain_from(root)
            if candidate[0] > winner[0]:
                winner = candidate
        return list(winner[1])

    def slowest_traces(self, limit=5):
        """``(trace_id, total_duration, chain)`` rows, worst first.

        One row per trace (skipping the reserved behaviour-attribution
        trace), where ``chain`` is :meth:`critical_path` and the rows
        sort by the chain's summed duration.
        """
        rows = []
        for trace_id in sorted({span.trace_id for span in self.spans
                                if span.trace_id != Telemetry.BEHAVIOUR_TRACE}):
            chain = self.critical_path(trace_id)
            if not chain:
                continue
            total = sum(span.duration or 0.0 for span in chain)
            rows.append((trace_id, total, chain))
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows[:limit]

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self):
        """The stored spans as a Chrome-trace (Trace Event Format) dict.

        One complete ("X") event per span -- ``pid`` rows are hosts,
        ``tid`` rows are agents -- plus "M" metadata events naming them.
        Open spans are emitted with the recorder's current time as a
        provisional end and ``"status": "open"`` in args.  Times are
        microseconds (simulated seconds x 1e6), per the format.
        """
        pids = {}
        tids = {}
        events = []
        now = self.sim.now
        for span in self.spans:
            process = span.host or span.grid or "?"
            thread = span.agent or span.name
            pid = pids.setdefault(process, len(pids) + 1)
            tid = tids.setdefault((process, thread), len(tids) + 1)
            end = span.t_end if span.t_end is not None else max(now, span.t_start)
            args = {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "status": span.status,
                "grid": span.grid,
            }
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            if span.links:
                args["links"] = [list(link) for link in span.links]
            for key, value in span.detail.items():
                args[key] = value
            events.append({
                "name": span.name,
                "cat": span.grid or "span",
                "ph": "X",
                "ts": span.t_start * 1e6,
                "dur": (end - span.t_start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        for process, pid in sorted(pids.items(), key=lambda item: item[1]):
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": process},
            })
        for (process, thread), tid in sorted(tids.items(),
                                             key=lambda item: item[1]):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pids[process],
                "tid": tid, "args": {"name": thread},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans": len(self.spans),
                "dropped": self.dropped,
                "generator": "repro.simkernel.telemetry",
            },
        }

    def summary_rows(self):
        """``(name, count, open, total_duration)`` rows for CLI tables."""
        totals = {}
        for span in self.spans:
            entry = totals.setdefault(span.name, [0, 0, 0.0])
            entry[0] += 1
            if span.t_end is None:
                entry[1] += 1
            else:
                entry[2] += span.t_end - span.t_start
        return [
            (name, count, open_count, duration)
            for name, (count, open_count, duration) in sorted(totals.items())
        ]

    def __repr__(self):
        return "SpanRecorder(spans=%d, dropped=%d)" % (
            len(self.spans), self.dropped)


class StreamingTraceExporter:
    """Rotate closed spans to disk as chunked Chrome-trace files.

    The in-memory :class:`SpanRecorder` rejects new spans at capacity --
    correct for bounded runs, a ceiling for week-long diurnal or
    5000-device traced runs.  This exporter removes the ceiling: every
    ``chunk_spans`` closed spans are appended to ``chunk-NNNNN.json`` in
    ``directory`` and *evicted* from memory, so the recorder holds only
    open spans plus the current partial chunk and ``dropped`` stays zero.

    On-disk layout (all JSON):

    * ``chunk-00000.json``, ``chunk-00001.json``, ... -- each a
      self-contained ``{"traceEvents": [...]}`` file of complete ("X")
      events, loadable directly in ``chrome://tracing`` / Perfetto.  Span
      identity, causality and precise times ride in ``args`` (``span_id``,
      ``trace_id``, ``parent_id``, ``links``, ``t0``/``t1``, ``detail``)
      so :func:`load_streaming_trace` can reconstruct the exact spans.
    * ``manifest.json`` -- chunk list with span counts, cumulative totals
      (exported / open / dropped), the stable pid/tid naming tables and a
      ``finalized`` flag.  Rewritten after every chunk, so a crash loses at
      most the current partial chunk.

    Caveats: once a span is exported, later ``link()`` / detail mutations
    are not reflected on disk (in-tree callers only mutate open spans),
    and the live recorder's ``pipeline_report()`` only sees what is still
    in memory -- use ``repro-sim trace --follow`` for the full audit.

    Args:
        recorder: the :class:`SpanRecorder` to drain (takes ownership of
            its ``exporter`` hook).
        directory: output directory, created if missing.
        chunk_spans: closed spans per chunk file.
    """

    def __init__(self, recorder, directory, chunk_spans=5000):
        if chunk_spans < 1:
            raise ValueError("chunk_spans must be >= 1")
        self.recorder = recorder
        self.directory = directory
        self.chunk_spans = chunk_spans
        self.spans_exported = 0
        self.chunks = []  # manifest rows
        self.finalized = False
        self._closed = 0  # closed-but-not-yet-exported spans
        self._pids = {}
        self._tids = {}
        os.makedirs(directory, exist_ok=True)
        recorder.exporter = self

    # -- recorder hook -----------------------------------------------------

    def span_closed(self):
        """Called by the recorder on every span end; rotates when due."""
        self._closed += 1
        if self._closed >= self.chunk_spans and not self.finalized:
            self.flush()

    # -- rotation ----------------------------------------------------------

    def _span_event(self, span, provisional_end):
        """One Chrome-trace "X" event carrying full span identity."""
        process = span.host or span.grid or "?"
        thread = span.agent or span.name
        pid = self._pids.setdefault(process, len(self._pids) + 1)
        tid = self._tids.setdefault((process, thread), len(self._tids) + 1)
        end = span.t_end if span.t_end is not None else provisional_end
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "status": span.status,
            "grid": span.grid,
            "host": span.host,
            "agent": span.agent,
            "t0": span.t_start,
        }
        if span.t_end is not None:
            args["t1"] = span.t_end
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.links:
            args["links"] = [list(link) for link in span.links]
        if span.detail:
            args["detail"] = dict(span.detail)
        return {
            "name": span.name,
            "cat": span.grid or "span",
            "ph": "X",
            "ts": span.t_start * 1e6,
            "dur": (end - span.t_start) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        }

    def _write_chunk(self, spans, provisional_end):
        filename = "chunk-%05d.json" % len(self.chunks)
        events = [self._span_event(span, provisional_end) for span in spans]
        with open(os.path.join(self.directory, filename), "w") as handle:
            json.dump({"traceEvents": events}, handle)
        self.chunks.append({
            "file": filename,
            "spans": len(spans),
            "first_span_id": spans[0].span_id,
            "last_span_id": spans[-1].span_id,
        })

    def flush(self):
        """Export every closed span to a new chunk and evict it from memory.

        No-op when nothing is closed.  The manifest is rewritten afterwards
        so the on-disk state is always internally consistent.
        """
        recorder = self.recorder
        closed = [span for span in recorder.spans if span.t_end is not None]
        if closed:
            self._write_chunk(closed, recorder.sim.now)
            recorder.spans = [
                span for span in recorder.spans if span.t_end is None
            ]
            by_id = recorder._by_id
            for span in closed:
                del by_id[span.span_id]
            self.spans_exported += len(closed)
        self._closed = 0
        self.write_manifest()

    def finalize(self):
        """Flush the tail, export still-open spans provisionally, seal.

        Open spans are written (status ``"open"``, end = current time) to a
        final chunk but stay in memory; the manifest's ``finalized`` flag
        flips so late rotations cannot corrupt the sealed layout.
        Idempotent.
        """
        if self.finalized:
            return
        recorder = self.recorder
        now = recorder.sim.now
        closed = [span for span in recorder.spans if span.t_end is not None]
        still_open = [span for span in recorder.spans if span.t_end is None]
        tail = closed + still_open
        if tail:
            self._write_chunk(tail, now)
            recorder.spans = still_open
            by_id = recorder._by_id
            for span in closed:
                del by_id[span.span_id]
            self.spans_exported += len(closed)
        self._closed = 0
        self.finalized = True
        self.write_manifest()

    def write_manifest(self):
        recorder = self.recorder
        manifest = {
            "format": "repro-streaming-trace",
            "version": 1,
            "chunk_spans": self.chunk_spans,
            "chunks": list(self.chunks),
            "spans_exported": self.spans_exported,
            "spans_open": len(recorder.open_spans()),
            "spans_dropped": recorder.dropped,
            "trace_count": recorder.trace_count,
            "finalized": self.finalized,
            "displayTimeUnit": "ms",
            "processes": dict(self._pids),
            "threads": [
                [process, thread, tid]
                for (process, thread), tid in self._tids.items()
            ],
            "generator": "repro.simkernel.telemetry",
        }
        path = os.path.join(self.directory, "manifest.json")
        tmp_path = path + ".tmp"
        with open(tmp_path, "w") as handle:
            json.dump(manifest, handle, indent=1)
        os.replace(tmp_path, path)
        return manifest

    def __repr__(self):
        return "StreamingTraceExporter(%r, chunks=%d, exported=%d)" % (
            self.directory, len(self.chunks), self.spans_exported)


#: args keys carrying span identity in streamed chunk events; everything
#: else under "detail" is the span's free-form detail dict.
_STREAM_ARG_KEYS = frozenset((
    "trace_id", "span_id", "parent_id", "status", "grid", "host", "agent",
    "t0", "t1", "links", "detail",
))


def load_streaming_trace(directory):
    """Rebuild ``(recorder, manifest)`` from a streaming-export directory.

    The returned :class:`SpanRecorder` is offline (``sim=None``) but fully
    populated -- ``summary_rows``, ``pipeline_report`` and
    ``counts_by_name`` work exactly as on the live recorder, including the
    manifest's ``spans_dropped`` count.  Spans exported provisionally
    (status ``"open"``) come back as open spans (``t_end=None``).
    """
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("format") != "repro-streaming-trace":
        raise ValueError("%s is not a streaming-trace manifest" % manifest_path)
    recorder = SpanRecorder(sim=None, capacity=0)
    spans = []
    for chunk in manifest["chunks"]:
        with open(os.path.join(directory, chunk["file"])) as handle:
            payload = json.load(handle)
        for event in payload["traceEvents"]:
            if event.get("ph") != "X":
                continue
            args = event["args"]
            span = Span(
                args["span_id"], args["trace_id"], args.get("parent_id"),
                event["name"], args.get("grid", ""), args.get("host", ""),
                args.get("agent", ""), args["t0"], args.get("detail", {}),
            )
            span.status = args.get("status", "ok")
            span.t_end = args.get("t1")
            span.links = tuple(
                (trace_id, span_id)
                for trace_id, span_id in args.get("links", ())
            )
            spans.append(span)
    # Long-open spans are exported after later-started ones: restore
    # allocation order so the rebuilt recorder matches the live one.
    spans.sort(key=lambda span: span.span_id)
    recorder.spans = spans
    recorder._by_id = {span.span_id: span for span in spans}
    recorder._next_span = spans[-1].span_id + 1 if spans else 1
    recorder._next_trace = manifest.get("trace_count", 0) + 1
    recorder.dropped = manifest.get("spans_dropped", 0)
    recorder.capacity = len(spans)
    return recorder, manifest


class Telemetry:
    """The session flight recorder: spans + metrics, unified.

    Args:
        sim: the simulator.
        capacity: span-store bound (see :class:`SpanRecorder`).
        stream_dir: when set, attach a :class:`StreamingTraceExporter`
            rotating closed spans to this directory (removes the capacity
            ceiling for week-long / 5000-device traced runs).  Call
            :meth:`finalize` when the run ends.
        stream_chunk_spans: closed spans per streamed chunk file.
        attribution: record a sim-time span per behaviour activation
            (trace ``"t-behaviours"``), so traces answer "which agent's
            behaviours occupy the timeline" -- see
            :meth:`repro.agents.behaviours.Behaviour.start`.

    Components *register sources* -- ``(labels, supplier)`` pairs where
    ``supplier()`` returns a flat name->number dict -- so one snapshot
    shows every counter in the deployment labelled by grid / host / agent.
    Sources are polled, the way the collector grid polls a device: a
    component keeps its own counters and costs nothing until a snapshot
    reads them.
    """

    #: Reserved trace id grouping behaviour-attribution spans; fixed (not
    #: allocated) so enabling attribution never renumbers batch traces.
    BEHAVIOUR_TRACE = "t-behaviours"

    def __init__(self, sim, capacity=100_000, stream_dir=None,
                 stream_chunk_spans=5000, attribution=False):
        self.sim = sim
        self.recorder = SpanRecorder(sim, capacity=capacity)
        self.attribution = attribution
        self.exporter = None
        if stream_dir is not None:
            self.exporter = StreamingTraceExporter(
                self.recorder, stream_dir, chunk_spans=stream_chunk_spans)
        self._sources = []

    # -- metric sources ----------------------------------------------------

    def register_source(self, supplier, grid="", host="", agent=""):
        """Register a labelled metrics supplier (flat name->number dict)."""
        labels = {"grid": grid, "host": host, "agent": agent}
        self._sources.append((labels, supplier))

    def metrics_snapshot(self):
        """One labelled, JSON-ready view of every metric in the session."""
        sources = []
        for labels, supplier in self._sources:
            metrics = {
                name: value for name, value in supplier().items()
                if isinstance(value, (int, float))
            }
            sources.append({"labels": dict(labels), "metrics": metrics})
        payload = {
            "sources": sources,
            "spans": {
                "recorded": len(self.recorder),
                "dropped": self.recorder.dropped,
                "by_name": self.recorder.counts_by_name(),
            },
        }
        if self.exporter is not None:
            payload["spans"]["exported"] = self.exporter.spans_exported
        return payload

    # -- export ------------------------------------------------------------

    def chrome_trace(self):
        return self.recorder.to_chrome_trace()

    def pipeline_report(self):
        return self.recorder.pipeline_report()

    def finalize(self):
        """Seal the streaming export, if one is attached (else a no-op)."""
        if self.exporter is not None:
            self.exporter.finalize()

    def __repr__(self):
        return "Telemetry(spans=%d, sources=%d)" % (
            len(self.recorder), len(self._sources))


def wire_channel_tracing(recorder, channel):
    """Hook a :class:`~repro.network.reliable.ReliableChannel` into a recorder.

    Terminates in-flight spans when the channel gives up on an envelope --
    so no traced batch ever vanishes from the trace tree without an
    explicit ``dead-letter`` status -- and records a ``redeliver`` span
    each time the redelivery scheduler re-ships a parked envelope.  Any
    previously installed channel hooks keep firing after the tracing ones
    (the deployments chain their accounting hooks through here).
    """
    previous_dead = channel.on_dead_letter
    previous_redelivered = channel.on_redelivered
    previous_gave_up = channel.on_redelivery_gave_up

    def _trace_dead_letter(dead):
        context = getattr(dead.message.payload, "trace_context", None)
        if context is not None and dead.terminal:
            # Parked envelopes keep their ship span open -- the
            # redelivery scheduler will re-open the chain; only a
            # final loss (redelivery off, or budget exhausted at
            # park time) terminates it.
            recorder.end(context[1], status="dead-letter",
                         reason=dead.reason, attempts=dead.attempts)
        if previous_dead is not None:
            previous_dead(dead)

    def _trace_redelivered(dead):
        context = getattr(dead.message.payload, "trace_context", None)
        if context is not None:
            span = recorder.start(
                "redeliver", context[0], parent=context[1],
                grid="network", agent="reliable-channel",
                attempts=dead.attempts)
            recorder.end(span, status="ok")
        if previous_redelivered is not None:
            previous_redelivered(dead)

    def _trace_gave_up(dead):
        context = getattr(dead.message.payload, "trace_context", None)
        if context is not None:
            recorder.end(context[1], status="dead-letter",
                         reason="redelivery gave up: %s" % dead.reason,
                         attempts=dead.attempts)
        if previous_gave_up is not None:
            previous_gave_up(dead)

    channel.on_dead_letter = _trace_dead_letter
    channel.on_redelivered = _trace_redelivered
    channel.on_redelivery_gave_up = _trace_gave_up
