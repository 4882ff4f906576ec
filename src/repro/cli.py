"""Command-line interface: run the paper's experiments from a shell.

Installed as the ``repro-sim`` console script::

    repro-sim figure6 --polls 10 --seed 42
    repro-sim table1
    repro-sim crossover --points 1 5 10 20
    repro-sim federation --mode integrated
    repro-sim quickstart --json out.json
    repro-sim trace --out trace.json --metrics metrics.json
    repro-sim chaos --scenario split_brain --report report.json

Every subcommand prints the paper-style tables; ``--json PATH`` also dumps
machine-readable results.
"""

import argparse
import sys

from repro.evaluation import export
from repro.evaluation.tables import format_number, format_table


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=42,
                        help="master random seed (default 42)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write results as JSON to PATH")


def _cmd_table1(args):
    from repro.core.costs import CostModel

    model = CostModel()
    rows = [
        (name, format_number(cost.cpu), format_number(cost.net),
         format_number(cost.disk), "est" if cost.estimated else "paper")
        for name, cost in model.table_rows()
    ]
    print(format_table(("Tasks", "CPU", "Network", "Disc", "source"), rows,
                       title="Table 1: relative times of management tasks"))
    if args.json:
        export.dump_json(
            [
                {"task": name, "cpu": cost.cpu, "net": cost.net,
                 "disk": cost.disk, "estimated": cost.estimated}
                for name, cost in model.table_rows()
            ],
            args.json,
        )
    return 0


def _cmd_figure6(args):
    from repro.baselines.driver import run_figure6
    from repro.evaluation.accounting import compare_reports
    from repro.simkernel.resources import ResourceKind

    results = run_figure6(polls_per_type=args.polls, seed=args.seed)
    for label in ("centralized", "multiagent", "grid"):
        print(results[label].report.render())
        print()
    comparison = compare_reports(
        [result.report for result in results.values()], ResourceKind.CPU)
    print(format_table(
        ("architecture", "bottleneck", "max CPU units", "makespan (s)"),
        [(entry["label"], entry["max_host"],
          format_number(entry["max_host_units"]),
          "%.1f" % entry["makespan"]) for entry in comparison],
        title="winner first:",
    ))
    if args.json:
        export.dump_json(
            {label: export.run_result_to_dict(result)
             for label, result in results.items()},
            args.json,
        )
    return 0


def _cmd_quickstart(args):
    from repro.baselines.driver import run_architecture
    from repro.core.system import GridTopologySpec

    reliability = {"redelivery": True} if args.reliable else False
    spec = GridTopologySpec.paper_figure6c(
        seed=args.seed, dataset_threshold=args.polls * 3,
        reliability=reliability)
    result = run_architecture(spec, "grid", polls_per_type=args.polls)
    print(result.report.render())
    print()
    print("records analyzed: %d   findings: %d" % (
        result.records_analyzed, len(result.findings)))
    for finding in result.findings:
        print("  %-18s %-8s %s" % (
            finding.kind, finding.severity, finding.device))
    if args.json:
        export.dump_json(export.run_result_to_dict(result), args.json)
    return 0


def _print_span_report(recorder, pipeline, trace_count):
    print(format_table(
        ("stage", "spans", "open", "total s"),
        [(name, count, open_count, format_number(duration))
         for name, count, open_count, duration
         in recorder.summary_rows()],
        title="span summary (%d spans, %d traces, %d dropped):" % (
            len(recorder), trace_count, recorder.dropped,
        ),
    ))
    print()
    print("pipeline: %d batches shipped, %d chains complete, "
          "%d incomplete, %d orphan spans, %d open spans, "
          "%d spans dropped" % (
              pipeline["batches"], pipeline["complete"],
              len(pipeline["incomplete"]), len(pipeline["orphans"]),
              len(pipeline["open"]), pipeline["dropped"]))
    if pipeline["dropped"]:
        print("  WARNING: %d spans were rejected at capacity -- chain "
              "counts above undercount (use --stream to lift the ceiling)"
              % pipeline["dropped"])
    for trace_id, stage, why in pipeline["incomplete"]:
        print("  incomplete %s at %s: %s" % (trace_id, stage, why))
    stage_latency = pipeline.get("stage_latency")
    if stage_latency:
        print()
        print(_stage_latency_table(stage_latency))


def _stage_latency_table(stage_latency, title="stage latency (s):"):
    return format_table(
        ("stage", "count", "mean", "p50", "p95", "p99", "max"),
        [
            (stage, stats["count"], format_number(stats["mean"]),
             format_number(stats["p50"]), format_number(stats["p95"]),
             format_number(stats["p99"]), format_number(stats["max"]))
            for stage, stats in stage_latency.items()
        ],
        title=title,
    )


def _print_slowest(recorder, limit):
    """The N worst critical-path chains with per-stage attribution."""
    rows = recorder.slowest_traces(limit)
    if not rows:
        print("no closed trace chains recorded")
        return
    print("slowest %d trace chains (critical path):" % len(rows))
    for trace_id, total, chain in rows:
        print()
        print("  %s  total %.3fs" % (trace_id, total))
        for span in chain:
            duration = span.duration
            where = "@".join(part for part in (span.agent, span.host) if part)
            print("    %-10s %8s  %-6s %s" % (
                span.name,
                "%.3fs" % duration if duration is not None else "open",
                span.status, where,
            ))


def _cmd_trace_follow(args):
    from repro.simkernel.telemetry import load_streaming_trace

    recorder, manifest = load_streaming_trace(args.follow)
    print("streaming trace %s: %d chunks, %d spans exported, "
          "finalized=%s" % (
              args.follow, len(manifest["chunks"]),
              manifest["spans_exported"], manifest["finalized"]))
    print()
    _print_span_report(recorder, recorder.pipeline_report(),
                       manifest.get("trace_count", 0))
    if args.slowest:
        print()
        _print_slowest(recorder, args.slowest)
    return 0


def _cmd_trace(args):
    from repro.core.system import GridTopologySpec, GridManagementSystem

    if args.follow:
        return _cmd_trace_follow(args)
    telemetry_options = {"attribution": args.attribution}
    if args.stream:
        telemetry_options["stream_dir"] = args.stream
    spec = GridTopologySpec.paper_figure6c(
        seed=args.seed,
        dataset_threshold=args.polls * 3,
        telemetry=telemetry_options,
        reliability=args.reliable,
        shards=args.shards,
    )
    system = GridManagementSystem(spec)
    system.assign_goals(system.make_paper_goals(polls_per_type=args.polls))
    total = args.polls * 3
    completed = system.run_until_records(total, timeout=3000)
    telemetry = system.telemetry
    telemetry.finalize()
    if args.stream:
        # The in-memory store is drained once streamed: audit the full
        # on-disk view instead, exactly as --follow would.
        from repro.simkernel.telemetry import load_streaming_trace

        print("streaming trace written to %s (%d chunks, %d spans; "
              "inspect with: repro-sim trace --follow %s)" % (
                  args.stream, len(telemetry.exporter.chunks),
                  telemetry.exporter.spans_exported, args.stream))
        print()
        recorder, _ = load_streaming_trace(args.stream)
        _print_span_report(recorder, recorder.pipeline_report(),
                           telemetry.recorder.trace_count)
        if args.slowest:
            print()
            _print_slowest(recorder, args.slowest)
    else:
        pipeline = telemetry.pipeline_report()
        _print_span_report(telemetry.recorder, pipeline,
                           telemetry.recorder.trace_count)
        if args.slowest:
            print()
            _print_slowest(telemetry.recorder, args.slowest)
    if args.out:
        export.dump_json(telemetry.chrome_trace(), args.out)
        print()
        print("chrome trace written to %s "
              "(load in chrome://tracing or ui.perfetto.dev)" % args.out)
    if args.metrics:
        export.dump_json(telemetry.metrics_snapshot(), args.metrics)
        print("metrics snapshot written to %s" % args.metrics)
    return 0 if completed else 1


# -- operational health (top / slo) ---------------------------------------

#: Default SLOs for the dashboard / CI heal drill: generous targets that
#: a healthy Figure-6c run meets easily (ship spans legitimately run tens
#: of seconds -- they cover dataset batching), blown through during an
#: outage, when parked batches redeliver minutes late or dead-letter.
DEFAULT_SLOS = ("ship:90:40:120", "dispatch:90:45:120")


def _parse_slo(text):
    """``stage:p:target[:window[:fast]]`` -> :class:`SLOSpec`."""
    from repro.core.health import SLOSpec

    parts = text.split(":")
    if not 3 <= len(parts) <= 5:
        raise SystemExit(
            "bad --slo %r (expected stage:p:target[:window[:fast]])" % text)
    kwargs = {"stage": parts[0], "p": float(parts[1]),
              "target": float(parts[2])}
    if len(parts) >= 4:
        kwargs["window"] = float(parts[3])
    if len(parts) == 5:
        kwargs["fast_window"] = float(parts[4])
    return SLOSpec(**kwargs)


_STATE_DOTS = {"green": "\x1b[32m●\x1b[0m", "degraded": "\x1b[33m●\x1b[0m",
               "red": "\x1b[31m●\x1b[0m"}


def _state_dot(state, color):
    if color:
        return "%s %s" % (_STATE_DOTS.get(state, "?"), state)
    return state


def _burn_gauge(burn, width=20):
    filled = min(width, int(round(min(burn, 10.0) / 10.0 * width)))
    return "[%s%s]" % ("#" * filled, "." * (width - filled))


def _render_health_frame(title, now, stage_latency, slo_rows, scorecards,
                         channel, plain):
    """One dashboard frame (ANSI-redraw unless ``plain``)."""
    color = not plain and sys.stdout.isatty()
    if not plain and sys.stdout.isatty():
        sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
    else:
        print("=" * 66)
    print("%s   t=%.1fs" % (title, now))
    print()
    if stage_latency:
        print(_stage_latency_table(stage_latency))
    else:
        print("(no closed pipeline spans yet)")
    print()
    if slo_rows:
        print("slo burn rates (fast/slow windows; trip >= threshold on both):")
        for row in slo_rows:
            slo = row["slo"]
            state = "BURNING" if row["burning"] else "ok"
            print("  %-9s p%-4g < %gs  fast %6.2f %s slow %6.2f  %s" % (
                slo["stage"], slo["p"], slo["target"],
                row["fast_burn"], _burn_gauge(row["fast_burn"]),
                row["slow_burn"], state))
        print()
    if scorecards is not None:
        print("scorecards (overall: %s)" % _state_dot(
            scorecards["overall"], color))
        for site, state in scorecards["sites"].items():
            print("  site %-10s %s" % (site, _state_dot(state, color)))
        for name, card in sorted(scorecards["containers"].items()):
            reasons = "; ".join(card["reasons"])
            print("    %-22s %-16s %s" % (
                name, _state_dot(card["state"], color), reasons))
        print()
    if channel:
        print("reliable channel: sent %d  delivered %d  retransmits %d  "
              "dead-letters %d  parked %d  redelivered %d" % (
                  channel.get("sent", 0), channel.get("delivered", 0),
                  channel.get("retransmits", 0),
                  channel.get("dead_letters", 0), channel.get("parked", 0),
                  channel.get("redelivered", 0)))
    sys.stdout.flush()


def _build_health_system(args, slos):
    from repro.core.system import GridTopologySpec, GridManagementSystem

    reliability = False
    if args.reliable:
        # The chaos-matrix ladder: retransmissions give up inside ~15s so
        # a longer outage exercises park + redelivery.
        reliability = {
            "ack_timeout": 1.0, "backoff": 2.0, "max_attempts": 4,
            "redelivery": True, "redelivery_interval": 2.0,
            "redelivery_max_interval": 8.0,
        }
    spec = GridTopologySpec.paper_figure6c(
        seed=args.seed,
        dataset_threshold=args.polls * 3,
        reliability=reliability,
        heartbeat_interval=2.0,
        job_timeout=40.0,
        shards=getattr(args, "shards", 1),
        slos=slos,
    )
    return GridManagementSystem(spec)


def _analyzed(system):
    return sum(r.records_analyzed for r in system.interface.reports)


def _cmd_top(args):
    if args.follow:
        return _cmd_top_follow(args)
    slos = [_parse_slo(text) for text in (args.slo or DEFAULT_SLOS)]
    system = _build_health_system(args, slos)
    system.assign_goals(system.make_paper_goals(polls_per_type=args.polls))
    total = args.polls * 3
    health = system.health
    title = "repro-sim top -- Figure 6(c) grid, seed %d" % args.seed
    frames = 0
    while system.sim.now < args.duration:
        system.sim.run(until=system.sim.now + args.refresh)
        snap = health.snapshot()
        _render_health_frame(
            title, system.sim.now, snap["stage_latency"], snap["slos"],
            snap["scorecards"], snap.get("reliable_channel"), args.plain)
        frames += 1
        if args.frames and frames >= args.frames:
            break
        if _analyzed(system) >= total and not health.active_burns():
            break
    print()
    print("workload: %d/%d records analyzed, %d burn findings shipped"
          % (_analyzed(system), total, health.findings_shipped))
    return 0


def _cmd_top_follow(args):
    """Replay a streamed trace directory as dashboard frames."""
    from repro.core.health import SLOTracker
    from repro.simkernel.histogram import LatencyHistogram
    from repro.simkernel.telemetry import (
        PIPELINE_STAGES, load_streaming_trace)

    recorder, manifest = load_streaming_trace(args.follow)
    slos = [_parse_slo(text) for text in (args.slo or DEFAULT_SLOS)]
    trackers = [SLOTracker(slo) for slo in slos]
    closed = sorted(
        (span for span in recorder.spans if span.t_end is not None),
        key=lambda span: (span.t_end, span.span_id))
    if not closed:
        print("no closed spans in %s" % args.follow)
        return 1
    title = "repro-sim top --follow %s (%d spans)" % (
        args.follow, len(closed))
    frames = max(1, args.frames or 8)
    horizon = closed[-1].t_end
    step = horizon / frames
    histograms = {}
    cursor = 0
    for frame in range(1, frames + 1):
        frame_end = step * frame if frame < frames else horizon
        while cursor < len(closed) and closed[cursor].t_end <= frame_end:
            span = closed[cursor]
            cursor += 1
            if span.name in PIPELINE_STAGES:
                histogram = histograms.get(span.name)
                if histogram is None:
                    histogram = histograms[span.name] = LatencyHistogram()
                histogram.record(span.duration)
            for tracker in trackers:
                if tracker.slo.stage == span.name:
                    tracker.record(span.t_end, span.duration, span.status)
        for tracker in trackers:
            tracker.evaluate(frame_end)
        stage_latency = {
            stage: histograms[stage].summary()
            for stage in PIPELINE_STAGES if stage in histograms
        }
        _render_health_frame(
            title, frame_end, stage_latency,
            [tracker.snapshot(frame_end) for tracker in trackers],
            None, None, args.plain)
    raised = sum(tracker.raised for tracker in trackers)
    cleared = sum(tracker.cleared for tracker in trackers)
    print()
    print("replayed %d frames over %.1fs: %d burns raised, %d cleared"
          % (frames, horizon, raised, cleared))
    return 0


def _cmd_slo(args):
    """The CI heal drill: outage trips a burn, heal must clear it."""
    from repro.workloads.faults import FaultEvent, FaultPlan, apply_fault_plan

    slos = [_parse_slo(text) for text in (args.slo or DEFAULT_SLOS)]
    args.reliable = True  # the drill needs park + redelivery to heal
    system = _build_health_system(args, slos)
    system.collectors[0].poll_retries = 8
    apply_fault_plan(system, FaultPlan([
        FaultEvent(args.outage_at, FaultEvent.HOST_DOWN, "storage1",
                   clear_after=args.outage_len),
    ]))
    system.assign_goals(system.make_paper_goals(polls_per_type=args.polls))
    total = args.polls * 3
    health = system.health
    deadline = args.duration
    while system.sim.now < deadline:
        system.sim.run(until=system.sim.now + 5.0)
        if _analyzed(system) >= total and not health.active_burns():
            break
    # One settle margin: let trailing acks land and the final burn
    # evaluation tick observe the drained windows.
    system.sim.run(until=system.sim.now + 2 * health.check_interval)
    snapshot = health.snapshot()
    raised = sum(tracker.raised for tracker in health.trackers)
    cleared = sum(tracker.cleared for tracker in health.trackers)
    uncleared = snapshot["active_burns"]
    print("slo heal drill: storage host down at t=%gs for %gs, seed %d"
          % (args.outage_at, args.outage_len, args.seed))
    print("records analyzed: %d/%d   burns raised: %d   cleared: %d"
          % (_analyzed(system), total, raised, cleared))
    for event in snapshot["burn_events"]:
        print("  t=%-8.1f %-6s %s p%g (fast %.2f, slow %.2f)" % (
            event["time"], event["event"], event["stage"], event["p"],
            event["fast_burn"], event["slow_burn"]))
    print(_stage_latency_table(snapshot["stage_latency"]))
    print("scorecards overall: %s" % snapshot["scorecards"]["overall"])
    if args.report:
        payload = dict(snapshot)
        payload["burns_raised"] = raised
        payload["burns_cleared"] = cleared
        payload["records_analyzed"] = _analyzed(system)
        payload["records_expected"] = total
        # Span objects aren't JSON; the report only needs the audit counts.
        pipeline = system.telemetry.pipeline_report()
        payload["pipeline"] = {
            "batches": pipeline["batches"],
            "complete": pipeline["complete"],
            "incomplete": len(pipeline["incomplete"]),
            "orphans": len(pipeline["orphans"]),
            "open": len(pipeline["open"]),
            "dropped": pipeline["dropped"],
        }
        export.dump_json(payload, args.report)
        print("report written to %s" % args.report)
    if not raised:
        print("FAIL: the outage never tripped a burn -- the drill is "
              "vacuous (check the SLO targets against the fault plan)")
        return 1
    if uncleared:
        print("FAIL: %d slo-burn finding(s) still active after the heal: %s"
              % (len(uncleared),
                 ", ".join(burn["stage"] for burn in uncleared)))
        return 1
    print("PASS: every slo-burn raised during the outage cleared after "
          "the heal")
    return 0


#: Per-scenario run horizons: the flash crowd's 20x backlog (360 jobs)
#: takes ~1500s to drain through the shared storage-host pipeline.
_CHAOS_HORIZONS = {"flash_crowd": 2000.0}
_CHAOS_DEFAULT_HORIZON = 400.0


def _build_chaos_system(scenario, seed, analysis_hosts=4):
    """The chaos-matrix topology (same as tests/test_robustness_scenarios):
    one field collector host, N mgmt analysis hosts, storage+interface on
    mgmt, the scenario's spec overrides merged in."""
    from repro.core.system import (
        GridManagementSystem, GridTopologySpec, HostSpec)
    from repro.network.topology import LinkSpec
    from repro.workloads.faults import apply_fault_plan

    spec = GridTopologySpec(
        devices=scenario.devices,
        collector_hosts=[HostSpec("col1", "field")],
        analysis_hosts=[HostSpec("inf%d" % (index + 1), "mgmt")
                        for index in range(analysis_hosts)],
        storage_host=HostSpec("stor", "mgmt"),
        interface_host=HostSpec("iface", "mgmt"),
        seed=seed,
        dataset_threshold=4,
        policy="round-robin",
        job_timeout=40.0,
        wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=0.0),
        **scenario.spec_overrides
    )
    system = GridManagementSystem(spec)
    system.collectors[0].poll_retries = 8
    if scenario.fault_plan is not None:
        apply_fault_plan(system, scenario.fault_plan)
    system.assign_goals(scenario.build_goals(seed=seed))
    return system


def _chaos_tier_violations(system, tier):
    """The invariant-tier ladder as a violation list (empty = upheld)."""
    from repro.workloads.scenarios import (
        INVARIANT_TIERS, TIER_DETECTION_SURVIVES, TIER_HEAL_COMPLETE,
        TIER_NO_SILENT_LOSS)

    violations = []
    shipped = system.collectors[0].records_shipped
    classified = system.classifier.records_classified
    if shipped == 0:
        return ["no records shipped -- the run is vacuous"]
    rank = INVARIANT_TIERS.index(tier)
    if rank < INVARIANT_TIERS.index(TIER_NO_SILENT_LOSS):
        return violations
    channel = system.reliable_channel
    dead = 0
    if channel is not None:
        for letter in channel.dead_letters:
            acl = letter.message.payload
            if getattr(acl, "ontology", None) == "collected-batch":
                dead += len(acl.content["records"])
    if classified + dead < shipped:
        violations.append(
            "silent loss: shipped %d > classified %d + dead-lettered %d"
            % (shipped, classified, dead))
    if rank < INVARIANT_TIERS.index(TIER_HEAL_COMPLETE):
        return violations
    if classified != shipped:
        violations.append("not heal-complete: classified %d != shipped %d"
                          % (classified, shipped))
    if channel is not None:
        if channel.parked_count():
            violations.append("%d envelope(s) still parked"
                              % channel.parked_count())
        if channel.pending_count():
            violations.append("%d envelope(s) still pending"
                              % channel.pending_count())
        if channel.permanently_dead():
            violations.append("%d envelope(s) permanently dead"
                              % len(channel.permanently_dead()))
    if not system.root.datasets:
        violations.append("no datasets reached the root")
    elif not all(state.finished for state in system.root.datasets.values()):
        violations.append("unfinished dataset(s) at the root")
    if rank < INVARIANT_TIERS.index(TIER_DETECTION_SURVIVES):
        return violations
    if system.gossip is None:
        violations.append("tier requires gossip= but no mesh was built")
    elif not system.gossip.detection_times():
        violations.append("gossip never confirmed the root dead -- "
                          "detection did not survive the outage")
    return violations


def _cmd_chaos(args):
    """Run a catalog chaos scenario and gate its invariant tier."""
    from repro.workloads.scenarios import SCENARIO_CATALOG, catalog_scenario

    if args.list:
        for name in sorted(SCENARIO_CATALOG):
            scenario = catalog_scenario(name)
            print("%-16s %-30s %s" % (name, scenario.expected_tier,
                                      scenario.description))
        return 0
    if not args.scenario:
        print("chaos: --scenario NAME is required (--list shows the "
              "catalog)")
        return 2
    try:
        scenario = catalog_scenario(args.scenario)
    except KeyError as error:
        print("chaos: %s" % error.args[0])
        return 2
    horizon = args.horizon if args.horizon is not None else \
        _CHAOS_HORIZONS.get(scenario.name, _CHAOS_DEFAULT_HORIZON)
    system = _build_chaos_system(scenario, args.seed,
                                 analysis_hosts=args.analysis_hosts)
    system.sim.run(until=horizon)

    shipped = system.collectors[0].records_shipped
    classified = system.classifier.records_classified
    rows = [
        ("expected tier", scenario.expected_tier),
        ("records shipped / classified", "%d / %d" % (shipped, classified)),
        ("datasets finished", sum(
            1 for state in system.root.datasets.values() if state.finished)),
        ("reports", len(system.interface.reports)),
        ("containers evicted", system.root.containers_evicted),
        ("jobs re-dispatched", system.root.jobs_redispatched),
    ]
    detection = {}
    stand_ins = []
    if system.gossip is not None:
        detection = system.gossip.detection_times()
        stand_ins = sorted({who for who
                            in system.gossip.stand_ins().values()
                            if who is not None})
        rows.append(("gossip detections", ", ".join(
            "%s@%.1fs" % (name, at)
            for name, at in sorted(detection.items())) or "none"))
        rows.append(("stand-ins elected", ", ".join(stand_ins) or "none"))
    print(format_table(("metric", "value"), rows,
                       title="chaos drill: %s (horizon %gs, seed %d)" % (
                           scenario.name, horizon, args.seed)))
    violations = _chaos_tier_violations(system, scenario.expected_tier)
    if args.report:
        export.dump_json({
            "scenario": scenario.name,
            "description": scenario.description,
            "expected_tier": scenario.expected_tier,
            "horizon": horizon,
            "seed": args.seed,
            "records_shipped": shipped,
            "records_classified": classified,
            "reports": len(system.interface.reports),
            "containers_evicted": system.root.containers_evicted,
            "jobs_redispatched": system.root.jobs_redispatched,
            "gossip_detections": detection,
            "stand_ins": stand_ins,
            "violations": violations,
        }, args.report)
        print("report written to %s" % args.report)
    if violations:
        for violation in violations:
            print("FAIL: %s" % violation)
        return 1
    print("PASS: scenario %r upheld tier %r"
          % (scenario.name, scenario.expected_tier))
    return 0


def _cmd_crossover(args):
    from repro.evaluation.experiments import crossover_experiment
    from repro.workloads.scenarios import crossover_scenarios

    rows = crossover_experiment(
        crossover_scenarios(points=tuple(args.points)), seed=args.seed)
    print(format_table(
        ("req/type", "centralized (s)", "multiagent (s)", "grid (s)",
         "winner"),
        [
            (row["requests_per_type"],
             "%.1f" % row["makespans"]["centralized"],
             "%.1f" % row["makespans"]["multiagent"],
             "%.1f" % row["makespans"]["grid"],
             row["winner"])
            for row in rows
        ],
        title="crossover sweep:",
    ))
    if args.json:
        export.dump_json(rows, args.json)
    return 0


def _cmd_federation(args):
    from repro.core.federation import (
        MESH, FederatedManagementSystem, FederatedTopologySpec, SiteSpec)

    try:
        spec = FederatedTopologySpec(
            sites=[
                SiteSpec.simple("site%d" % (index + 1),
                                device_count=args.devices)
                for index in range(args.sites)
            ],
            mode=args.mode,
            seed=args.seed,
            dataset_threshold=args.devices * 3,
            federation_reliability=args.reliable or args.mode == MESH,
            heartbeat_interval=args.heartbeat,
        )
    except ValueError as error:
        print("federation: %s" % error)
        return 2
    system = FederatedManagementSystem(spec)
    first_devices = sorted(system.devices)[: args.sites]
    for device_name in first_devices:
        system.devices[device_name].inject_fault("cpu_runaway")
    system.assign_site_goals(system.make_site_goals(polls_per_type=args.polls))
    if args.partition:
        from repro.workloads.faults import apply_fault_plan, site_partition_plan

        apply_fault_plan(system, site_partition_plan(
            args.partition, partition_at=args.partition_at,
            heal_after=args.heal_after))
    total = args.sites * args.polls * 3
    completed = system.run_until_records(total, timeout=8000)
    print(system.utilization_report().render())
    kinds = sorted({finding.kind for finding in system.all_findings()})
    print()
    print("completed: %s   records: %d   findings: %s" % (
        completed, system.records_analyzed(), ", ".join(kinds) or "none"))
    forwarding = None
    if args.mode == MESH:
        forwarding = system.forwarding_report()
        print(format_table(
            ("site",) + tuple(sorted(system.sites)),
            [
                (site,) + tuple(
                    states.get(peer, "-") for peer in sorted(system.sites)
                )
                for site, states in sorted(
                    system.link_state_report().items())
            ],
            title="mesh link states:",
        ))
        print("forwarded: %d   delivered: %d   expired: %d   "
              "partitions: %d   heals: %d" % (
                  forwarding["jobs_forwarded"],
                  forwarding["results_delivered"],
                  forwarding["forwards_expired"],
                  forwarding["partitions_declared"],
                  forwarding["heals_declared"],
              ))
    if args.json:
        payload = {
            "mode": args.mode,
            "completed": completed,
            "records": system.records_analyzed(),
            "finding_kinds": kinds,
            "utilization": export.utilization_report_to_dict(
                system.utilization_report()),
        }
        if forwarding is not None:
            payload["forwarding"] = forwarding
            payload["link_states"] = system.link_state_report()
        export.dump_json(payload, args.json)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Agent-grid network management (MIDDLEWARE 2003) "
                    "reproduction experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="print Table 1")
    _add_common(table1)
    table1.set_defaults(handler=_cmd_table1)

    figure6 = subparsers.add_parser(
        "figure6", help="run the three-architecture comparison")
    _add_common(figure6)
    figure6.add_argument("--polls", type=int, default=10,
                         help="requests of each type (default 10)")
    figure6.set_defaults(handler=_cmd_figure6)

    quickstart = subparsers.add_parser(
        "quickstart", help="run the Figure 6(c) grid once")
    _add_common(quickstart)
    quickstart.add_argument("--polls", type=int, default=10)
    quickstart.add_argument(
        "--reliable", action="store_true",
        help="ship over the reliable channel with redelivery enabled "
             "(loss-free runs produce byte-identical output)")
    quickstart.set_defaults(handler=_cmd_quickstart)

    trace = subparsers.add_parser(
        "trace", help="run the Figure 6(c) grid with the flight recorder on")
    _add_common(trace)
    trace.add_argument("--polls", type=int, default=10)
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="write the Chrome-trace/Perfetto timeline here")
    trace.add_argument("--metrics", metavar="PATH", default=None,
                       help="write the labelled metrics snapshot here")
    trace.add_argument("--shards", type=int, default=1,
                       help="classifier/storage shards (>1 turns on the "
                            "consistent-hash sharded lane, and a "
                            "grid=storage source with per-shard record "
                            "counts)")
    trace.add_argument("--reliable", action="store_true",
                       help="route critical sends over the reliable channel")
    trace.add_argument("--stream", metavar="DIR", default=None,
                       help="rotate closed spans to chunked Chrome-trace "
                            "files in DIR (no in-memory capacity ceiling)")
    trace.add_argument("--attribution", action="store_true",
                       help="record a sim-time span per behaviour "
                            "activation (who occupies the timeline)")
    trace.add_argument("--follow", metavar="DIR", default=None,
                       help="skip the run: read a streaming-export "
                            "manifest from DIR and print the span summary "
                            "and pipeline audit from the on-disk chunks")
    trace.add_argument("--slowest", type=int, default=0, metavar="N",
                       help="also print the N worst critical-path chains "
                            "with per-stage attribution")
    trace.set_defaults(handler=_cmd_trace)

    top = subparsers.add_parser(
        "top", help="live health dashboard over a running grid "
                    "(or --follow a streamed trace)")
    _add_common(top)
    top.add_argument("--polls", type=int, default=10)
    top.add_argument("--refresh", type=float, default=5.0,
                     help="simulated seconds per dashboard frame "
                          "(default 5)")
    top.add_argument("--duration", type=float, default=300.0,
                     help="maximum simulated seconds (default 300)")
    top.add_argument("--frames", type=int, default=0,
                     help="stop after N frames (0 = run to completion; "
                          "--follow mode defaults to 8)")
    top.add_argument("--reliable", action="store_true",
                     help="route critical sends over the reliable channel")
    top.add_argument("--shards", type=int, default=1)
    top.add_argument("--slo", action="append", metavar="SPEC",
                     help="latency objective as stage:p:target[:window"
                          "[:fast]] (repeatable; default %s)"
                          % " ".join(DEFAULT_SLOS))
    top.add_argument("--plain", action="store_true",
                     help="frame separators instead of ANSI screen redraw "
                          "(for logs / non-TTY output)")
    top.add_argument("--follow", metavar="DIR", default=None,
                     help="replay a streaming-export directory as "
                          "dashboard frames instead of running a sim")
    top.set_defaults(handler=_cmd_top)

    slo = subparsers.add_parser(
        "slo", help="run the outage/heal SLO drill; exit 1 on any "
                    "un-cleared slo-burn finding")
    _add_common(slo)
    slo.add_argument("--polls", type=int, default=6)
    slo.add_argument("--duration", type=float, default=400.0,
                     help="simulated-time budget (default 400)")
    slo.add_argument("--outage-at", type=float, default=5.0)
    slo.add_argument("--outage-len", type=float, default=30.0)
    slo.add_argument("--slo", action="append", metavar="SPEC",
                     help="latency objective as stage:p:target[:window"
                          "[:fast]] (repeatable; default %s)"
                          % " ".join(DEFAULT_SLOS))
    slo.add_argument("--report", metavar="PATH", default=None,
                     help="write the CI-consumable JSON health report here")
    slo.set_defaults(handler=_cmd_slo)

    chaos = subparsers.add_parser(
        "chaos", help="run a catalog chaos scenario; exit 1 if its "
                      "invariant tier is violated")
    _add_common(chaos)
    chaos.add_argument("--scenario", metavar="NAME", default=None,
                       help="catalog scenario name (see --list)")
    chaos.add_argument("--list", action="store_true",
                       help="print the scenario catalog and exit")
    chaos.add_argument("--horizon", type=float, default=None,
                       help="simulated seconds to run (default: per-"
                            "scenario, %g unless noted)"
                            % _CHAOS_DEFAULT_HORIZON)
    chaos.add_argument("--analysis-hosts", type=int, default=4,
                       help="analysis hosts in the matrix topology "
                            "(default 4)")
    chaos.add_argument("--report", metavar="PATH", default=None,
                       help="write the CI-consumable JSON scenario report "
                            "here")
    chaos.set_defaults(handler=_cmd_chaos)

    crossover = subparsers.add_parser(
        "crossover", help="sweep workload volume across architectures")
    _add_common(crossover)
    crossover.add_argument("--points", type=int, nargs="+",
                           default=[1, 5, 10, 20])
    crossover.set_defaults(handler=_cmd_crossover)

    federation = subparsers.add_parser(
        "federation", help="run a multi-site deployment")
    _add_common(federation)
    federation.add_argument("--mode",
                            choices=("integrated", "siloed", "mesh"),
                            default="integrated")
    federation.add_argument("--sites", type=int, default=2)
    federation.add_argument("--devices", type=int, default=2,
                            help="devices per site")
    federation.add_argument("--polls", type=int, default=4)
    federation.add_argument("--reliable", action="store_true",
                            help="route inter-site traffic over the "
                                 "reliable channel (implied by mesh mode)")
    federation.add_argument("--heartbeat", type=float, default=None,
                            help="inter-site heartbeat interval in seconds "
                                 "(mesh mode; default 1.0)")
    federation.add_argument("--partition", metavar="SITE", default=None,
                            help="partition SITE mid-run (mesh fault drill)")
    federation.add_argument("--partition-at", type=float, default=15.0,
                            help="when the partition starts (default 15)")
    federation.add_argument("--heal-after", type=float, default=25.0,
                            help="partition duration (default 25)")
    federation.set_defaults(handler=_cmd_federation)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
