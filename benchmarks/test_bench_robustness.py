"""X7 -- Robustness: the chaos harness end to end.

A two-site deployment (devices + collector at a field site; storage,
analysis and interface at the management site) runs the paper workload
while the harness injects, mid-run:

* a base 2% WAN loss rate, *bursting* to 5% for 20 simulated seconds;
* a collector **host outage** (down 10s, then reboots) -- in-flight
  reliable envelopes must survive on retransmission;
* an analysis **container kill** -- the heartbeat detector must evict it
  within half the job timeout and re-dispatch its jobs.

Acceptance (ISSUE 3): zero silent record loss -- every record shipped is
either classified or dead-lettered with accounting; every dataset the
classifier published is finalized into a report; heartbeat eviction beats
``job_timeout / 2``.  Metrics land in ``BENCH_robustness.json``.

The flight recorder rides along (ISSUE 4): every shipped batch must leave
a complete causal span chain or terminate in an explicitly-statused
dead-letter/abandoned span -- zero orphans -- and the Chrome-trace
timeline is exported to ``TRACE_robustness.json`` for artifact upload.
"""

import os

from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)
from repro.evaluation.export import bench_to_dict, dump_json, load_json
from repro.evaluation.tables import format_table
from repro.network.topology import LinkSpec
from repro.workloads.faults import (
    FaultEvent,
    FaultPlan,
    apply_fault_plan,
    dead_letter_heal_plan,
    storage_blip_plan,
)

from conftest import RESULTS_DIR, emit

BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_robustness.json")
TRACE_PATH = os.path.join(RESULTS_DIR, "TRACE_robustness.json")


def _merge_bench(metrics, context, prefix=None):
    """Read-modify-write ``BENCH_robustness.json``.

    The X7 scenarios (chaos mix, storage blip, dead-letter heal) each own
    a key prefix and merge into one artifact, so they can run in any
    order -- or alone -- without clobbering each other's metrics.
    """
    if os.path.exists(BENCH_PATH):
        payload = load_json(BENCH_PATH)
    else:
        payload = bench_to_dict("robustness", metrics={})
    stamp = (lambda key: key) if prefix is None \
        else (lambda key: "%s_%s" % (prefix, key))
    payload.setdefault("metrics", {}).update(
        {stamp(key): value for key, value in metrics.items()})
    payload.setdefault("context", {}).update(
        {stamp(key): value for key, value in context.items()})
    dump_json(payload, BENCH_PATH)

BASE_LOSS = 0.02
BURST_LOSS = 0.05
BURST_AT, BURST_LEN = 10.0, 20.0
HOST_DOWN_AT, HOST_DOWN_LEN = 15.0, 10.0
KILL_AT = 35.0
JOB_TIMEOUT = 40.0
HEARTBEAT_INTERVAL = 2.0  # timeout derives to 8s < JOB_TIMEOUT / 2


def _build_system(seed=3, redelivery=False, heartbeat=True):
    reliability = {"ack_timeout": 2.0, "backoff": 2.0, "max_attempts": 6}
    if redelivery:
        reliability.update(redelivery=True, redelivery_interval=2.0,
                           redelivery_max_interval=8.0)
    spec = GridTopologySpec(
        devices=[
            DeviceSpec("dev1", "server", "field"),
            DeviceSpec("dev2", "router", "field"),
            DeviceSpec("dev3", "server", "field"),
        ],
        collector_hosts=[HostSpec("col1", "field")],
        analysis_hosts=[
            HostSpec("inf1", "mgmt", cpu_capacity=0.5),  # slow: holds jobs
            HostSpec("inf2", "mgmt", cpu_capacity=10.0),
        ],
        storage_host=HostSpec("stor", "mgmt"),
        interface_host=HostSpec("iface", "mgmt"),
        seed=seed,
        dataset_threshold=4,
        policy="round-robin",
        job_timeout=JOB_TIMEOUT,
        heartbeat_interval=HEARTBEAT_INTERVAL if heartbeat else None,
        reliability=reliability,
        wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=BASE_LOSS),
        telemetry=True,
    )
    return GridManagementSystem(spec)


def _chaos(system):
    apply_fault_plan(system, FaultPlan([
        FaultEvent(at=BURST_AT, kind="link_loss_burst", target="wan",
                   loss_rate=BURST_LOSS, clear_after=BURST_LEN),
        FaultEvent(at=HOST_DOWN_AT, kind="host_down", target="col1",
                   clear_after=HOST_DOWN_LEN),
        FaultEvent(at=KILL_AT, kind="container_down", target="analysis-1"),
    ]))


def _drained(system):
    """Everything in flight has settled and every dataset is decided."""
    root = system.root
    channel = system.reliable_channel
    return (
        channel.pending_count() == 0
        and channel.parked_count() == 0
        and system.classifier._open_dataset is None
        and root.datasets
        and all(state.finished for state in root.datasets.values())
        and not any(not job.done for job in root.jobs.values())
    )


def _dead_letter_records(channel):
    """Records inside dead-lettered collected-batch envelopes."""
    count = 0
    for dead in channel.dead_letters:
        acl = dead.message.payload
        if getattr(acl, "ontology", None) == "collected-batch":
            count += len(acl.content["records"])
    return count


def run_chaos(seed=3, timeout=2000.0):
    system = _build_system(seed=seed)
    system.collectors[0].poll_retries = 12
    _chaos(system)
    system.assign_goals(system.make_paper_goals(polls_per_type=4))
    while system.sim.now < timeout and not _drained(system):
        system.sim.run(until=system.sim.now + 5.0)
    system.sim.run(until=system.sim.now + 5.0)  # settle trailing acks
    channel = system.reliable_channel
    collector = system.collectors[0]
    evictions = system.root.evictions
    detection_delay = (evictions[0][1] - KILL_AT) if evictions else -1.0
    dead_records = _dead_letter_records(channel)
    pipeline = system.telemetry.pipeline_report()
    return {
        "pipeline": pipeline,
        "chrome_trace": system.telemetry.chrome_trace(),
        "span_count": len(system.telemetry.recorder),
        "spans_dropped": system.telemetry.recorder.dropped,
        "drained": _drained(system),
        "makespan": max(
            (r.generated_at for r in system.interface.reports), default=0.0),
        "records_shipped": collector.records_shipped,
        "records_classified": system.classifier.records_classified,
        "dead_letter_records": dead_records,
        "silent_loss": max(
            0, collector.records_shipped
            - system.classifier.records_classified - dead_records),
        "polls_failed": collector.polls_failed,
        "poll_retries_used": collector.poll_retries_used,
        "datasets_published": system.classifier.datasets_published,
        "datasets_finalized": sum(
            1 for state in system.root.datasets.values() if state.finished),
        "reports": len(system.interface.reports),
        "records_reported": sum(
            r.records_analyzed for r in system.interface.reports),
        "containers_evicted": system.root.containers_evicted,
        "detection_delay": detection_delay,
        "jobs_redispatched": system.root.jobs_redispatched,
        "retransmits": channel.retransmits,
        "dup_drops": channel.dup_drops,
        "acked": channel.messages_acked,
        "mean_ack_latency": channel.mean_latency(),
        "dead_letters": len(channel.dead_letters),
    }


def test_chaos_harness(once):
    result = once(run_chaos)
    emit("robustness_chaos", format_table(
        ("metric", "value"),
        [
            ("drained", result["drained"]),
            ("records shipped", result["records_shipped"]),
            ("records classified", result["records_classified"]),
            ("dead-lettered records", result["dead_letter_records"]),
            ("silent loss", result["silent_loss"]),
            ("datasets published / finalized", "%d / %d" % (
                result["datasets_published"], result["datasets_finalized"])),
            ("reports", result["reports"]),
            ("containers evicted", result["containers_evicted"]),
            ("detection delay (s)", "%.1f" % result["detection_delay"]),
            ("jobs re-dispatched", result["jobs_redispatched"]),
            ("retransmits", result["retransmits"]),
            ("duplicate drops", result["dup_drops"]),
            ("mean ack latency (s)", "%.2f" % result["mean_ack_latency"]),
            ("makespan (s)", "%.1f" % result["makespan"]),
            ("trace chains complete / shipped", "%d / %d" % (
                result["pipeline"]["complete"],
                result["pipeline"]["batches"])),
            ("trace orphan spans", len(result["pipeline"]["orphans"])),
        ],
        title="X7: chaos run (%.0f%% WAN loss burst, host outage, "
              "container kill)" % (BURST_LOSS * 100),
    ))
    # -- the run actually finished under chaos ---------------------------
    assert result["drained"]
    assert result["records_shipped"] > 0
    # -- zero SILENT loss: every shipped record is accounted for ---------
    assert result["silent_loss"] == 0
    # -- every published dataset was finalized into a report -------------
    assert result["datasets_finalized"] == result["datasets_published"]
    assert result["reports"] >= 1
    # -- heartbeat eviction beat the Reaper ------------------------------
    assert result["containers_evicted"] == 1
    assert 0 < result["detection_delay"] < JOB_TIMEOUT / 2
    # -- the chaos was real: loss forced the channel to work -------------
    assert result["retransmits"] > 0
    assert result["acked"] > 0
    # -- flight recorder: every shipped batch's causal chain is either
    #    complete or terminates in an explicit dead-letter/abandoned span,
    #    and no span dangles from an unrecorded parent ------------------
    pipeline = result["pipeline"]
    assert result["spans_dropped"] == 0
    assert pipeline["batches"] > 0
    assert pipeline["incomplete"] == []
    assert pipeline["orphans"] == []
    assert pipeline["open"] == []
    assert pipeline["complete"] == pipeline["batches"]
    # -- the exported timeline is valid Chrome Trace Event Format --------
    trace = result["chrome_trace"]
    assert trace["traceEvents"]
    assert all(event["ph"] in ("X", "M") for event in trace["traceEvents"])
    dump_json(trace, TRACE_PATH)
    assert os.path.exists(TRACE_PATH)
    _merge_bench(
        metrics={
            "records_shipped": result["records_shipped"],
            "records_classified": result["records_classified"],
            "dead_letter_records": result["dead_letter_records"],
            "silent_loss": result["silent_loss"],
            "detection_delay": result["detection_delay"],
            "jobs_redispatched": result["jobs_redispatched"],
            "retransmits": result["retransmits"],
            "dup_drops": result["dup_drops"],
            "mean_ack_latency": result["mean_ack_latency"],
            "makespan": result["makespan"],
            "trace_batches": result["pipeline"]["batches"],
            "trace_chains_complete": result["pipeline"]["complete"],
            "trace_orphan_spans": len(result["pipeline"]["orphans"]),
            "trace_spans": result["span_count"],
        },
        context={
            "seed": 3,
            "base_loss": BASE_LOSS,
            "burst_loss": BURST_LOSS,
            "burst_window": [BURST_AT, BURST_AT + BURST_LEN],
            "collector_outage": [HOST_DOWN_AT, HOST_DOWN_AT + HOST_DOWN_LEN],
            "kill_at": KILL_AT,
            "job_timeout": JOB_TIMEOUT,
            "heartbeat_interval": HEARTBEAT_INTERVAL,
        },
    )
    assert os.path.exists(BENCH_PATH)


# -- self-healing scenarios (ISSUE 5) -----------------------------------------

def _run_until_drained(system, timeout=2000.0):
    while system.sim.now < timeout and not _drained(system):
        system.sim.run(until=system.sim.now + 5.0)
    system.sim.run(until=system.sim.now + 5.0)  # settle trailing acks


def run_storage_blip(seed=5, timeout=2000.0):
    """A storage-host blip inside the analyzer fetch window.

    The blip knocks out the storage/classifier/root host for a few
    seconds right as the first analysis jobs fetch their clusters; the
    bounded fetch retries (derived from the spec) must land the data on a
    later attempt instead of feeding the rule engine 0 records.
    """
    # Heartbeats off: the blip downs the *root's* host, and 12s of
    # undeliverable beacons would read as container death -- eviction is
    # the chaos-mix test's subject, not this one's.
    system = _build_system(seed=seed, redelivery=True, heartbeat=False)
    system.collectors[0].poll_retries = 12
    # Arm the blip off the first fetch itself: classifier and root share
    # the storage host, so a clock-scheduled outage stalls *dispatch* and
    # the fetch would simply start after the heal.  Triggered 0.05s in,
    # the host is down before the QUERY_REF finishes its ~0.1s wire trip,
    # and the outage outlasts one fetch-attempt patience window (~10s),
    # so the reliable channel's retransmissions alone cannot hide it from
    # the retry ladder.
    blip = {"at": None}

    def arm_blip():
        if blip["at"] is None:
            blip["at"] = system.sim.now + 0.05
            # Applied mid-run, fault times are relative to now.
            apply_fault_plan(system, storage_blip_plan(
                "stor", blip_at=0.05, blip_duration=12.0))

    def triggering_fetch(original):
        def fetch(*args, **kwargs):
            arm_blip()
            result = yield from original(*args, **kwargs)
            return result
        return fetch

    for analyzer in system.analyzers:
        analyzer._fetch = triggering_fetch(analyzer._fetch)
    system.assign_goals(system.make_paper_goals(polls_per_type=4))
    _run_until_drained(system, timeout)
    channel = system.reliable_channel
    collector = system.collectors[0]
    return {
        "drained": _drained(system),
        "records_shipped": collector.records_shipped,
        "records_classified": system.classifier.records_classified,
        "records_reported": sum(
            r.records_analyzed for r in system.interface.reports),
        "fetch_attempts": sum(a.fetch_attempts for a in system.analyzers),
        "fetch_retries_used": sum(
            a.fetch_retries_used for a in system.analyzers),
        "fetch_failures": sum(a.fetch_failures for a in system.analyzers),
        "zero_record_jobs": sum(
            1 for a in system.analyzers
            if a.jobs_completed and not a.records_analyzed
        ),
        "permanently_dead": len(channel.permanently_dead()),
        "redelivered": channel.redelivered,
        "reports": len(system.interface.reports),
        "pipeline": system.telemetry.pipeline_report(),
    }


def test_storage_blip_during_fetch(once):
    result = once(run_storage_blip)
    emit("robustness_storage_blip", format_table(
        ("metric", "value"),
        [
            ("drained", result["drained"]),
            ("records shipped / classified / reported", "%d / %d / %d" % (
                result["records_shipped"], result["records_classified"],
                result["records_reported"])),
            ("fetch attempts / retries used", "%d / %d" % (
                result["fetch_attempts"], result["fetch_retries_used"])),
            ("fetch failures", result["fetch_failures"]),
            ("zero-record jobs", result["zero_record_jobs"]),
            ("reports", result["reports"]),
        ],
        title="X7b: storage blip inside the fetch window",
    ))
    assert result["drained"]
    assert result["records_shipped"] > 0
    # Heal-complete: the blip healed, so nothing is permanently lost and
    # the strong invariant holds exactly.
    assert result["records_classified"] == result["records_shipped"]
    assert result["permanently_dead"] == 0
    # The blip was real -- fetches needed the retry ladder -- yet no fetch
    # exhausted it: zero 0-record analysis jobs.
    assert result["fetch_retries_used"] > 0
    assert result["fetch_failures"] == 0
    assert result["zero_record_jobs"] == 0
    # Every classified record made it into a report.
    assert result["records_reported"] == result["records_classified"]
    pipeline = result["pipeline"]
    assert pipeline["incomplete"] == []
    assert pipeline["orphans"] == []
    assert pipeline["complete"] == pipeline["batches"]
    _merge_bench(
        prefix="storage_blip",
        metrics={
            "records_shipped": result["records_shipped"],
            "records_classified": result["records_classified"],
            "records_reported": result["records_reported"],
            "fetch_retries_used": result["fetch_retries_used"],
            "fetch_failures": result["fetch_failures"],
            "zero_record_jobs": result["zero_record_jobs"],
            "permanently_dead": result["permanently_dead"],
        },
        context={"seed": 5, "blip_trigger": "first-fetch + 0.05s",
                 "blip_duration": 12.0},
    )


def run_dead_letter_heal(seed=7, timeout=2000.0):
    """Ship-path outage long enough to dead-letter, then a heal.

    The storage host (classifier side of the collector ship path) goes
    down for 30s while the sender's retransmission ladder only lasts
    ~15s: envelopes exhaust ``max_attempts`` and dead-letter mid-outage.
    Only the redelivery scheduler -- parked streams + heal probe -- can
    carry them across; afterwards `classified == shipped` must hold
    exactly and every trace chain must be complete, not terminal.
    """
    spec = GridTopologySpec(
        devices=[
            DeviceSpec("dev1", "server", "field"),
            DeviceSpec("dev2", "router", "field"),
            DeviceSpec("dev3", "server", "field"),
        ],
        collector_hosts=[HostSpec("col1", "field")],
        analysis_hosts=[HostSpec("inf1", "mgmt"), HostSpec("inf2", "mgmt")],
        storage_host=HostSpec("stor", "mgmt"),
        interface_host=HostSpec("iface", "mgmt"),
        seed=seed,
        dataset_threshold=4,
        policy="round-robin",
        job_timeout=JOB_TIMEOUT,
        # Heartbeats off: the outage downs the root's host, and eviction
        # noise is not this scenario's subject.
        heartbeat_interval=None,
        reliability={
            # A short ladder (~15s) so the 30s outage defeats plain
            # retransmission and forces the redelivery path.
            "ack_timeout": 1.0, "backoff": 2.0, "max_attempts": 4,
            "redelivery": True, "redelivery_interval": 2.0,
            "redelivery_max_interval": 8.0,
        },
        wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=BASE_LOSS),
        telemetry=True,
    )
    system = GridManagementSystem(spec)
    system.collectors[0].poll_retries = 12
    apply_fault_plan(system, dead_letter_heal_plan(
        "stor", down_at=10.0, down_duration=30.0))
    system.assign_goals(system.make_paper_goals(polls_per_type=4))
    _run_until_drained(system, timeout)
    channel = system.reliable_channel
    collector = system.collectors[0]
    recorder = system.telemetry.recorder
    ships = recorder.find(name="ship")
    return {
        "drained": _drained(system),
        "records_shipped": collector.records_shipped,
        "records_classified": system.classifier.records_classified,
        "dead_letters": len(channel.dead_letters),
        "redelivered": channel.redelivered,
        "redelivery_gave_up": channel.redelivery_gave_up,
        "permanently_dead": len(channel.permanently_dead()),
        "heal_probes": channel.heal_probes,
        "parked": channel.parked_count(),
        "terminal_ship_spans": sum(
            1 for span in ships if span.status == "dead-letter"),
        "redeliver_spans": len(recorder.find(name="redeliver")),
        "reports": len(system.interface.reports),
        "pipeline": system.telemetry.pipeline_report(),
    }


def test_dead_letter_then_heal(once):
    result = once(run_dead_letter_heal)
    emit("robustness_dead_letter_heal", format_table(
        ("metric", "value"),
        [
            ("drained", result["drained"]),
            ("records shipped / classified", "%d / %d" % (
                result["records_shipped"], result["records_classified"])),
            ("dead letters / redelivered / gave up", "%d / %d / %d" % (
                result["dead_letters"], result["redelivered"],
                result["redelivery_gave_up"])),
            ("permanently dead", result["permanently_dead"]),
            ("heal probes", result["heal_probes"]),
            ("redeliver spans", result["redeliver_spans"]),
            ("terminal ship spans", result["terminal_ship_spans"]),
            ("reports", result["reports"]),
        ],
        title="X7c: dead-letter then heal (30s outage vs ~15s ladder)",
    ))
    assert result["drained"]
    assert result["records_shipped"] > 0
    # The outage was long enough to defeat retransmission alone...
    assert result["dead_letters"] > 0
    # ...and the redelivery scheduler carried every parked envelope across.
    assert result["redelivered"] > 0
    assert result["redelivery_gave_up"] == 0
    assert result["permanently_dead"] == 0
    assert result["parked"] == 0
    # Heal-complete invariant: exact equality, not just no-silent-loss.
    assert result["records_classified"] == result["records_shipped"]
    # Telemetry: redelivered chains re-open and complete -- no ship span
    # terminates in a dead-letter status.
    assert result["terminal_ship_spans"] == 0
    assert result["redeliver_spans"] > 0
    pipeline = result["pipeline"]
    assert pipeline["incomplete"] == []
    assert pipeline["orphans"] == []
    assert pipeline["complete"] == pipeline["batches"]
    _merge_bench(
        prefix="dead_letter_heal",
        metrics={
            "records_shipped": result["records_shipped"],
            "records_classified": result["records_classified"],
            "dead_letters": result["dead_letters"],
            "redelivered": result["redelivered"],
            "redelivery_gave_up": result["redelivery_gave_up"],
            "permanently_dead": result["permanently_dead"],
            "heal_probes": result["heal_probes"],
            "redeliver_spans": result["redeliver_spans"],
        },
        context={"seed": 7, "down_at": 10.0, "down_duration": 30.0},
    )


# -- federation mesh partition/heal (ISSUE 8) ---------------------------------

MESH_SITES = 4
MESH_HEARTBEAT = 1.0
MESH_TIMEOUT = 4.0 * MESH_HEARTBEAT
PARTITION_AT = 15.0
PARTITION_LEN = 25.0  # > the ~15s ladder: redelivery must drain the rest


def run_mesh_partition(seed=9, timeout=2000.0):
    """A 4-site mesh loses one site mid-run, then heals.

    Site1 carries triple workload so its processor grid saturates and
    forwards jobs across the mesh while the partition is live.  The mesh
    must: detect the cut within its heartbeat timeout at every surviving
    site, degrade site4's devices to offline, keep forwarding around the
    hole (never into it), and -- after the heal -- drain to
    ``classified == shipped`` with every forwarded job completing exactly
    once and every trace chain complete or explicitly terminal.
    """
    from repro.core.federation import (
        MESH, FederatedManagementSystem, FederatedTopologySpec, SiteSpec)
    from repro.workloads.faults import site_partition_plan

    spec = FederatedTopologySpec(
        sites=[
            SiteSpec.simple("site%d" % (index + 1), device_count=2,
                            analyzer_count=1)
            for index in range(MESH_SITES)
        ],
        mode=MESH,
        seed=seed,
        dataset_threshold=6,
        job_timeout=JOB_TIMEOUT,
        heartbeat_interval=MESH_HEARTBEAT,
        forward_threshold=1,
        federation_reliability={
            # ~15s ladder, defeated by the 25s partition: parked streams
            # and the partition-aware heal probe must close the gap.
            "ack_timeout": 1.0, "backoff": 2.0, "max_attempts": 4,
            "redelivery": True, "redelivery_interval": 2.0,
            "redelivery_max_interval": 8.0,
        },
        wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=BASE_LOSS),
        telemetry=True,
    )
    system = FederatedManagementSystem(spec)
    apply_fault_plan(system, site_partition_plan(
        "site4", partition_at=PARTITION_AT, heal_after=PARTITION_LEN))
    goals = system.make_site_goals(polls_per_type=4)
    goals["site1"] = goals["site1"] * 3  # saturate site1 -> forwarding
    system.assign_site_goals(goals)

    def drained():
        channel = system.reliable_channel
        return (
            channel.pending_count() == 0
            and channel.parked_count() == 0
            and all(r.classifier._open_dataset is None
                    for r in system.sites.values())
            and all(r.root.datasets for r in system.sites.values())
            and all(state.finished
                    for r in system.sites.values()
                    for state in r.root.datasets.values())
        )

    while system.sim.now < timeout and not drained():
        system.sim.run(until=system.sim.now + 5.0)
    system.sim.run(until=system.sim.now + 5.0)  # settle trailing acks
    channel = system.reliable_channel
    observers = [
        runtime.gateway for name, runtime in sorted(system.sites.items())
        if name != "site4"
    ]
    detection_delay = max(
        at for gateway in observers
        for peer, at in gateway.partitions if peer == "site4"
    ) - PARTITION_AT
    forwarding = system.forwarding_report()
    dead_records = _dead_letter_records(channel)
    return {
        "drained": drained(),
        "records_shipped": system.records_shipped(),
        "records_classified": system.records_classified(),
        "dead_letter_records": dead_records,
        "silent_loss": max(
            0, system.records_shipped() - system.records_classified()
            - dead_records),
        "detection_delay": detection_delay,
        "observers_detected": sum(
            1 for gateway in observers
            if any(peer == "site4" for peer, _ in gateway.partitions)),
        "healed": all(
            state == "up"
            for states in system.link_state_report().values()
            for state in states.values()),
        "jobs_forwarded": forwarding["jobs_forwarded"],
        "results_delivered": forwarding["results_delivered"],
        "forwards_expired": forwarding["forwards_expired"],
        "duplicate_results": forwarding["duplicate_results"],
        "jobs_accepted": forwarding["jobs_accepted"],
        "results_returned": forwarding["results_returned"],
        "partitions_declared": forwarding["partitions_declared"],
        "heals_declared": forwarding["heals_declared"],
        "permanently_dead": len(channel.permanently_dead()),
        "redelivered": channel.redelivered,
        "retransmits": channel.retransmits,
        "makespan": max(
            (report.generated_at
             for interface in system.interfaces()
             for report in interface.reports), default=0.0),
        "pipeline": system.telemetry.pipeline_report(),
        "span_count": len(system.telemetry.recorder),
    }


def test_mesh_partition_heal(once):
    result = once(run_mesh_partition)
    emit("robustness_mesh_partition", format_table(
        ("metric", "value"),
        [
            ("drained", result["drained"]),
            ("records shipped / classified", "%d / %d" % (
                result["records_shipped"], result["records_classified"])),
            ("silent loss", result["silent_loss"]),
            ("detection delay (s)", "%.2f" % result["detection_delay"]),
            ("observers detecting", "%d / %d" % (
                result["observers_detected"], MESH_SITES - 1)),
            ("healed", result["healed"]),
            ("jobs forwarded / delivered / expired", "%d / %d / %d" % (
                result["jobs_forwarded"], result["results_delivered"],
                result["forwards_expired"])),
            ("duplicate results", result["duplicate_results"]),
            ("partitions / heals declared", "%d / %d" % (
                result["partitions_declared"], result["heals_declared"])),
            ("redelivered", result["redelivered"]),
            ("makespan (s)", "%.1f" % result["makespan"]),
            ("trace chains complete / shipped", "%d / %d" % (
                result["pipeline"]["complete"],
                result["pipeline"]["batches"])),
        ],
        title="X8: 4-site mesh, site4 partitioned %gs..%gs" % (
            PARTITION_AT, PARTITION_AT + PARTITION_LEN),
    ))
    assert result["drained"]
    assert result["records_shipped"] > 0
    # -- no silent loss globally; the heal drains to exact completeness --
    assert result["silent_loss"] == 0
    assert result["records_classified"] == result["records_shipped"]
    assert result["permanently_dead"] == 0
    # -- every surviving site detected the cut within the timeout --------
    assert result["observers_detected"] == MESH_SITES - 1
    assert 0 < result["detection_delay"] <= MESH_TIMEOUT
    assert result["healed"]
    # -- the saturation really crossed the boundary, exactly once --------
    assert result["jobs_forwarded"] > 0
    assert result["results_delivered"] + result["forwards_expired"] == \
        result["jobs_forwarded"]
    assert result["jobs_accepted"] == result["results_returned"]
    # -- cross-site trace chains audit complete or explicitly terminal ---
    pipeline = result["pipeline"]
    assert pipeline["orphans"] == []
    assert pipeline["incomplete"] == []
    assert pipeline["complete"] == pipeline["batches"]
    _merge_bench(
        prefix="mesh_partition",
        metrics={
            "records_shipped": result["records_shipped"],
            "records_classified": result["records_classified"],
            "silent_loss": result["silent_loss"],
            "detection_delay": result["detection_delay"],
            # floor-gated in CI at 0: detection must beat the timeout
            "detection_margin": MESH_TIMEOUT - result["detection_delay"],
            "jobs_forwarded": result["jobs_forwarded"],
            "results_delivered": result["results_delivered"],
            "forwards_expired": result["forwards_expired"],
            "duplicate_results": result["duplicate_results"],
            "partitions_declared": result["partitions_declared"],
            "heals_declared": result["heals_declared"],
            "permanently_dead": result["permanently_dead"],
            "redelivered": result["redelivered"],
            "makespan": result["makespan"],
            "trace_batches": result["pipeline"]["batches"],
            "trace_chains_complete": result["pipeline"]["complete"],
            "trace_orphan_spans": len(result["pipeline"]["orphans"]),
        },
        context={
            "seed": 9,
            "sites": MESH_SITES,
            "heartbeat_interval": MESH_HEARTBEAT,
            "heartbeat_timeout": MESH_TIMEOUT,
            "partition_window": [PARTITION_AT, PARTITION_AT + PARTITION_LEN],
            "base_loss": BASE_LOSS,
        },
    )


# -- SLO burn-rate drill (ISSUE 9) --------------------------------------------

SLO_OUTAGE_AT = 2.0
SLO_OUTAGE_LEN = 30.0
SLO_TARGET = 10.0  # healthy ship p90 sits well under this; outage blows it


def run_slo_burn(seed=11, timeout=2000.0):
    """The X7 storage outage, observed by the health layer.

    A separate cell rather than a rider on ``run_chaos``: the monitor's
    management-report traffic consumes reliable-channel loss draws, which
    would silently shift the gated chaos metrics.  The contract under
    test: the ship-stage burn trips *during* the outage (dead-letter
    statuses count against the budget immediately, before any latency is
    even measurable) and clears after the heal -- and both edges arrive
    at the interface grid as findings over the ordinary alert path.
    """
    from repro.core.health import SLOSpec

    spec = GridTopologySpec(
        devices=[
            DeviceSpec("dev1", "server", "field"),
            DeviceSpec("dev2", "router", "field"),
            DeviceSpec("dev3", "server", "field"),
        ],
        collector_hosts=[HostSpec("col1", "field")],
        analysis_hosts=[HostSpec("inf1", "mgmt"), HostSpec("inf2", "mgmt")],
        storage_host=HostSpec("stor", "mgmt"),
        interface_host=HostSpec("iface", "mgmt"),
        seed=seed,
        dataset_threshold=4,
        policy="round-robin",
        job_timeout=JOB_TIMEOUT,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        reliability={
            # ~15s ladder, defeated by the 30s outage: dead-letters feed
            # the burn windows while redelivery heals the data path.
            "ack_timeout": 1.0, "backoff": 2.0, "max_attempts": 4,
            "redelivery": True, "redelivery_interval": 2.0,
            "redelivery_max_interval": 8.0,
        },
        wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=0.0),
        slos=[SLOSpec("ship", p=90.0, target=SLO_TARGET, window=120.0,
                      fast_window=30.0)],
    )
    system = GridManagementSystem(spec)
    system.collectors[0].poll_retries = 8
    apply_fault_plan(system, FaultPlan([
        FaultEvent(SLO_OUTAGE_AT, FaultEvent.HOST_DOWN, "stor",
                   clear_after=SLO_OUTAGE_LEN),
    ]))
    system.assign_goals(system.make_paper_goals(polls_per_type=4))
    while system.sim.now < timeout and not (
            _drained(system) and not system.health.active_burns()):
        system.sim.run(until=system.sim.now + 5.0)
    system.sim.run(until=system.sim.now + 5.0)  # settle trailing acks
    tracker = system.health.trackers[0]
    raises = [at for at, event, _, _ in tracker.events if event == "raise"]
    clears = [at for at, event, _, _ in tracker.events if event == "clear"]
    interface = system.interface
    return {
        "drained": _drained(system),
        "records_shipped": system.collectors[0].records_shipped,
        "records_classified": system.classifier.records_classified,
        "burns_raised": tracker.raised,
        "burns_cleared": tracker.cleared,
        "burning_at_end": len(system.health.active_burns()),
        "first_raise_at": raises[0] if raises else -1.0,
        "last_clear_at": clears[-1] if clears else -1.0,
        "peak_fast_burn": max(
            (fast for _, event, fast, _ in tracker.events
             if event == "raise"), default=0.0),
        "findings_shipped": system.health.findings_shipped,
        "burn_alerts": sum(1 for alert in interface.alerts
                           if alert.finding.kind == "slo-burn"),
        "clear_findings": sum(
            1 for report in interface.reports
            for finding in report.findings
            if finding.kind == "slo-burn-clear"),
        "overall_state": system.health.scorecards()["overall"],
        "ship_p99": system.health.stage_latency()["ship"]["p99"],
    }


def _catalog_system(scenario, analysis_hosts=2, seed=11, slos=None):
    """Build + faultify a catalog scenario on the chaos-matrix topology.

    Mirrors ``tests/test_robustness_scenarios.py``: the scenario is
    declarative -- ``spec_overrides`` configure the spec, ``fault_plan``
    schedules the failures, ``build_goals`` shapes the workload.
    """
    from repro.core.system import GridTopologySpec

    extra = {} if slos is None else {"slos": slos}
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
        job_timeout=JOB_TIMEOUT,
        wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=0.0),
        **scenario.spec_overrides,
        **extra
    )
    system = GridManagementSystem(spec)
    system.collectors[0].poll_retries = 8
    if scenario.fault_plan is not None:
        apply_fault_plan(system, scenario.fault_plan)
    system.assign_goals(scenario.build_goals(seed=seed))
    return system


# -- scenario catalog: split-brain gossip (ISSUE 10) --------------------------

SPLIT_BRAIN_AT = 15.0
SPLIT_BRAIN_HEAL = 30.0


def run_split_brain(timeout=2000.0):
    """The catalog's ``split_brain`` scenario, gossip detection gated.

    The root's host plus half the analyzer hosts become an island; the
    severed analyzers' gossip views must confirm the root dead within
    the root's heartbeat timeout (``detection_margin >= 0``, floor-gated
    in CI), elect a stand-in, and the run must still drain heal-complete
    after the island dissolves.
    """
    from repro.workloads.scenarios import split_brain_scenario

    scenario = split_brain_scenario(
        island_hosts=("stor", "inf1", "inf2"),
        partition_at=SPLIT_BRAIN_AT, heal_after=SPLIT_BRAIN_HEAL)
    system = _catalog_system(scenario, analysis_hosts=4)
    # run well past the heal so refutation + flush traffic settles
    system.sim.run(until=SPLIT_BRAIN_AT + SPLIT_BRAIN_HEAL + 30.0)
    _run_until_drained(system, timeout)
    mesh = system.gossip
    detection = mesh.detection_times()
    severed = ("analyzer-3", "analyzer-4")
    delays = [detection[name] - SPLIT_BRAIN_AT
              for name in severed if name in detection]
    detection_delay = max(delays) if len(delays) == len(severed) else -1.0
    recoveries = mesh.recovery_times()
    stats = mesh.stats()
    channel = system.reliable_channel
    timeout = system.root.heartbeat_timeout
    return {
        "drained": _drained(system),
        "records_shipped": system.collectors[0].records_shipped,
        "records_classified": system.classifier.records_classified,
        "silent_loss": max(
            0, system.collectors[0].records_shipped
            - system.classifier.records_classified
            - _dead_letter_records(channel)),
        "observers_detected": len(delays),
        "detection_delay": detection_delay,
        "heartbeat_timeout": timeout,
        "detection_margin": timeout - detection_delay,
        "recovered_views": sum(
            1 for name in severed if name in recoveries),
        "stand_ins": sorted(
            {who for who in mesh.stand_ins().values() if who is not None}),
        "rounds": stats["rounds"],
        "suspects_raised": stats["suspects_raised"],
        "confirms": stats["confirms"],
        "refutations": stats["refutations"],
        "root_duplicate_results": system.root.duplicate_results,
        "containers_evicted": system.root.containers_evicted,
        "reports": len(system.interface.reports),
    }


def test_split_brain_scenario(once):
    result = once(run_split_brain)
    emit("robustness_split_brain", format_table(
        ("metric", "value"),
        [
            ("drained", result["drained"]),
            ("records shipped / classified", "%d / %d" % (
                result["records_shipped"], result["records_classified"])),
            ("silent loss", result["silent_loss"]),
            ("severed observers detecting", "%d / 2" %
             result["observers_detected"]),
            ("detection delay (s)", "%.2f" % result["detection_delay"]),
            ("detection margin (s)", "%.2f" % result["detection_margin"]),
            ("views recovered after heal", result["recovered_views"]),
            ("stand-ins elected", ", ".join(result["stand_ins"]) or "none"),
            ("gossip rounds", result["rounds"]),
            ("suspects / confirms / refutations", "%d / %d / %d" % (
                result["suspects_raised"], result["confirms"],
                result["refutations"])),
            ("root duplicate results", result["root_duplicate_results"]),
            ("reports", result["reports"]),
        ],
        title="X10a: split brain (island %gs..%gs, gossip detection)" % (
            SPLIT_BRAIN_AT, SPLIT_BRAIN_AT + SPLIT_BRAIN_HEAL),
    ))
    assert result["drained"]
    assert result["records_shipped"] > 0
    # Heal-complete after the island dissolves.
    assert result["silent_loss"] == 0
    assert result["records_classified"] == result["records_shipped"]
    # Detection survived the root outage: both severed analyzers
    # confirmed the root inside the heartbeat timeout...
    assert result["observers_detected"] == 2
    assert 0.0 < result["detection_delay"] <= result["heartbeat_timeout"]
    assert result["detection_margin"] >= 0.0  # the CI floor
    # ...elected a stand-in, and reconciled on heal.
    assert result["stand_ins"]
    assert result["recovered_views"] == 2
    assert result["reports"] >= 1
    _merge_bench(
        prefix="split_brain",
        metrics={
            "records_shipped": result["records_shipped"],
            "records_classified": result["records_classified"],
            "silent_loss": result["silent_loss"],
            "detection_delay": result["detection_delay"],
            # floor-gated in CI at 0: gossip must beat the timeout
            "detection_margin": result["detection_margin"],
            "observers_detected": result["observers_detected"],
            "recovered_views": result["recovered_views"],
            "gossip_rounds": result["rounds"],
            "suspects_raised": result["suspects_raised"],
            "confirms": result["confirms"],
            "refutations": result["refutations"],
            "root_duplicate_results": result["root_duplicate_results"],
        },
        context={
            "seed": 11,
            "island": ["stor", "inf1", "inf2"],
            "partition_window": [SPLIT_BRAIN_AT,
                                 SPLIT_BRAIN_AT + SPLIT_BRAIN_HEAL],
            "heartbeat_timeout": result["heartbeat_timeout"],
            "stand_ins": result["stand_ins"],
        },
    )


# -- scenario catalog: flash crowd (ISSUE 10) ---------------------------------

FLASH_MULTIPLIER = 10.0
FLASH_DAY = 60.0
# Fixed horizon, as in the matrix cell: the crowd's backlog drains through
# the shared storage-host pipeline by ~600s; the drain check cannot be used
# mid-day because queued collector goals are invisible to it.
FLASH_HORIZON = 800.0


def _flash_system(spiked, seed=11):
    from repro.core.health import SLOSpec
    from repro.workloads.scenarios import TrafficShape, flash_crowd_scenario

    scenario = flash_crowd_scenario(
        spike_multiplier=FLASH_MULTIPLIER, requests_per_type=4,
        day_length=FLASH_DAY, spike_start=0.4, spike_length=0.1)
    if not spiked:
        # the unspiked diurnal curve: same day, no crowd
        scenario.traffic = TrafficShape(day_length=FLASH_DAY)
    # An inert SLO (never trips) attaches the health layer, whose
    # streaming histograms give us the ship-stage p99.
    return _catalog_system(
        scenario, analysis_hosts=2, seed=seed,
        slos=[SLOSpec("ship", p=99.0, target=1000.0, window=120.0)])


def run_flash_crowd():
    """The catalog's ``flash_crowd`` scenario vs its unspiked baseline.

    Same topology, same seed, same diurnal day -- one run absorbs a
    ``FLASH_MULTIPLIER``x crowd inside 10% of the day.  Both must drain
    heal-complete (overload may *delay* records, never lose them) and
    the crowd's ship-stage p99 degradation is recorded as
    ``flash_crowd_p99_ratio`` and ceiling-gated in CI.
    """
    results = {}
    for label, spiked in (("baseline", False), ("spiked", True)):
        system = _flash_system(spiked)
        system.sim.run(until=FLASH_HORIZON)
        results[label] = {
            "drained": _drained(system),
            "records_shipped": system.collectors[0].records_shipped,
            "records_classified": system.classifier.records_classified,
            "ship_p99": system.health.stage_latency()["ship"]["p99"],
            "makespan": max(
                (r.generated_at for r in system.interface.reports),
                default=0.0),
        }
    baseline, spiked = results["baseline"], results["spiked"]
    return {
        "baseline": baseline,
        "spiked": spiked,
        "p99_ratio": (spiked["ship_p99"] / baseline["ship_p99"]
                      if baseline["ship_p99"] > 0 else -1.0),
    }


def test_flash_crowd_scenario(once):
    result = once(run_flash_crowd)
    baseline, spiked = result["baseline"], result["spiked"]
    emit("robustness_flash_crowd", format_table(
        ("metric", "baseline", "%gx crowd" % FLASH_MULTIPLIER),
        [
            ("drained", baseline["drained"], spiked["drained"]),
            ("records shipped", baseline["records_shipped"],
             spiked["records_shipped"]),
            ("records classified", baseline["records_classified"],
             spiked["records_classified"]),
            ("ship p99 (s)", "%.2f" % baseline["ship_p99"],
             "%.2f" % spiked["ship_p99"]),
            ("makespan (s)", "%.1f" % baseline["makespan"],
             "%.1f" % spiked["makespan"]),
        ],
        title="X10b: flash crowd (%gx spike inside 10%% of a %gs day)" % (
            FLASH_MULTIPLIER, FLASH_DAY),
    ))
    # Both runs drain heal-complete: overload delays, never loses.
    for run in (baseline, spiked):
        assert run["drained"]
        assert run["records_shipped"] > 0
        assert run["records_classified"] == run["records_shipped"]
    # The crowd was real: ~multiplier-x the baseline volume shipped.
    assert spiked["records_shipped"] > 2 * baseline["records_shipped"]
    assert result["p99_ratio"] > 0
    _merge_bench(
        prefix="flash_crowd",
        metrics={
            "records_shipped": spiked["records_shipped"],
            "records_classified": spiked["records_classified"],
            "baseline_records_shipped": baseline["records_shipped"],
            "ship_p99": spiked["ship_p99"],
            "baseline_ship_p99": baseline["ship_p99"],
            # ratio-gated in CI: how far the crowd degrades the ship p99
            "p99_ratio": result["p99_ratio"],
            "makespan": spiked["makespan"],
            "baseline_makespan": baseline["makespan"],
        },
        context={
            "seed": 11,
            "spike_multiplier": FLASH_MULTIPLIER,
            "day_length": FLASH_DAY,
            "spike_window_fraction": [0.4, 0.5],
        },
    )


def test_slo_burn_raised_and_cleared(once):
    result = once(run_slo_burn)
    emit("robustness_slo_burn", format_table(
        ("metric", "value"),
        [
            ("drained", result["drained"]),
            ("burns raised / cleared", "%d / %d" % (
                result["burns_raised"], result["burns_cleared"])),
            ("first raise / last clear (s)", "%.1f / %.1f" % (
                result["first_raise_at"], result["last_clear_at"])),
            ("peak fast burn (x budget)", "%.1f" % result["peak_fast_burn"]),
            ("burn alerts at interface", result["burn_alerts"]),
            ("overall scorecard at end", result["overall_state"]),
            ("ship p99 (s)", "%.2f" % result["ship_p99"]),
        ],
        title="X7d: SLO burn drill (ship p90 < %gs vs the 30s outage)" %
              SLO_TARGET,
    ))
    assert result["drained"]
    assert result["records_shipped"] > 0
    # The burn tripped while the outage was live (or its parked backlog
    # was still redelivering), not in hindsight...
    assert result["burns_raised"] >= 1
    assert result["first_raise_at"] >= SLO_OUTAGE_AT
    assert result["peak_fast_burn"] >= 2.0  # the trip threshold
    # ...and every raise eventually cleared: no stuck gauges.
    assert result["burns_cleared"] == result["burns_raised"]
    assert result["burning_at_end"] == 0
    assert result["last_clear_at"] > SLO_OUTAGE_AT + SLO_OUTAGE_LEN
    # Both edges crossed the alert path: burns page, clears inform.
    assert result["burn_alerts"] >= 1
    assert result["clear_findings"] >= 1
    assert result["findings_shipped"] == \
        result["burns_raised"] + result["burns_cleared"]
    assert result["overall_state"] == "green"
    _merge_bench(
        prefix="slo",
        metrics={
            "burns_raised": result["burns_raised"],
            "burns_cleared": result["burns_cleared"],
            "burning_at_end": result["burning_at_end"],
            "first_raise_at": result["first_raise_at"],
            "last_clear_at": result["last_clear_at"],
            "peak_fast_burn": result["peak_fast_burn"],
            "burn_alerts": result["burn_alerts"],
            "findings_shipped": result["findings_shipped"],
            "ship_p99": result["ship_p99"],
        },
        context={
            "seed": 11,
            "outage_window": [SLO_OUTAGE_AT, SLO_OUTAGE_AT + SLO_OUTAGE_LEN],
            "slo": "ship p90 < %gs over 120s (fast 30s)" % SLO_TARGET,
        },
    )
