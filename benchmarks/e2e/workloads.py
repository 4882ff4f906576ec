"""The four pipeline workloads, built only through the public API.

Each workload is an open loop in simulated time: ``make_paper_goals``
fires one poll every ``stagger`` (0.1 s) regardless of how fast the grid
drains them, and the run stops once the pipeline ledger drains (every
shipped record classified or dead-lettered, every published dataset
reported, no job open, nothing pending or parked on the reliable
channel).  In host time each run is a batch job of fixed size,
and requests grow with the device count.

``--seed`` reaches the workload twice: as the deployment's master seed
(device dynamics, loss draws) and as the shuffle that decides which
collector owns which poll.  The shuffle changes CPU queueing at the
collectors, and so simulated timing, while leaving the total work of a
round unchanged.
"""

import random

from repro.core.health import SLOSpec
from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)
from repro.network.topology import DEFAULT_WAN, LinkSpec
from repro.workloads.faults import FaultEvent, FaultPlan, apply_fault_plan
from repro.workloads.scenarios import scaling_scenario

#: Simulated seconds advanced between two checks of the drain condition.
DRAIN_SLICE = 5.0
#: A run that has not drained by this simulated time fails its checks.
DRAIN_DEADLINE = 5000.0

#: name -> (devices, requests per type, shards, dataset threshold, why).
#: A threshold of None means "all records", i.e. one dataset per shard.
WORKLOADS = {
    "bulk_analysis": (
        3000, 300, 8, None,
        "one big dataset per shard: the rules engine's join over all "
        "facts of a cluster does most of the work",
    ),
    "fine_datasets": (
        6000, 600, 8, 6,
        "the same analysis path split into ~900 small jobs: per-job "
        "dispatch, fetch, placement and reports dominate",
    ),
    "eager_fleet": (
        400, 40, 1, 12,
        "unsharded, so every device runs eager dynamics: kernel and SNMP "
        "device work dominate and the rules engine is bypassed",
    ),
    "chaos_ops": (
        1000, 300, 4, 30,
        "two sites, WAN loss, a collector outage and an analyzer kill: "
        "the only workload where the reliable channel, telemetry and the "
        "health monitor do any work",
    ),
}

COLLECTORS = 16
ANALYZERS = 14
CHAOS_COLLECTORS = 4
CHAOS_ANALYZERS = 6
CHAOS_POLL_RETRIES = 12


def scaled(count, scale):
    return max(1, int(round(count * scale)))


def requested_records(name, scale=1.0):
    return 3 * scaled(WORKLOADS[name][1], scale)


def build(name, seed, scale=1.0):
    """Build the deployment of workload ``name`` and assign its goals.

    Everything here is set-up time: spec, system build, goal assignment
    and fault scheduling.  Returns the built ``GridManagementSystem`` and
    the simulated time each poll falls due, keyed by (device, request
    type); every workload has more devices than requests per type, so
    the key names one poll.
    """
    devices, requests, shards, threshold, _ = WORKLOADS[name]
    devices = scaled(devices, scale)
    requests = scaled(requests, scale)
    # A threshold above the record count would leave a scaled-down run
    # with a dataset that never closes.
    threshold = min(threshold or 3 * requests, 3 * requests)
    scenario = scaling_scenario(devices, requests)
    if name == "chaos_ops":
        spec = _chaos_spec(scenario, seed, shards, threshold)
    else:
        spec = GridTopologySpec(
            devices=scenario.devices,
            collector_hosts=[HostSpec("col%d" % (i + 1))
                             for i in range(COLLECTORS)],
            analysis_hosts=[HostSpec("inf%d" % (i + 1))
                            for i in range(ANALYZERS)],
            storage_host=HostSpec("stor"),
            interface_host=HostSpec("iface"),
            dataset_threshold=threshold,
            shards=shards,
            seed=seed,
        )
    system = GridManagementSystem(spec)
    goals = system.make_paper_goals(
        polls_per_type=requests, interval=scenario.interval,
        stagger=scenario.stagger,
    )
    due = {(goal.device_name, goal.request_type): goal.start_after
           for goal in goals}
    random.Random(seed).shuffle(goals)
    system.assign_goals(goals)
    if name == "chaos_ops":
        for collector in system.collectors:
            collector.poll_retries = CHAOS_POLL_RETRIES
        apply_fault_plan(system, FaultPlan([
            FaultEvent(10.0, FaultEvent.LINK_LOSS_BURST, "wan",
                       loss_rate=0.05, clear_after=20.0),
            FaultEvent(15.0, FaultEvent.HOST_DOWN, "col1", clear_after=10.0),
            FaultEvent(35.0, FaultEvent.CONTAINER_DOWN, "analysis-1"),
        ]))
    return system, due


def _chaos_spec(scenario, seed, shards, threshold):
    field = [DeviceSpec(device.name, device.profile, "field")
             for device in scenario.devices]
    return GridTopologySpec(
        devices=field,
        collector_hosts=[HostSpec("col%d" % (i + 1), "field")
                         for i in range(CHAOS_COLLECTORS)],
        analysis_hosts=[HostSpec("inf%d" % (i + 1), "mgmt")
                        for i in range(CHAOS_ANALYZERS)],
        storage_host=HostSpec("stor", "mgmt"),
        interface_host=HostSpec("iface", "mgmt"),
        dataset_threshold=threshold,
        shards=shards,
        seed=seed,
        wan=LinkSpec(DEFAULT_WAN.latency, DEFAULT_WAN.bandwidth, 0.02),
        reliability={"redelivery": True},
        heartbeat_interval=2.0,
        # A killed analyzer's scatter-gather fetches outlive it and raise
        # "agent ... is not deployed" on about 1% of seeds, which ends the
        # run; level-3 cross analysis stays off here until that is fixed.
        enable_cross=False,
        telemetry=True,
        slos=[SLOSpec("ship", p=99, target=5, window=120)],
    )


# -- running ------------------------------------------------------------------


def _analysis_reports(system):
    return [report for report in system.interface.reports
            if report.kind == "analysis"]


def drained(system):
    """True once every record has left the pipeline one way or another."""
    if not all(c.idle_event.triggered for c in system.collectors):
        return False
    root = system.root
    classified = sum(c.records_classified for c in system.classifiers)
    shipped = sum(c.records_shipped for c in system.collectors)
    if shipped != classified + _dead_lettered_records(system):
        return False  # a batch is still on the wire or being classified
    if sum(state.record_count for state in root.datasets.values()) \
            != classified:
        return False  # a dataset is still open or its notify in flight
    if len(_analysis_reports(system)) != len(root.datasets):
        return False
    channel = system.reliable_channel
    if channel is not None and (channel.pending_count()
                                or channel.parked_count()):
        return False
    return all(job.done for job in root.jobs.values())


# -- outputs ------------------------------------------------------------------


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _dead_lettered_records(system):
    channel = system.reliable_channel
    if channel is None:
        return 0
    count = 0
    for dead in channel.permanently_dead():
        content = getattr(dead.message.payload, "content", None)
        if isinstance(content, dict) and content.get("op") == "classify-batch":
            count += len(content["records"])
    return count


def counters(system):
    """Public counters of every layer, read after the run."""
    transport = system.transport
    channel = system.reliable_channel
    root = system.root
    analyzers = system.analyzers
    sent = transport.messages_sent
    values = {
        "simkernel.spawned": system.sim.spawned,
        "network.transport.messages": sent,
        "network.transport.coalesced_ratio":
            transport.messages_coalesced / sent if sent else 0.0,
        "network.reliable.retransmits": 0,
        "network.reliable.acked_ratio": 0.0,
        "network.reliable.dead_letters": 0,
        "core.collector.polls_completed":
            sum(c.polls_completed for c in system.collectors),
        "core.collector.poll_retries_used":
            sum(c.poll_retries_used for c in system.collectors),
        "core.classifier.datasets_published":
            sum(c.datasets_published for c in system.classifiers),
        "core.storage.fetches_served":
            sum(store.fetches_served for store in system.stores),
        "core.processor.jobs_dispatched": root.jobs_dispatched,
        "core.processor.completed_ratio":
            sum(a.jobs_completed for a in analyzers) / root.jobs_dispatched
            if root.jobs_dispatched else 0.0,
        "core.processor.fetch_failures":
            sum(a.fetch_failures for a in analyzers),
        "rules.fired": sum(a.rules_fired for a in analyzers),
        "simkernel.telemetry.spans":
            len(system.telemetry.recorder) if system.telemetry else 0,
    }
    if channel is not None:
        attempts = channel.messages_sent + channel.retransmits
        values["network.reliable.retransmits"] = channel.retransmits
        values["network.reliable.acked_ratio"] = (
            channel.messages_acked / attempts if attempts else 0.0)
        values["network.reliable.dead_letters"] = len(channel.dead_letters)
    return values


def outputs(system, due, requested):
    """Simulated end-to-end metrics, the record ledger and output checks.

    ``due`` is the second value :func:`build` returned.  Call after
    :func:`counters`: reading dataset records back out of the stores
    counts as fetches.
    """
    reports = _analysis_reports(system)
    reported = sum(report.records_analyzed for report in reports)
    shipped = sum(c.records_shipped for c in system.collectors)
    classified = sum(c.records_classified for c in system.classifiers)
    dead = _dead_lettered_records(system)
    stores = {store.host.name: store for store in system.stores}
    by_dataset = {report.dataset_id: report for report in reports}
    lags = []
    due_lags = []
    unanalyzed = 0
    unreported_datasets = 0
    for dataset_id, state in system.root.datasets.items():
        store = stores[state.storage_host]
        report = by_dataset.get(dataset_id)
        if report is None:
            unreported_datasets += store.dataset_size(dataset_id)
            continue
        unanalyzed += store.dataset_size(dataset_id) - report.records_analyzed
        for cluster in store.clusters_of(dataset_id):
            for record in store.fetch_cluster(dataset_id, cluster):
                lags.append(report.generated_at - record.collected_at)
                due_lags.append(report.generated_at
                                - due[record.device, record.request_type])
    lags.sort()
    due_lags.sort()
    # Every requested record ends in exactly one of these buckets; the
    # sum is computed independently of ``reported`` to check it.
    unreported = ((requested - shipped) + dead + unanalyzed
                  + unreported_datasets
                  + (classified - sum(s.record_count for s in
                                      system.root.datasets.values())))
    checks = []
    if shipped != classified + dead:
        checks.append("shipped %d != classified %d + dead-lettered %d"
                      % (shipped, classified, dead))
    if reported + unreported != requested:
        checks.append("reported %d + unreported %d != requested %d"
                      % (reported, unreported, requested))
    if system.telemetry is not None:
        orphans = system.telemetry.pipeline_report()["orphans"]
        if orphans:
            checks.append("%d orphan spans" % len(orphans))
    if len(due) != requested:
        checks.append("%d polls have %d distinct (device, type) keys"
                      % (requested, len(due)))
    if not lags:
        checks.append("no record reached a report")
        lags = due_lags = [0.0]
    simulated = {
        "makespan_sim_s": max((r.generated_at for r in reports), default=0.0),
        "report_lag_p50_sim_s": _quantile(lags, 50),
        "report_lag_p90_sim_s": _quantile(lags, 90),
        "due_to_report_p50_sim_s": _quantile(due_lags, 50),
        "due_to_report_p90_sim_s": _quantile(due_lags, 90),
        "records_unreported_frac": unreported / requested,
    }
    return reported, unreported, simulated, checks
