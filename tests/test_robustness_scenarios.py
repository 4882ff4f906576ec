"""Chaos-scenario matrix: one X7-style outage, every config cell.

The same storage-host outage (the ship destination dies at t=2 for 30s,
or forever) runs across ``(reliability on/off) x (telemetry on/off) x
(heal/no-heal)``, and each cell must uphold exactly the invariant tier
its configuration buys -- no more, no less:

* **tier 0** (no reliability): bookkeeping sanity only -- records lost
  in the outage vanish silently (``classified <= shipped``).
* **tier 1** (reliable channel): no *silent* loss -- every shipped
  record is classified or dead-lettered with accounting
  (``classified + dead >= shipped``), healed or not.
* **tier 2** (reliability + redelivery + heal): heal-complete --
  the outage (30s) outlasts the retransmission ladder (~15s), so only
  the redelivery scheduler closes the gap: ``classified == shipped``,
  zero permanently-dead envelopes.

Telemetry rides along passively in half the cells: span chains must
never dangle from unrecorded parents, and in the tier-2 cell every
shipped batch's chain must be *complete* -- redelivered, not terminated.

A fourth cell family exercises the federation mesh (ISSUE 8): a 4-site
mesh loses one site mid-run and heals, and must uphold the tier-2
heal-complete contract *globally* -- plus mesh-specific invariants
(detection within the heartbeat timeout, exactly-once forwarding).
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
from repro.workloads.faults import FaultEvent, FaultPlan, apply_fault_plan
from repro.workloads.scenarios import (
    TIER_DETECTION_SURVIVES,
    TIER_HEAL_COMPLETE,
    TIER_NO_SILENT_LOSS,
    TIER_SILENT_LOSS,
    Scenario,
    cascade_scenario,
    flash_crowd_scenario,
    rolling_upgrade_scenario,
    split_brain_scenario,
)

OUTAGE_AT = 2.0
OUTAGE_LEN = 30.0     # > the ~15s retransmission ladder below
GIVE_UP_AFTER = 60.0  # no-heal cells settle into "gave-up", not "parked"
HORIZON = 400.0


def _build(reliability, telemetry, slos=(), heartbeat_interval=None):
    channel = False
    if reliability:
        channel = {
            # ~15s ladder: 1 + 2 + 4 + 8 -- defeated by the 30s outage.
            "ack_timeout": 1.0, "backoff": 2.0, "max_attempts": 4,
            "redelivery": True, "redelivery_interval": 2.0,
            "redelivery_max_interval": 8.0,
            "redelivery_give_up_after": GIVE_UP_AFTER,
        }
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
        seed=11,
        dataset_threshold=4,
        policy="round-robin",
        job_timeout=40.0,
        reliability=channel,
        wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=0.0),
        telemetry=telemetry,
        slos=slos,
        heartbeat_interval=heartbeat_interval,
    )
    return GridManagementSystem(spec)


def _dead_letter_records(channel):
    count = 0
    for dead in channel.dead_letters:
        acl = dead.message.payload
        if getattr(acl, "ontology", None) == "collected-batch":
            count += len(acl.content["records"])
    return count


def _run_cell(reliability, telemetry, heal):
    system = _build(reliability, telemetry)
    system.collectors[0].poll_retries = 8
    apply_fault_plan(system, FaultPlan([
        FaultEvent(OUTAGE_AT, FaultEvent.HOST_DOWN, "stor",
                   clear_after=OUTAGE_LEN if heal else None),
    ]))
    system.assign_goals(system.make_paper_goals(polls_per_type=4))
    system.sim.run(until=HORIZON)
    return system


@pytest.mark.parametrize("telemetry", [False, True])
@pytest.mark.parametrize("heal", [False, True])
class TestTier0NoReliability:
    def test_bookkeeping_only(self, telemetry, heal):
        system = _run_cell(False, telemetry, heal)
        assert system.reliable_channel is None
        shipped = system.collectors[0].records_shipped
        classified = system.classifier.records_classified
        assert shipped > 0
        # Records shipped into the outage vanish without a trace: the
        # only guarantee is that nothing is double-counted.
        assert classified <= shipped
        # The outage was real: fire-and-forget lost records silently.
        assert classified < shipped
        if telemetry:
            assert system.telemetry.recorder.orphan_spans() == []
        else:
            assert system.telemetry is None


@pytest.mark.parametrize("telemetry", [False, True])
class TestTier1ReliableNoHeal:
    def test_no_silent_loss(self, telemetry):
        system = _run_cell(True, telemetry, heal=False)
        channel = system.reliable_channel
        shipped = system.collectors[0].records_shipped
        classified = system.classifier.records_classified
        dead = _dead_letter_records(channel)
        assert shipped > 0
        # The destination never heals: envelopes exhaust, park, and the
        # delivery budget expires -- all accounted, nothing silent.
        assert channel.dead_letters
        assert channel.redelivery_gave_up > 0
        assert channel.parked_count() == 0  # budget drained the lot
        assert classified + dead >= shipped
        assert classified < shipped  # the loss is real, just not silent
        if telemetry:
            recorder = system.telemetry.recorder
            assert recorder.orphan_spans() == []
            # Gave-up chains terminate with an explicit dead-letter span.
            ships = recorder.find(name="ship")
            assert any(s.status == "dead-letter" for s in ships)
        else:
            assert system.telemetry is None


@pytest.mark.parametrize("telemetry", [False, True])
class TestTier2RedeliveryHeal:
    def test_heal_complete(self, telemetry):
        system = _run_cell(True, telemetry, heal=True)
        channel = system.reliable_channel
        shipped = system.collectors[0].records_shipped
        classified = system.classifier.records_classified
        assert shipped > 0
        # The outage outlasted the retransmission ladder...
        assert channel.dead_letters
        # ...so only redelivery can explain exact completeness.
        assert channel.redelivered > 0
        assert channel.redelivery_gave_up == 0
        assert channel.parked_count() == 0
        assert channel.pending_count() == 0
        assert not channel.permanently_dead()
        assert classified == shipped
        # The pipeline finished end to end after the heal.
        assert system.classifier._open_dataset is None
        assert system.root.datasets
        assert all(s.finished for s in system.root.datasets.values())
        assert len(system.interface.reports) >= 1
        if telemetry:
            recorder = system.telemetry.recorder
            assert recorder.orphan_spans() == []
            # Every redelivered chain re-opened and completed: no ship
            # span terminates in a dead-letter status...
            ships = recorder.find(name="ship")
            assert ships
            assert all(s.status != "dead-letter" for s in ships)
            assert recorder.find(name="redeliver")
            # ...and the end-to-end audit agrees.
            pipeline = system.telemetry.pipeline_report()
            assert pipeline["incomplete"] == []
            assert pipeline["orphans"] == []
            assert pipeline["complete"] == pipeline["batches"]
        else:
            assert system.telemetry is None


MESH_HEARTBEAT = 1.0
MESH_TIMEOUT = 4.0 * MESH_HEARTBEAT
PARTITION_AT = 15.0
PARTITION_LEN = 25.0


@pytest.mark.parametrize("telemetry", [False, True])
class TestMeshPartitionHeal:
    """4-site federation mesh, one site severed mid-run then healed."""

    def _run_cell(self, telemetry):
        from repro.core.federation import (
            MESH, FederatedManagementSystem, FederatedTopologySpec, SiteSpec)
        from repro.workloads.faults import site_partition_plan

        spec = FederatedTopologySpec(
            sites=[
                SiteSpec.simple("site%d" % (index + 1), device_count=2,
                                analyzer_count=1)
                for index in range(4)
            ],
            mode=MESH,
            seed=11,
            dataset_threshold=6,
            heartbeat_interval=MESH_HEARTBEAT,
            forward_threshold=1,
            federation_reliability={
                "ack_timeout": 1.0, "backoff": 2.0, "max_attempts": 4,
                "redelivery": True, "redelivery_interval": 2.0,
                "redelivery_max_interval": 8.0,
            },
            wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=0.0),
            telemetry=telemetry,
        )
        system = FederatedManagementSystem(spec)
        apply_fault_plan(system, site_partition_plan(
            "site4", partition_at=PARTITION_AT, heal_after=PARTITION_LEN))
        goals = system.make_site_goals(polls_per_type=4)
        goals["site1"] = goals["site1"] * 3  # saturate site1 -> forwarding
        system.assign_site_goals(goals)
        system.sim.run(until=HORIZON)
        return system

    def test_heal_complete_with_mesh_invariants(self, telemetry):
        system = self._run_cell(telemetry)
        channel = system.reliable_channel

        # -- tier-2 contract, held globally across all four sites --------
        shipped = system.records_shipped()
        classified = system.records_classified()
        assert shipped > 0
        assert classified == shipped
        assert channel.parked_count() == 0
        assert channel.pending_count() == 0
        assert not channel.permanently_dead()
        for runtime in system.sites.values():
            assert runtime.root.datasets
            assert all(state.finished
                       for state in runtime.root.datasets.values())

        # -- every surviving site detected the cut within the timeout ----
        for site_name, runtime in system.sites.items():
            if site_name == "site4":
                continue
            declared = [at for peer, at in runtime.gateway.partitions
                        if peer == "site4"]
            assert declared
            assert declared[0] <= PARTITION_AT + MESH_TIMEOUT * 1.25

        # -- and reconverged after the heal -------------------------------
        for states in system.link_state_report().values():
            assert set(states.values()) == {"up"}
        report = system.forwarding_report()
        assert report["partitions_declared"] == 6  # 3 observers + 3 from site4
        assert report["heals_declared"] == 6

        # -- exactly-once forwarding accounting ---------------------------
        assert report["jobs_forwarded"] > 0
        assert report["results_delivered"] + report["forwards_expired"] == \
            report["jobs_forwarded"]
        assert report["jobs_accepted"] == report["results_returned"]
        assert report["duplicate_results"] == 0

        # -- degradation was visible and then cleared ---------------------
        interface = system.sites["site1"].interface
        kinds = {finding.kind for finding in interface.all_findings()}
        assert "site-partition" in kinds
        assert "site-partition-heal" in kinds
        assert interface.partitioned_sites() == []
        assert interface.offline_devices() == []

        if telemetry:
            recorder = system.telemetry.recorder
            assert recorder.orphan_spans() == []
            assert recorder.find(name="forward")
            pipeline = system.telemetry.pipeline_report()
            assert pipeline["incomplete"] == []
            assert pipeline["orphans"] == []
            assert pipeline["complete"] == pipeline["batches"]
        else:
            assert system.telemetry is None


# -- the compound-failure scenario catalog (ISSUE 10) ---------------------
#
# One cell per catalog scenario; each asserts exactly the invariant tier
# the scenario declares, through a shared tier-assertion ladder.


def _build_scenario(scenario, analysis_hosts=2, horizon=HORIZON):
    """Build, faultify and run a catalog scenario on the matrix topology.

    The scenario is *declarative*: its ``spec_overrides`` configure the
    spec (reliability ladder, heartbeats, gossip), its ``fault_plan``
    schedules the failures, and ``build_goals`` generates the (possibly
    traffic-shaped) workload.
    """
    spec = GridTopologySpec(
        devices=scenario.devices,
        collector_hosts=[HostSpec("col1", "field")],
        analysis_hosts=[HostSpec("inf%d" % (index + 1), "mgmt")
                        for index in range(analysis_hosts)],
        storage_host=HostSpec("stor", "mgmt"),
        interface_host=HostSpec("iface", "mgmt"),
        seed=11,
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
    system.assign_goals(scenario.build_goals(seed=11))
    system.sim.run(until=horizon)
    return system


def _assert_tier(system, tier):
    """The invariant ladder: each tier implies everything below it."""
    shipped = system.collectors[0].records_shipped
    classified = system.classifier.records_classified
    assert shipped > 0
    if tier == TIER_SILENT_LOSS:
        assert classified <= shipped  # bookkeeping sanity only
        return
    channel = system.reliable_channel
    dead = _dead_letter_records(channel)
    assert classified + dead >= shipped  # no silent loss
    if tier == TIER_NO_SILENT_LOSS:
        return
    # heal-complete: the faults cleared and redelivery drained the lot.
    assert classified == shipped
    assert channel.parked_count() == 0
    assert channel.pending_count() == 0
    assert not channel.permanently_dead()
    assert system.root.datasets
    assert all(state.finished for state in system.root.datasets.values())
    if tier == TIER_HEAL_COMPLETE:
        return
    # detection-survives-root-outage: the gossip mesh converged on the
    # root's death while the root was unreachable (asserted in detail by
    # the split-brain cell).
    assert tier == TIER_DETECTION_SURVIVES
    assert system.gossip is not None
    assert system.gossip.detection_times()


class TestSplitBrainCell:
    """Island = root's host + half the analyzer hosts; the severed half
    must keep detecting, elect a stand-in, and reconcile on heal."""

    PARTITION_AT = 15.0
    HEAL_AFTER = 30.0

    def _run(self):
        scenario = split_brain_scenario(
            island_hosts=("stor", "inf1", "inf2"),
            partition_at=self.PARTITION_AT, heal_after=self.HEAL_AFTER)
        assert scenario.expected_tier == TIER_DETECTION_SURVIVES
        return _build_scenario(scenario, analysis_hosts=4)

    def test_detection_survives_root_outage(self):
        system = self._run()
        _assert_tier(system, TIER_DETECTION_SURVIVES)
        mesh = system.gossip

        # Severed analyzers (inf3/inf4) converged on the root's death
        # within the heartbeat timeout -- detection survived the outage.
        detection = mesh.detection_times()
        for severed in ("analyzer-3", "analyzer-4"):
            assert severed in detection
            delay = detection[severed] - self.PARTITION_AT
            assert 0.0 < delay <= system.root.heartbeat_timeout

        # The severed side elected the lexicographically-smallest alive
        # analyzer among themselves as stand-in dispatcher.
        stand_ins = mesh.stand_ins()
        assert stand_ins["analyzer-3"] == "analyzer-3"
        assert stand_ins["analyzer-4"] == "analyzer-3"

        # After the heal, every view that confirmed the root saw its
        # refutation (fresh incarnation) and recovered.
        recoveries = mesh.recovery_times()
        assert set(detection) <= set(recoveries)
        assert all(at >= self.PARTITION_AT + self.HEAL_AFTER
                   for at in recoveries.values())

        # The root, meanwhile, evicted the severed containers via the
        # heartbeat detector and welcomed them back -- both failure
        # detectors ran through the same outage.
        assert system.root.containers_evicted >= 1
        assert system.root.containers_recovered >= 1

    def test_island_half_keeps_root_alive(self):
        system = self._run()
        # In-island analyzers (inf1/inf2) heard the root throughout; any
        # post-heal infection by the severed half's stale suspicion must
        # have been refuted -- nobody ends with the root confirmed dead.
        from repro.core.gossip import CONFIRMED

        for component in system.gossip.members.values():
            assert component.view.status("pg-root") != CONFIRMED


class TestCascadeCell:
    def test_rolling_overlapping_failures_heal_complete(self):
        scenario = cascade_scenario(hosts=("inf1", "inf2"), start_at=10.0,
                                    stagger=6.0, down_duration=15.0)
        assert scenario.expected_tier == TIER_HEAL_COMPLETE
        # The cascade is genuinely overlapping: host 2 fails before
        # host 1 recovers.
        events = list(scenario.fault_plan)
        assert events[1].at < events[0].at + events[0].clear_after
        system = _build_scenario(scenario)
        _assert_tier(system, TIER_HEAL_COMPLETE)
        # The overlap window (both hosts dark) forced real evictions and
        # re-dispatch; recovery brought every container back.
        assert system.root.containers_evicted >= 1
        assert system.root.containers_recovered >= 1
        assert len(system.interface.reports) >= 1


class TestFlashCrowdCell:
    def test_spike_absorbed_without_loss(self):
        scenario = flash_crowd_scenario(spike_multiplier=10.0,
                                        requests_per_type=4)
        assert scenario.expected_tier == TIER_HEAL_COMPLETE
        # The crowd genuinely backlogs the shared storage-host pipeline;
        # the horizon gives the grid time to absorb and drain it.
        system = _build_scenario(scenario, horizon=800.0)
        _assert_tier(system, TIER_HEAL_COMPLETE)
        # The crowd was real: the spiked workload shipped far more than
        # the baseline mix alone.
        assert system.collectors[0].records_shipped > \
            scenario.mix.total * 2
        assert len(system.interface.reports) >= 1

    def test_multiplier_outside_catalog_band_rejected(self):
        with pytest.raises(ValueError):
            flash_crowd_scenario(spike_multiplier=2.0)
        with pytest.raises(ValueError):
            flash_crowd_scenario(spike_multiplier=500.0)


class TestRollingUpgradeCell:
    def test_staggered_bounces_heal_complete_without_evictions(self):
        scenario = rolling_upgrade_scenario(
            hosts=("inf1", "inf2"), start_at=10.0,
            restart_duration=5.0, wave_gap=12.0)
        assert scenario.expected_tier == TIER_HEAL_COMPLETE
        # The waves never overlap: each restart ends before the next
        # begins -- the validator would reject same-host overlap anyway.
        events = list(scenario.fault_plan)
        for first, second in zip(events, events[1:]):
            assert first.at + first.clear_after <= second.at
        system = _build_scenario(scenario)
        _assert_tier(system, TIER_HEAL_COMPLETE)
        # Each bounce (5s) stays inside the heartbeat timeout (8s): a
        # disciplined upgrade never trips eviction, unlike the cascade.
        assert system.root.containers_evicted == 0


class TestScenarioComposition:
    """flash_crowd x link_loss_burst: composition validates, runs, and is
    deterministic (double-run byte-identical accounting)."""

    def _composed(self):
        crowd = flash_crowd_scenario(spike_multiplier=10.0,
                                     requests_per_type=4)
        burst = Scenario(
            "link_loss_burst",
            devices=crowd.devices,
            mix=crowd.mix,
            description="20% WAN loss for 15s",
            fault_plan=FaultPlan([
                FaultEvent(20.0, FaultEvent.LINK_LOSS_BURST, "wan",
                           loss_rate=0.2, clear_after=15.0),
            ]),
            expected_tier=TIER_NO_SILENT_LOSS,
        )
        return crowd.compose(burst)

    def _metrics(self, system):
        channel = system.reliable_channel
        return {
            "shipped": system.collectors[0].records_shipped,
            "classified": system.classifier.records_classified,
            "retransmits": channel.retransmits,
            "redelivered": channel.redelivered,
            "reports": len(system.interface.reports),
            "jobs_dispatched": system.root.jobs_dispatched,
        }

    def test_composition_validates_and_downgrades_tier(self):
        composed = self._composed()
        assert composed.name == "flash_crowd+link_loss_burst"
        # The weaker tier wins: extra failures can only lower the bar.
        assert composed.expected_tier == TIER_NO_SILENT_LOSS
        assert len(list(composed.fault_plan)) == 1
        assert composed.traffic is not None  # workload side preserved

    def test_conflicting_spec_overrides_rejected(self):
        crowd = flash_crowd_scenario(spike_multiplier=10.0)
        other = Scenario(
            "other", devices=crowd.devices, mix=crowd.mix,
            spec_overrides={"reliability": False})
        with pytest.raises(ValueError):
            crowd.compose(other)

    def test_composed_run_upholds_tier_and_is_deterministic(self):
        first = _build_scenario(self._composed(), horizon=800.0)
        _assert_tier(first, TIER_NO_SILENT_LOSS)
        # The burst actually bit: the channel had to retransmit.
        assert first.reliable_channel.retransmits > 0
        second = _build_scenario(self._composed(), horizon=800.0)
        assert json.dumps(self._metrics(first), sort_keys=True) == \
            json.dumps(self._metrics(second), sort_keys=True)


class TestScorecardFlip:
    """A mid-run analysis-host kill flips that container's scorecard RED
    on the health layer; the heal flips it back to GREEN.

    Note: ``host_down`` with ``clear_after`` models the reboot --
    ``container_down`` is permanent by design (killed containers never
    resurrect) and so cannot exercise the red -> green edge.
    """

    KILL_AT = 50.0
    KILL_LEN = 60.0

    def _card_for_host(self, system, host_name):
        cards = system.health.scorecards()["containers"]
        matches = [card for card in cards.values()
                   if card["host"] == host_name]
        assert len(matches) == 1
        return matches[0]

    def test_partitioned_analyzer_walks_liveness_reasons(self):
        """Cut inf1 off the network while its host stays up: only the
        root's failure detector can see it, so the card walks through
        the liveness reasons alone.  inf1's last beacon lands at ~48.05;
        the detector sweeps every 2 s and evicts at 58."""
        from repro.core.health import DEGRADED, GREEN, RED, SLOSpec

        slo = SLOSpec("ship", p=90.0, target=40.0, window=120.0,
                      fast_window=30.0)
        system = _build(True, telemetry=True, slos=[slo],
                        heartbeat_interval=2.0)
        system.collectors[0].poll_retries = 8
        apply_fault_plan(system, FaultPlan([
            FaultEvent(self.KILL_AT, FaultEvent.HOST_PARTITION, ["inf1"],
                       clear_after=self.KILL_LEN),
        ]))
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        for until, state, reasons in (
            (51.0, GREEN, []),
            (53.25, DEGRADED, ["heartbeat aging (5.2s)"]),
            (57.25, RED, ["heartbeat stale (9.2s)"]),
            (58.0, RED, ["evicted by heartbeat detector"]),
            (self.KILL_AT + self.KILL_LEN + 5.0, GREEN, []),
        ):
            system.sim.run(until=until)
            card = self._card_for_host(system, "inf1")
            assert (card["state"], card["reasons"]) == (state, reasons), until
        assert system.root.evictions == [("analysis-1", 58.0)]
        assert system.root.containers_recovered == 1

    def test_analysis_kill_flips_red_then_heal_flips_green(self):
        from repro.core.health import GREEN, RED, SLOSpec

        slo = SLOSpec("ship", p=90.0, target=40.0, window=120.0,
                      fast_window=30.0)
        system = _build(True, telemetry=True, slos=[slo],
                        heartbeat_interval=2.0)
        system.collectors[0].poll_retries = 8
        apply_fault_plan(system, FaultPlan([
            FaultEvent(self.KILL_AT, FaultEvent.HOST_DOWN, "inf1",
                       clear_after=self.KILL_LEN),
        ]))
        system.assign_goals(system.make_paper_goals(polls_per_type=4))

        # Before the kill: everything green.
        system.sim.run(until=self.KILL_AT - 1.0)
        assert self._card_for_host(system, "inf1")["state"] == GREEN

        # Mid-outage: the dead host's container shows red with at least
        # one structural reason (host down / evicted / stale beacons).
        system.sim.run(until=self.KILL_AT + self.KILL_LEN / 2.0)
        card = self._card_for_host(system, "inf1")
        assert card["state"] == RED
        assert card["reasons"]

        # After the reboot and recovery window: green again, and the
        # eviction bookkeeping confirms a true round trip.
        system.sim.run(until=HORIZON)
        card = self._card_for_host(system, "inf1")
        assert card["state"] == GREEN, card["reasons"]
        root = system.root
        assert root.containers_evicted >= 1
        assert root.containers_recovered >= 1
