"""Partition-tolerant federation mesh: links, degradation, failover.

The mesh promises four things on top of the siloed baseline, each pinned
here:

* **link-state machine** -- gateways heartbeat each other and walk
  up -> suspect -> partitioned -> healing -> up; a partition is declared
  within the heartbeat timeout and probed at a capped backoff.
* **explicit degradation** -- a partitioned peer's devices go offline at
  every other site's interface, a major ``site-partition`` finding (and
  alert) fires, and an info ``site-partition-heal`` finding clears it.
* **failover** -- a saturated site forwards surplus analysis jobs to the
  idlest reachable peer; every forwarded job completes exactly once even
  under redelivery.
* **opt-in** -- with ``federation_reliability``/mesh knobs at their
  defaults, integrated/siloed builds are byte-identical run to run
  (hypothesis double-run diffs).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.federation import (
    INTEGRATED,
    LINK_PARTITIONED,
    LINK_UP,
    MESH,
    SILOED,
    FederatedManagementSystem,
    FederatedTopologySpec,
    SiteSpec,
)
from repro.workloads.faults import (
    FaultEvent,
    FaultPlan,
    apply_fault_plan,
    site_partition_plan,
)

HEARTBEAT = 1.0
TIMEOUT = 4.0 * HEARTBEAT


def mesh_spec(site_count=2, seed=7, **overrides):
    parameters = dict(
        sites=[
            SiteSpec.simple("site%d" % (index + 1), device_count=2,
                            analyzer_count=1)
            for index in range(site_count)
        ],
        mode=MESH,
        seed=seed,
        dataset_threshold=6,
        federation_reliability=True,
        heartbeat_interval=HEARTBEAT,
    )
    parameters.update(overrides)
    return FederatedTopologySpec(**parameters)


def run_workload(system, polls_per_type=4, timeout=3000):
    system.assign_site_goals(system.make_site_goals(
        polls_per_type=polls_per_type))
    total = len(system.sites) * polls_per_type * 3
    completed = system.run_until_records(total, timeout=timeout)
    return completed


def partitioned_mesh(site_count=4, partition_at=15.0, heal_after=25.0,
                     **overrides):
    """A mesh with the last site severed mid-run, workload already wired."""
    system = FederatedManagementSystem(mesh_spec(site_count, **overrides))
    apply_fault_plan(system, site_partition_plan(
        "site%d" % site_count, partition_at=partition_at,
        heal_after=heal_after))
    system.assign_site_goals(system.make_site_goals(polls_per_type=4))
    return system


class TestConstruction:
    def test_mesh_builds_gateway_per_site(self):
        system = FederatedManagementSystem(mesh_spec(3))
        assert len(system.gateways()) == 3
        for runtime in system.sites.values():
            gateway = runtime.gateway
            assert gateway is not None
            # overflow drains through the gateway, never a peer root
            assert runtime.root.forwarder == gateway.try_forward
            assert runtime.root.forward_threshold == \
                system.spec.forward_threshold
            assert set(gateway.peer_gateways) == \
                set(system.sites) - {runtime.name}

    def test_mesh_defaults_derive_from_heartbeat(self):
        spec = mesh_spec(2, heartbeat_interval=0.5)
        assert spec.heartbeat_timeout == 2.0
        assert spec.reconnect_max_backoff == 4.0

    def test_mesh_requires_two_sites(self):
        with pytest.raises(ValueError):
            FederatedTopologySpec(sites=[SiteSpec.simple("s1")], mode=MESH)

    def test_spec_knob_validation(self):
        for overrides in (
            dict(heartbeat_interval=0.0),
            dict(heartbeat_timeout=-1.0),
            dict(forwarding_budget=0),
            dict(forward_threshold=0),
            dict(reconnect_max_backoff=HEARTBEAT / 2.0),
        ):
            with pytest.raises(ValueError):
                mesh_spec(2, **overrides)

    def test_siloed_build_has_no_mesh_machinery(self):
        system = FederatedManagementSystem(
            mesh_spec(2, mode=SILOED, federation_reliability=False,
                      heartbeat_interval=None))
        assert system.gateways() == []
        assert system.link_state_report() == {}
        assert system.reliable_channel is None


class TestLinkStateMachine:
    def test_healthy_mesh_stays_up(self):
        system = FederatedManagementSystem(mesh_spec(3))
        system.sim.run(until=20.0)
        for states in system.link_state_report().values():
            assert set(states.values()) == {LINK_UP}
        report = system.forwarding_report()
        assert report["beacons_sent"] > 0
        assert report["beacons_received"] > 0
        assert report["partitions_declared"] == 0

    def test_partition_detected_within_timeout(self):
        system = partitioned_mesh(site_count=4, partition_at=15.0,
                                  heal_after=200.0)
        system.sim.run(until=15.0 + TIMEOUT * 1.25)
        for site_name, runtime in system.sites.items():
            if site_name == "site4":
                continue
            gateway = runtime.gateway
            assert gateway.link_state["site4"] == LINK_PARTITIONED
            [(peer, declared_at)] = gateway.partitions
            assert peer == "site4"
            assert declared_at <= 15.0 + TIMEOUT * 1.25
        # the severed site sees the rest of the world go dark too
        severed = system.sites["site4"].gateway
        assert set(severed.link_state.values()) == {LINK_PARTITIONED}

    def test_probe_backoff_is_capped(self):
        system = partitioned_mesh(site_count=2, partition_at=5.0,
                                  heal_after=300.0)
        system.sim.run(until=100.0)
        gateway = system.sites["site1"].gateway
        assert gateway.probes_sent > 0
        assert gateway._probe_interval["site2"] <= \
            system.spec.reconnect_max_backoff

    def test_heal_reconverges_both_sides(self):
        system = partitioned_mesh(site_count=2, partition_at=10.0,
                                  heal_after=20.0)
        system.sim.run(until=60.0)
        for runtime in system.sites.values():
            gateway = runtime.gateway
            assert set(gateway.link_state.values()) == {LINK_UP}
            assert len(gateway.partitions) == 1
            assert len(gateway.heals) == 1
            (_, healed_at) = gateway.heals[0]
            assert healed_at >= 30.0  # not before the network healed


class TestDegradation:
    def _run_split(self, until):
        system = partitioned_mesh(site_count=4, partition_at=15.0,
                                  heal_after=25.0)
        system.sim.run(until=until)
        return system

    def test_peer_devices_reported_offline(self):
        system = self._run_split(until=25.0)
        interface = system.sites["site1"].interface
        assert interface.partitioned_sites() == ["site4"]
        assert interface.offline_devices() == ["site4-dev1", "site4-dev2"]
        assert interface.device_status("site4-dev1") == "offline"
        # local and other-peer devices are untouched
        assert interface.device_status("site1-dev1") == "online"
        assert interface.device_status("site2-dev1") == "online"

    def test_partition_finding_is_major_and_alerts(self):
        system = self._run_split(until=25.0)
        interface = system.sites["site1"].interface
        partition_findings = [
            finding for finding in interface.all_findings()
            if finding.kind == "site-partition"
        ]
        assert partition_findings
        finding = partition_findings[0]
        assert finding.severity == "major"
        assert finding.site == "site4"
        assert finding.detail["devices"] == ["site4-dev1", "site4-dev2"]
        # major >= the interface's default alert threshold
        assert any(alert.finding.kind == "site-partition"
                   for alert in interface.alerts)
        # and the on-screen finding is flagged stale while the site is cut
        assert finding in interface.stale_findings()

    def test_heal_emits_clearing_finding(self):
        system = self._run_split(until=80.0)
        interface = system.sites["site1"].interface
        kinds = [finding.kind for finding in interface.all_findings()]
        assert "site-partition" in kinds
        assert "site-partition-heal" in kinds
        assert interface.partitioned_sites() == []
        assert interface.offline_devices() == []
        assert interface.stale_findings() == []


class TestForwarding:
    def _saturated_mesh(self, seed=7):
        """Site1 gets triple workload so its single analyzer saturates."""
        system = FederatedManagementSystem(
            mesh_spec(2, seed=seed, forward_threshold=1))
        goals = system.make_site_goals(polls_per_type=6)
        goals["site1"] = goals["site1"] * 3
        system.assign_site_goals(goals)
        return system

    def test_saturated_site_forwards_exactly_once(self):
        system = self._saturated_mesh()
        system.sim.run(until=300.0)
        report = system.forwarding_report()
        assert report["jobs_forwarded"] > 0
        # exactly-once, globally balanced accounting:
        assert report["jobs_accepted"] == report["results_returned"]
        assert report["results_delivered"] == (
            report["jobs_forwarded"] - report["forwards_expired"])
        assert report["duplicate_results"] == 0
        assert report["jobs_rejected"] == 0
        # the origin root completed every dataset it opened
        root = system.sites["site1"].root
        assert root.jobs_forwarded > 0
        assert all(state.finished for state in root.datasets.values())

    def test_forwarded_job_capped_at_one_hop(self):
        from repro.agents.acl import ACLMessage, Performative
        from repro.agents.ontology import FORWARDED_JOB

        system = FederatedManagementSystem(mesh_spec(2))
        system.sim.run(until=3.0)  # analyzers registered
        gateway = system.sites["site1"].gateway
        relayed = ACLMessage(
            Performative.REQUEST, sender="gateway@site2",
            receiver=gateway.name,
            content=FORWARDED_JOB.make(
                job={"job_id": "j-hop"}, origin_site="site2",
                origin_gateway="gateway@site2", forward_hops=2,
            ),
            ontology=FORWARDED_JOB.name,
        )
        gateway._on_forwarded_job(relayed)
        assert gateway.jobs_rejected == 1
        assert "j-hop" not in gateway._remote_jobs

    def test_redelivered_forward_deduplicates(self):
        from repro.agents.acl import ACLMessage, Performative
        from repro.agents.ontology import FORWARDED_JOB

        system = FederatedManagementSystem(mesh_spec(2))
        system.sim.run(until=3.0)
        gateway = system.sites["site1"].gateway
        job = {
            "job_id": "j-dup", "dataset": "d1", "cluster": "performance",
            "record_count": 1, "level": 1,
            "storage_host": "site2-storage", "problems": [],
        }
        message = ACLMessage(
            Performative.REQUEST, sender="gateway@site2",
            receiver=gateway.name,
            content=FORWARDED_JOB.make(
                job=job, origin_site="site2",
                origin_gateway="gateway@site2", forward_hops=1,
            ),
            ontology=FORWARDED_JOB.name,
        )
        gateway._on_forwarded_job(message)
        gateway._on_forwarded_job(message)  # redelivered duplicate
        assert gateway.jobs_accepted == 1

    def test_no_forwarding_to_partitioned_peer(self):
        system = FederatedManagementSystem(
            mesh_spec(2, forward_threshold=1))
        goals = system.make_site_goals(polls_per_type=6)
        goals["site1"] = goals["site1"] * 3
        system.assign_site_goals(goals)
        system.sim.run(until=10.0)
        system.network.partition_site("site2")
        system.sim.run(until=10.0 + TIMEOUT * 1.25)
        gateway = system.sites["site1"].gateway
        assert gateway.link_state["site2"] == LINK_PARTITIONED
        forwarded_before = gateway.jobs_forwarded
        system.sim.run(until=60.0)
        # saturation persists, but the severed peer is never a candidate
        assert gateway.jobs_forwarded == forwarded_before


class TestTraceContinuity:
    def test_cross_site_chains_audit_complete(self):
        system = FederatedManagementSystem(
            mesh_spec(2, telemetry=True, forward_threshold=1))
        goals = system.make_site_goals(polls_per_type=6)
        goals["site1"] = goals["site1"] * 3
        system.assign_site_goals(goals)
        system.sim.run(until=300.0)
        recorder = system.telemetry.recorder
        assert recorder.orphan_spans() == []
        forwards = recorder.find(name="forward")
        assert forwards  # the saturation really crossed the boundary
        for span in forwards:
            assert span.status == "ok"
            # forwarded away from the forwarding gateway's own site
            assert span.detail["peer"] != span.agent.split("@", 1)[1]
            # the remote analyzer's span hangs off the forward span
            children = [
                s for s in recorder.find(name="analyze")
                if s.parent_id == span.span_id
            ]
            assert children
        pipeline = system.telemetry.pipeline_report()
        assert pipeline["orphans"] == []
        assert pipeline["incomplete"] == []


class TestMeshUnderPartitionCompletes:
    def test_workload_heal_complete_after_partition(self):
        """The acceptance drill: partition mid-run, heal, drain to 100%."""
        system = partitioned_mesh(site_count=4, partition_at=15.0,
                                  heal_after=25.0)
        total = 4 * 4 * 3
        assert system.run_until_records(total, timeout=3000)
        assert system.records_classified() == system.records_shipped()
        assert not system.reliable_channel.permanently_dead()
        report = system.forwarding_report()
        assert report["partitions_declared"] == 6  # 3 peers x both sides
        assert report["heals_declared"] == 6
        assert report["duplicate_results"] == 0


class TestByteIdentity:
    """``federation_reliability=False`` keeps the historical build: two
    fresh runs of the same spec are digest-identical, mesh knobs unused."""

    @staticmethod
    def _digest(mode, seed):
        system = FederatedManagementSystem(FederatedTopologySpec(
            sites=[
                SiteSpec.simple("site1", device_count=2),
                SiteSpec.simple("site2", device_count=2),
            ],
            mode=mode, seed=seed, dataset_threshold=6,
        ))
        run_workload(system, polls_per_type=3)
        findings = sorted(
            (f.kind, f.severity, f.device, f.site)
            for f in system.all_findings()
        )
        return (system.records_analyzed(), system.sim.now, findings)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           mode=st.sampled_from([INTEGRATED, SILOED]))
    @settings(max_examples=6, deadline=None)
    def test_reliability_off_double_run_identical(self, seed, mode):
        assert self._digest(mode, seed) == self._digest(mode, seed)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=3, deadline=None)
    def test_mesh_runs_are_deterministic_too(self, seed):
        def digest():
            system = FederatedManagementSystem(mesh_spec(2, seed=seed))
            run_workload(system, polls_per_type=3)
            return (system.records_analyzed(), system.sim.now,
                    system.forwarding_report())

        assert digest() == digest()
