"""Tests for the processor grid: root brokering, analyzers, negotiation,
fault tolerance."""

import random

import pytest

from repro.core.health import SLOSpec
from repro.core.processor import CROSS_CLUSTER
from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)
from repro.baselines.centralized import default_devices
from repro.network.topology import DEFAULT_WAN, LinkSpec
from repro.workloads.faults import FaultEvent, FaultPlan, apply_fault_plan
from repro.workloads.scenarios import scaling_scenario


def small_grid_spec(seed=7, **overrides):
    parameters = dict(
        devices=default_devices(2),
        collector_hosts=[HostSpec("col1", "site1")],
        analysis_hosts=[HostSpec("inf1", "site1"), HostSpec("inf2", "site1")],
        storage_host=HostSpec("stor", "site1"),
        interface_host=HostSpec("iface", "site1"),
        seed=seed,
        dataset_threshold=6,
    )
    parameters.update(overrides)
    return GridTopologySpec(**parameters)


def run_workload(system, polls_per_type=2, expected_reports=1, timeout=2000):
    system.assign_goals(system.make_paper_goals(polls_per_type=polls_per_type))
    done = system.run_until_reports(expected_reports, timeout=timeout)
    return done


class TestRootBrokering:
    def test_analyzers_register_profiles(self):
        system = GridManagementSystem(small_grid_spec())
        system.run(until=5.0)
        assert system.root.analyzer_containers() == [
            "analysis-1", "analysis-2"]
        assert len(system.root.directory) == 2

    def test_jobs_divided_per_cluster(self):
        system = GridManagementSystem(small_grid_spec())
        assert run_workload(system)
        # one dataset, three group clusters + one cross job
        levels = [job.level for job in system.root.jobs.values()]
        assert levels.count(3) == 1
        assert levels.count(2) == 3
        clusters = {job.cluster for job in system.root.jobs.values()}
        assert clusters == {"performance", "storage", "traffic",
                            CROSS_CLUSTER}

    def test_analysis_work_reaches_analyzers(self):
        system = GridManagementSystem(small_grid_spec())
        assert run_workload(system)
        total_jobs = sum(a.jobs_completed for a in system.analyzers)
        assert total_jobs == 4
        total_records = sum(a.records_analyzed for a in system.analyzers)
        assert total_records == 6

    def test_work_spreads_across_containers(self):
        system = GridManagementSystem(small_grid_spec())
        assert run_workload(system, polls_per_type=4)
        busy = [a.jobs_completed for a in system.analyzers]
        assert all(count > 0 for count in busy)

    def test_report_reaches_interface_with_cross_level(self):
        system = GridManagementSystem(small_grid_spec())
        assert run_workload(system)
        assert system.root.reports_issued == 1
        report = system.interface.reports[0]
        assert report.records_analyzed == 6

    def test_cross_disabled_skips_level3(self):
        system = GridManagementSystem(small_grid_spec(enable_cross=False))
        assert run_workload(system)
        levels = [job.level for job in system.root.jobs.values()]
        assert 3 not in levels

    def test_analysis_detects_injected_faults(self):
        system = GridManagementSystem(small_grid_spec())
        system.devices["dev1"].inject_fault("cpu_runaway")
        system.devices["dev2"].inject_fault("cpu_runaway")
        assert run_workload(system, polls_per_type=2)
        findings = system.interface.all_findings()
        kinds = {finding.kind for finding in findings}
        assert "high-cpu" in kinds
        # two hot devices at one site -> level-3 site-overload incident
        assert "site-overload" in kinds
        assert len(system.interface.alerts) > 0

    def test_interface_down_detected_via_traffic_rules(self):
        system = GridManagementSystem(small_grid_spec())
        system.devices["dev1"].inject_fault("interface_down", interface=0)
        assert run_workload(system, polls_per_type=2)
        kinds = {finding.kind for finding in system.interface.all_findings()}
        assert "interface-down" in kinds


class TestNegotiatedPlacement:
    def test_contract_net_awards_jobs(self):
        system = GridManagementSystem(small_grid_spec(policy="negotiated"))
        assert run_workload(system)
        assert system.root.negotiator.rounds == 4
        total_bids = sum(a.responder.proposals_sent for a in system.analyzers)
        assert total_bids > 0
        assert system.root.reports_issued == 1

    def test_knowledge_specialists_refuse_foreign_cfps(self):
        spec = small_grid_spec(
            policy="negotiated",
            analysis_hosts=[
                HostSpec("inf1", "site1", knowledge=("performance",)),
                HostSpec("inf2", "site1",
                         knowledge=("storage", "traffic", CROSS_CLUSTER)),
            ],
        )
        system = GridManagementSystem(spec)
        assert run_workload(system)
        refusals = sum(a.responder.refusals_sent for a in system.analyzers)
        # NegotiatedPolicy pre-filters by knowledge, so refusals stay rare,
        # but specialist assignment must hold:
        perf_analyzer = system.analyzers[0]
        assert perf_analyzer.records_analyzed == 2  # only performance cluster
        assert refusals == 0


class TestFaultTolerance:
    def test_container_death_triggers_redispatch(self):
        # inf1 is made very slow and fed via round-robin, so it is
        # guaranteed to hold an in-flight job when it dies at t=30.
        spec = small_grid_spec(
            job_timeout=10.0, dataset_threshold=3, policy="round-robin",
            analysis_hosts=[
                HostSpec("inf1", "site1", cpu_capacity=0.5),
                HostSpec("inf2", "site1", cpu_capacity=10.0),
            ],
        )
        system = GridManagementSystem(spec)
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=30.0, kind="container_down", target="analysis-1"),
        ]))
        done = system.run_until_records(12, timeout=4000)
        assert done
        assert system.root.jobs_redispatched > 0
        assert sum(r.records_analyzed for r in system.interface.reports) >= 12
        # all post-fault work ran on the survivor
        assert system.analyzers[1].jobs_completed > 0

    def test_unknown_fault_target_raises(self):
        system = GridManagementSystem(small_grid_spec())
        with pytest.raises(KeyError):
            apply_fault_plan(system, FaultPlan([
                FaultEvent(at=1.0, kind="container_down", target="ghost"),
            ]))
        with pytest.raises(KeyError):
            apply_fault_plan(system, FaultPlan([
                FaultEvent(at=1.0, kind="cpu_runaway", target="ghost-dev"),
            ]))

    def test_abandonment_after_max_attempts(self):
        # kill ALL analyzers: jobs can never complete; the root must give
        # up after max_attempts and still emit a (partial) report.
        spec = small_grid_spec(job_timeout=2.0, dataset_threshold=3,
                               analysis_hosts=[HostSpec("inf1", "site1")])
        system = GridManagementSystem(spec)
        system.root.max_attempts = 2
        system.root.placement_patience = 15.0
        system.assign_goals(system.make_paper_goals(polls_per_type=1))
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=6.0, kind="container_down", target="analysis-1"),
        ]))
        system.run(until=600)
        assert system.root.jobs_abandoned > 0
        assert system.root.reports_issued >= 1

    def test_scatter_fetches_end_with_killed_analyzer(self):
        # Two sites, WAN loss, a collector outage and an analyzer kill on a
        # sharded grid with level-3 correlation: with seed 121 the kill at
        # t=35 lands while analyzer-1 waits on a scatter-gather wave.  The
        # wave's fetches must die with the job instead of retrying on the
        # undeployed agent (which raised "agent ... is not deployed").
        seed = 121
        scenario = scaling_scenario(1000, 300)
        spec = GridTopologySpec(
            devices=[DeviceSpec(device.name, device.profile, "field")
                     for device in scenario.devices],
            collector_hosts=[HostSpec("col%d" % (i + 1), "field")
                             for i in range(4)],
            analysis_hosts=[HostSpec("inf%d" % (i + 1), "mgmt")
                            for i in range(6)],
            storage_host=HostSpec("stor", "mgmt"),
            interface_host=HostSpec("iface", "mgmt"),
            dataset_threshold=30,
            shards=4,
            seed=seed,
            wan=LinkSpec(DEFAULT_WAN.latency, DEFAULT_WAN.bandwidth, 0.02),
            reliability={"redelivery": True},
            heartbeat_interval=2.0,
            enable_cross=True,
            telemetry=True,
            slos=[SLOSpec("ship", p=99, target=5, window=120)],
        )
        system = GridManagementSystem(spec)
        goals = system.make_paper_goals(
            polls_per_type=300, interval=scenario.interval,
            stagger=scenario.stagger,
        )
        random.Random(seed).shuffle(goals)
        system.assign_goals(goals)
        for collector in system.collectors:
            collector.poll_retries = 12
        apply_fault_plan(system, FaultPlan([
            FaultEvent(10.0, FaultEvent.LINK_LOSS_BURST, "wan",
                       loss_rate=0.05, clear_after=20.0),
            FaultEvent(15.0, FaultEvent.HOST_DOWN, "col1", clear_after=10.0),
            FaultEvent(35.0, FaultEvent.CONTAINER_DOWN, "analysis-1"),
        ]))
        killed = system.analyzers[0]
        system.run(until=36.0)
        assert killed.container is None
        attempts = killed.fetch_attempts
        system.run(until=120.0)
        assert killed.fetch_attempts == attempts
        assert sum(a.jobs_completed for a in system.analyzers[1:]) > 0


class TestHeartbeatFailureDetection:
    def _hb_spec(self, **overrides):
        parameters = dict(
            job_timeout=40.0, dataset_threshold=3, policy="round-robin",
            heartbeat_interval=2.0,  # timeout derives to 8s
            analysis_hosts=[
                HostSpec("inf1", "site1", cpu_capacity=0.5),
                HostSpec("inf2", "site1", cpu_capacity=10.0),
            ],
        )
        parameters.update(overrides)
        return small_grid_spec(**parameters)

    def test_heartbeat_defaults_off(self):
        system = GridManagementSystem(small_grid_spec())
        system.run(until=20)
        assert system.root.heartbeat_timeout is None
        assert system.root.heartbeats_received == 0
        assert all(a.heartbeats_sent == 0 for a in system.analyzers)

    def test_heartbeats_flow_when_enabled(self):
        system = GridManagementSystem(self._hb_spec())
        system.run(until=20)
        assert system.root.heartbeat_timeout == 8.0
        assert all(a.heartbeats_sent >= 5 for a in system.analyzers)
        assert system.root.heartbeats_received >= 10
        assert system.root.containers_evicted == 0

    def test_eviction_beats_the_reaper(self):
        # Same setup as the Reaper re-dispatch test, but with heartbeats
        # the dead container is evicted within the heartbeat timeout --
        # well under half the job timeout -- instead of waiting out the
        # job deadline.
        system = GridManagementSystem(self._hb_spec())
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=30.0, kind="container_down", target="analysis-1"),
        ]))
        assert system.run_until_records(12, timeout=4000)
        assert system.root.containers_evicted == 1
        (container, evicted_at), = system.root.evictions
        assert container == "analysis-1"
        detection_delay = evicted_at - 30.0
        assert 0 < detection_delay < system.root.job_timeout / 2
        assert system.root.jobs_redispatched > 0
        assert "analysis-1" not in system.root.analyzer_containers()

    def test_returned_container_is_reregistered(self):
        # Take the container's HOST down (beacons stop, eviction fires),
        # then bring it back: beacons resume and the root re-registers
        # the very same container.
        system = GridManagementSystem(self._hb_spec())
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=10.0, kind="host_down", target="inf1",
                       clear_after=15.0),
        ]))
        system.run(until=60)
        assert system.root.containers_evicted >= 1
        assert system.root.containers_recovered >= 1
        assert "analysis-1" in system.root.analyzer_containers()

    def test_all_containers_dead_finalizes_with_error_report(self):
        # Grid-root exhaustion: every analyzer container dies mid-run.
        # The root must abandon gracefully -- report finalized with an
        # analysis-abandoned error finding -- and must not hang.
        system = GridManagementSystem(self._hb_spec())
        system.root.placement_patience = 15.0
        system.root.max_attempts = 2
        system.assign_goals(system.make_paper_goals(polls_per_type=1))
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=6.0, kind="container_down", target="analysis-1"),
            FaultEvent(at=6.0, kind="container_down", target="analysis-2"),
        ]))
        system.run(until=600)
        assert system.root.containers_evicted == 2
        assert system.root.jobs_abandoned > 0
        assert system.root.reports_issued >= 1
        kinds = {f.kind for f in system.interface.all_findings()}
        assert "analysis-abandoned" in kinds
        abandoned = [f for f in system.interface.all_findings()
                     if f.kind == "analysis-abandoned"]
        assert all(f.severity == "major" for f in abandoned)
        assert all("reason" in f.detail for f in abandoned)


class TestFeedbackLoop:
    def test_learned_rule_applies_to_later_datasets(self):
        from repro.rules.conditions import GT, Pattern, Var
        from repro.rules.engine import Rule

        spec = small_grid_spec(dataset_threshold=3)
        system = GridManagementSystem(spec)
        # a rule the stock KB does not have: flag any proc_count over 1
        eager = Rule(
            "proc-watch",
            [Pattern("sample", bind="sample", metric="proc_count",
                     value=GT(1), device=Var("device"), site=Var("site"))],
            lambda context: context.assert_fact(
                "problem", kind="proc-watch", severity="warning",
                device=context["device"], site=context["site"],
                value=context["sample"]["value"], metric="proc_count"),
            group="storage", level=1,
        )
        skipped = system.interface.submit_rule(
            eager, [a.name for a in system.analyzers])
        assert skipped == []
        system.assign_goals(system.make_paper_goals(polls_per_type=1))
        assert system.run_until_reports(1, timeout=2000)
        kinds = {finding.kind for finding in system.interface.all_findings()}
        assert "proc-watch" in kinds
        # learning is recorded in the analyzer knowledge bases
        assert all("proc-watch" in a.knowledge_base.learned
                   for a in system.analyzers)
