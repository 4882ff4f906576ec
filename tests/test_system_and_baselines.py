"""Integration tests: the system facade, the three architectures, Figure 6
shape assertions and determinism."""

import pytest

from repro.baselines.centralized import MANAGER_HOST, centralized_spec, default_devices
from repro.baselines.driver import (
    expected_report_count,
    run_architecture,
    run_figure6,
)
from repro.baselines.multiagent import multiagent_spec
from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)
from repro.evaluation.accounting import compare_reports
from repro.simkernel.resources import ResourceKind
from repro.snmp.device import PROFILES


class TestSpecValidation:
    def test_requires_devices_and_hosts(self):
        with pytest.raises(ValueError):
            GridTopologySpec(
                devices=[], collector_hosts=[HostSpec("c")],
                analysis_hosts=[HostSpec("a")],
                storage_host=HostSpec("s"), interface_host=HostSpec("i"),
            )
        with pytest.raises(ValueError):
            GridTopologySpec(
                devices=default_devices(1), collector_hosts=[],
                analysis_hosts=[HostSpec("a")],
                storage_host=HostSpec("s"), interface_host=HostSpec("i"),
            )

    def test_unknown_device_profile_rejected_by_name(self):
        with pytest.raises(ValueError, match="'d1'.*'rooter'.*router"):
            DeviceSpec("d1", "rooter")
        profile = PROFILES["router"]
        assert DeviceSpec("d2", profile).profile is profile
        assert DeviceSpec("d3", "switch").profile == "switch"

    @pytest.mark.parametrize("profile", [42, None, ("server",)])
    def test_device_profile_neither_name_nor_profile_rejected(self, profile):
        # One rule with the device layer (snmp.device.resolve_profile):
        # the spec refuses what ManagedDevice would refuse, when it is built.
        with pytest.raises(ValueError, match="'d1'.*unknown device profile"):
            DeviceSpec("d1", profile)

    def test_fetch_timeout_derived_from_job_timeout(self):
        # Default: the whole retry ladder fits in half the job timeout,
        # so a slow fetch ladder can never outlive its own job.
        spec = GridTopologySpec.paper_figure6c(job_timeout=60.0)
        assert spec.fetch_retries == 2
        assert spec.fetch_timeout == pytest.approx(
            60.0 / (2.0 * (spec.fetch_retries + 1)))
        assert (spec.fetch_timeout * (spec.fetch_retries + 1)
                < spec.job_timeout)

    def test_fetch_timeout_ladder_must_fit_job_timeout(self):
        with pytest.raises(ValueError, match="job_timeout"):
            GridTopologySpec.paper_figure6c(
                job_timeout=30.0, fetch_timeout=10.0, fetch_retries=2)

    def test_fetch_parameter_validation(self):
        with pytest.raises(ValueError, match="fetch_retries"):
            GridTopologySpec.paper_figure6c(fetch_retries=-1)
        with pytest.raises(ValueError, match="fetch_timeout"):
            GridTopologySpec.paper_figure6c(fetch_timeout=0.0)

    def test_fetch_settings_reach_analyzers(self):
        system = GridManagementSystem(GridTopologySpec.paper_figure6c(
            job_timeout=60.0, fetch_timeout=5.0, fetch_retries=3))
        for analyzer in system.analyzers:
            assert analyzer.fetch_timeout == 5.0
            assert analyzer.fetch_retries == 3

    def test_paper_figure6c_shape(self):
        spec = GridTopologySpec.paper_figure6c()
        assert len(spec.devices) == 3
        assert len(spec.collector_hosts) == 3
        assert len(spec.analysis_hosts) == 2

    def test_centralized_spec_single_host(self):
        spec = centralized_spec()
        names = {spec.storage_host.name, spec.interface_host.name}
        names.update(h.name for h in spec.collector_hosts)
        names.update(h.name for h in spec.analysis_hosts)
        assert names == {MANAGER_HOST}
        assert spec.collector_parse_locally is False

    def test_multiagent_spec_shape(self):
        spec = multiagent_spec(collector_count=2)
        assert len(spec.collector_hosts) == 2
        assert spec.collector_hosts[0].name != MANAGER_HOST
        assert spec.analysis_hosts[0].name == MANAGER_HOST
        assert spec.collector_parse_locally is True


class TestSystemFacade:
    def test_builds_expected_topology(self):
        system = GridManagementSystem(GridTopologySpec.paper_figure6c())
        assert len(system.devices) == 3
        assert len(system.collectors) == 3
        assert len(system.analyzers) == 2
        host_roles = {h.name: h.role for h in system.management_hosts()}
        assert host_roles["storage1"] == "storage"
        assert "dev1" not in host_roles

    def test_colocated_roles_become_manager(self):
        system = GridManagementSystem(centralized_spec())
        assert system.network.host(MANAGER_HOST).role == "manager"
        assert len(system.management_hosts()) == 1

    def test_make_paper_goals_layout(self):
        system = GridManagementSystem(GridTopologySpec.paper_figure6c())
        goals = system.make_paper_goals(polls_per_type=10)
        assert len(goals) == 30
        by_type = {}
        for goal in goals:
            by_type.setdefault(goal.request_type, []).append(goal)
        assert {k: len(v) for k, v in by_type.items()} == \
            {"A": 10, "B": 10, "C": 10}
        devices = {goal.device_name for goal in goals}
        assert devices == {"dev1", "dev2", "dev3"}

    def test_assign_goals_round_robins(self):
        system = GridManagementSystem(GridTopologySpec.paper_figure6c())
        system.assign_goals(system.make_paper_goals(polls_per_type=10))
        counts = [len(c.goals) + c._active_goals for c in system.collectors]
        # 30 goals over 3 collectors -> 10 each (goals list stays empty,
        # runtime adds count via _active_goals)
        assert all(c._active_goals == 10 for c in system.collectors)

    def test_expected_report_count(self):
        assert expected_report_count(30, None) == 1
        assert expected_report_count(30, 30) == 1
        assert expected_report_count(30, 6) == 5
        assert expected_report_count(1, 6) == 1


class TestFigure6Shape:
    """The headline reproduction: the qualitative claims of Figure 6."""

    @pytest.fixture(scope="class")
    def results(self):
        return run_figure6(polls_per_type=4, seed=11, timeout=2000)

    def test_all_architectures_complete(self, results):
        assert all(result.completed for result in results.values())
        assert all(result.records_analyzed == 12
                   for result in results.values())

    def test_centralized_manager_is_cpu_bottleneck(self, results):
        ordering = compare_reports(
            [r.report for r in results.values()], ResourceKind.CPU)
        assert [entry["label"] for entry in ordering] == \
            ["grid", "multiagent", "centralized"]

    def test_centralized_has_highest_manager_network(self, results):
        central_net = results["centralized"].report.host(
            MANAGER_HOST).net_units
        multi_net = results["multiagent"].report.host(MANAGER_HOST).net_units
        assert central_net > 2 * multi_net

    def test_multiagent_manager_still_bottleneck(self, results):
        report = results["multiagent"].report
        assert report.bottleneck().host_name == MANAGER_HOST

    def test_grid_spreads_load(self, results):
        grid = results["grid"].report
        central = results["centralized"].report
        # max per-host CPU in the grid is far below the centralized manager
        assert grid.max_host(ResourceKind.CPU)[1] < \
            0.5 * central.max_host(ResourceKind.CPU)[1]
        # and total work is comparable (within 25%): the win is placement,
        # not doing less work
        assert grid.total_units(ResourceKind.CPU) == pytest.approx(
            central.total_units(ResourceKind.CPU), rel=0.25)

    def test_grid_wins_makespan(self, results):
        assert results["grid"].makespan < results["multiagent"].makespan
        assert results["multiagent"].makespan < \
            results["centralized"].makespan

    def test_storage_host_owns_disk_in_grid(self, results):
        grid = results["grid"].report
        host_name, _ = grid.max_host(ResourceKind.DISK)
        assert host_name == "storage1"


class TestDeterminism:
    def test_same_seed_identical_reports(self):
        first = run_architecture(
            centralized_spec(seed=9, dataset_threshold=6), "c",
            polls_per_type=2, timeout=2000)
        second = run_architecture(
            centralized_spec(seed=9, dataset_threshold=6), "c",
            polls_per_type=2, timeout=2000)
        assert first.makespan == second.makespan
        for row_a, row_b in zip(first.report, second.report):
            assert row_a.units == row_b.units
        findings_a = [(f.kind, f.device) for f in first.findings]
        findings_b = [(f.kind, f.device) for f in second.findings]
        assert findings_a == findings_b

    def test_report_ids_are_numbered_per_deployment(self):
        # Like dataset and job ids, report ids come from the deployment's
        # simulator: an earlier build in the process does not shift them.
        report_ids = []
        for _ in range(2):
            system = GridManagementSystem(
                GridTopologySpec.paper_figure6c(seed=1))
            system.assign_goals(system.make_paper_goals(polls_per_type=10))
            assert system.run_until_reports(1, timeout=2000)
            report_ids.append(
                [report.report_id for report in system.interface.reports])
        assert report_ids == [["report-1"], ["report-1"]]

    def test_different_seed_changes_device_readings(self):
        first = run_architecture(
            centralized_spec(seed=1, dataset_threshold=6), "c",
            polls_per_type=2, timeout=2000)
        second = run_architecture(
            centralized_spec(seed=2, dataset_threshold=6), "c",
            polls_per_type=2, timeout=2000)
        store_a = first.system.store
        store_b = second.system.store
        assert store_a.history("dev1", "cpu_load") != \
            store_b.history("dev1", "cpu_load")
