"""Tests for the multi-site federation layer (integrated vs siloed)."""

import pytest

from repro.core.federation import (
    INTEGRATED,
    SILOED,
    FederatedManagementSystem,
    FederatedTopologySpec,
    SiteSpec,
)
from repro.rules.conditions import GT, Pattern, Var
from repro.rules.engine import Rule


def two_site_spec(mode, seed=5, **overrides):
    parameters = dict(
        sites=[
            SiteSpec.simple("site1", device_count=2, analyzer_count=1),
            SiteSpec.simple("site2", device_count=2, analyzer_count=1),
        ],
        mode=mode,
        seed=seed,
        dataset_threshold=6,
    )
    parameters.update(overrides)
    return FederatedTopologySpec(**parameters)


def run_federated(system, polls_per_type=4, timeout=3000):
    system.assign_site_goals(system.make_site_goals(
        polls_per_type=polls_per_type))
    total = len(system.sites) * polls_per_type * 3
    completed = system.run_until_records(total, timeout=timeout)
    return completed


class TestConstruction:
    def test_integrated_has_single_root_and_interface(self):
        system = FederatedManagementSystem(two_site_spec(INTEGRATED))
        assert system.global_root is not None
        assert system.global_interface is not None
        assert len(system.interfaces()) == 1
        # every site's grid reports to the one root and interface
        assert all(grid.root is system.global_root
                   and grid.interface is system.global_interface
                   for grid in system.sites.values())

    def test_siloed_has_per_site_roots(self):
        system = FederatedManagementSystem(two_site_spec(SILOED))
        assert system.global_root is None
        assert len(system.interfaces()) == 2
        assert all(runtime.root is not None
                   for runtime in system.sites.values())

    def test_devices_spread_over_sites(self):
        system = FederatedManagementSystem(two_site_spec(INTEGRATED))
        assert len(system.devices) == 4
        sites = {device.host.site.name for device in system.devices.values()}
        assert sites == {"site1", "site2"}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FederatedTopologySpec(sites=[], mode=INTEGRATED)
        with pytest.raises(ValueError):
            FederatedTopologySpec(
                sites=[SiteSpec.simple("s")], mode="anarchic")
        with pytest.raises(ValueError):
            SiteSpec("empty", devices=[])


class TestWorkloadCompletion:
    @pytest.mark.parametrize("mode", [INTEGRATED, SILOED])
    def test_both_modes_complete_workload(self, mode):
        system = FederatedManagementSystem(two_site_spec(mode))
        assert run_federated(system)
        assert system.records_analyzed() == 24

    def test_integrated_analyzers_registered_across_sites(self):
        system = FederatedManagementSystem(two_site_spec(INTEGRATED))
        system.sim.run(until=5.0)
        assert len(system.global_root.analyzer_containers()) == 2

    def test_siloed_roots_see_only_local_analyzers(self):
        system = FederatedManagementSystem(two_site_spec(SILOED))
        system.sim.run(until=5.0)
        for runtime in system.sites.values():
            assert len(runtime.root.analyzer_containers()) == 1


class TestCrossSiteCorrelation:
    """The paper's key claim: only the integrated grid can correlate
    information across sites."""

    def _overload_both_sites(self, system):
        system.devices["site1-dev1"].inject_fault("cpu_runaway")
        system.devices["site2-dev1"].inject_fault("cpu_runaway")

    def test_integrated_detects_multi_site_incident(self):
        system = FederatedManagementSystem(two_site_spec(INTEGRATED))
        self._overload_both_sites(system)
        assert run_federated(system)
        kinds = {finding.kind for finding in system.all_findings()}
        assert "multi-site-overload" in kinds

    def test_siloed_cannot_see_across_sites(self):
        system = FederatedManagementSystem(two_site_spec(SILOED))
        self._overload_both_sites(system)
        assert run_federated(system)
        kinds = {finding.kind for finding in system.all_findings()}
        # each silo sees its local high-cpu...
        assert "high-cpu" in kinds
        # ...but the cross-site incident is structurally invisible
        assert "multi-site-overload" not in kinds

    def test_integrated_without_window_misses_it_too(self):
        # ablation: integration needs the cross-dataset window, not just a
        # shared root
        system = FederatedManagementSystem(
            two_site_spec(INTEGRATED, cross_window=0.0))
        self._overload_both_sites(system)
        assert run_federated(system)
        kinds = {finding.kind for finding in system.all_findings()}
        assert "multi-site-overload" not in kinds


class TestSharedKnowledge:
    def _eager_rule(self):
        return Rule(
            "always-problem",
            [Pattern("sample", bind="sample", metric="cpu_load",
                     value=GT(-1), device=Var("device"), site=Var("site"))],
            lambda context: context.assert_fact(
                "problem", kind="eager", severity="warning",
                device=context["device"], site=context["site"],
                value=None, metric="cpu_load"),
            group="performance", level=1,
        )

    def test_integrated_shares_to_all_sites(self):
        system = FederatedManagementSystem(two_site_spec(INTEGRATED))
        system.share_knowledge(self._eager_rule())
        assert run_federated(system)
        sites_with_eager = {
            finding.site for finding in system.all_findings()
            if finding.kind == "eager"
        }
        assert sites_with_eager == {"site1", "site2"}

    def test_siloed_knowledge_stays_local(self):
        system = FederatedManagementSystem(two_site_spec(SILOED))
        system.share_knowledge(self._eager_rule())
        assert run_federated(system)
        sites_with_eager = {
            finding.site for finding in system.all_findings()
            if finding.kind == "eager"
        }
        assert sites_with_eager == {"site1"}


class TestWanTolerance:
    def test_high_wan_latency_degrades_gracefully(self):
        from repro.network.topology import LinkSpec

        fast = FederatedManagementSystem(two_site_spec(
            INTEGRATED, wan=LinkSpec(latency=0.01, bandwidth=1000.0)))
        assert run_federated(fast)
        fast_records = fast.records_analyzed()

        slow = FederatedManagementSystem(two_site_spec(
            INTEGRATED, wan=LinkSpec(latency=2.0, bandwidth=100.0)))
        assert run_federated(slow)
        # same work completes despite 200x the WAN latency ("agents are
        # tolerable to the latency"); only the clock suffers
        assert slow.records_analyzed() == fast_records
        assert slow.sim.now >= fast.sim.now
