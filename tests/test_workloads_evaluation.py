"""Unit tests for workload generation, scenarios and evaluation helpers."""

import pytest

from repro.core.system import DeviceSpec
from repro.evaluation.accounting import (
    HostUtilization,
    UtilizationReport,
    compare_reports,
)
from repro.evaluation.tables import format_number, format_table
from repro.network.topology import Network
from repro.simkernel.resources import ResourceKind
from repro.simkernel.simulator import Simulator
from repro.workloads.faults import FaultEvent
from repro.workloads.generator import RequestMix, WorkloadGenerator, goals_for_mix
from repro.workloads.scenarios import (
    crossover_scenarios,
    paper_scenario,
    scaling_scenario,
)


class TestRequestMix:
    def test_totals_and_access(self):
        mix = RequestMix(1, 2, 3)
        assert mix.total == 6
        assert mix["B"] == 2

    def test_scaled(self):
        mix = RequestMix(10, 10, 10).scaled(0.5)
        assert mix.total == 15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RequestMix(-1, 0, 0)


class TestGoalGeneration:
    def test_deterministic_layout(self):
        goals = goals_for_mix(RequestMix(4, 4, 4), ["d1", "d2"])
        assert len(goals) == 12
        # devices strictly alternate within each type
        type_a = [g for g in goals if g.request_type == "A"]
        assert [g.device_name for g in type_a] == ["d1", "d2", "d1", "d2"]

    def test_empty_devices_rejected(self):
        with pytest.raises(ValueError):
            goals_for_mix(RequestMix(1, 1, 1), [])

    def test_periodic_goals_cover_devices_and_types(self):
        generator = WorkloadGenerator(seed=1)
        goals = generator.periodic_goals(["d1", "d2"], polls_per_device=3,
                                         interval=5.0)
        assert len(goals) == 6
        assert all(goal.count == 3 for goal in goals)


class TestScenarios:
    def test_paper_scenario_matches_evaluation(self):
        scenario = paper_scenario()
        assert len(scenario.devices) == 3
        assert scenario.mix.total == 30
        assert scenario.total_requests == 30

    def test_scaling_scenario_spreads_sites(self):
        scenario = scaling_scenario(6, 5, site_count=2)
        sites = {device.site for device in scenario.devices}
        assert sites == {"site1", "site2"}

    def test_crossover_scenarios_monotonic(self):
        scenarios = crossover_scenarios(points=(1, 5, 10))
        totals = [scenario.total_requests for scenario in scenarios]
        assert totals == [3, 15, 30]

    def test_scenario_validation(self):
        from repro.workloads.scenarios import Scenario

        with pytest.raises(ValueError):
            Scenario("empty", [], RequestMix())


class TestFaultEvents:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at=-1, kind="cpu_runaway", target="d")
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="locusts", target="d")

    def test_clear_after_rejected_on_kill_kinds(self):
        # killed containers/agents do not resurrect
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="container_down", target="c",
                       clear_after=5.0)
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="agent_down", target="a", clear_after=5.0)
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="host_down", target="h", clear_after=0)
        # but host reboots and device/burst recovery are modelled
        assert FaultEvent(at=0, kind="host_down", target="h",
                          clear_after=5.0).clear_after == 5.0
        assert FaultEvent(at=0, kind="cpu_runaway", target="d",
                          clear_after=5.0).clear_after == 5.0

    def test_interface_only_on_interface_down(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="cpu_runaway", target="d", interface=0)
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="container_down", target="c", interface=1)
        assert FaultEvent(at=0, kind="interface_down", target="d",
                          interface=1).interface == 1

    def test_interface_down_requires_an_index(self):
        with pytest.raises(ValueError):
            FaultEvent(at=5.0, kind="interface_down", target="dev1")

    def test_site_partition_kind_validation(self):
        # a heal is instantaneous -- it cannot itself clear
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="site_partition_heal", target="s",
                       clear_after=5.0)
        # loss_rate/interface are link/device knobs, not partition knobs
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="site_partition", target="s",
                       loss_rate=0.5)
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="site_partition", target="s",
                       interface=1)
        # auto-heal via clear_after is modelled, as is an explicit heal
        assert FaultEvent(at=0, kind="site_partition", target="s",
                          clear_after=9.0).clear_after == 9.0
        assert FaultEvent(at=3, kind="site_partition_heal",
                          target="s").kind == "site_partition_heal"

    def test_loss_rate_only_on_link_loss_burst(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="link_loss_burst", target="wan")
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="link_loss_burst", target="wan",
                       loss_rate=1.0)
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="host_down", target="h", loss_rate=0.1)
        event = FaultEvent(at=0, kind="link_loss_burst", target="wan",
                           loss_rate=0.05, clear_after=10.0)
        assert event.loss_rate == 0.05

    def test_plan_sorts_by_time(self):
        from repro.workloads.faults import FaultPlan

        plan = FaultPlan([
            FaultEvent(at=5, kind="cpu_runaway", target="d"),
            FaultEvent(at=1, kind="memory_leak", target="d"),
        ])
        assert [event.at for event in plan] == [1, 5]
        plan.add(FaultEvent(at=3, kind="disk_filling", target="d"))
        assert [event.at for event in plan] == [1, 3, 5]


class TestChaosFaultApplication:
    def _system(self):
        from repro.core.system import (
            DeviceSpec, GridManagementSystem, GridTopologySpec, HostSpec,
        )

        spec = GridTopologySpec(
            devices=[DeviceSpec("dev1", "server", "field")],
            collector_hosts=[HostSpec("col1", "field")],
            analysis_hosts=[HostSpec("inf1", "mgmt")],
            storage_host=HostSpec("stor", "mgmt"),
            interface_host=HostSpec("iface", "mgmt"),
            seed=3,
        )
        return GridManagementSystem(spec)

    def test_container_down_kills_only_the_container(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        host = system.network.host("stor")
        # storage host carries the storage container AND the root agents
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="container_down", target="analysis-1"),
        ]))
        system.run(until=5)
        assert not system.analysis_containers[0].alive
        assert system.network.host("inf1").up  # host survives
        assert host.up

    def test_host_down_with_recovery(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="host_down", target="inf1",
                       clear_after=4.0),
        ]))
        system.run(until=2)
        assert not system.network.host("inf1").up
        system.run(until=10)
        assert system.network.host("inf1").up
        # the container itself was never killed
        assert system.analysis_containers[0].alive

    def test_agent_down_removes_single_agent(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="agent_down", target="classifier"),
        ]))
        system.run(until=5)
        assert system.platform.agent("classifier") is None
        # co-located agents in the same container keep running
        assert system.platform.agent("pg-root") is not None
        assert system.storage_container.alive

    def test_link_loss_burst_spikes_and_restores(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        original_wan = system.network.wan
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="link_loss_burst", target="wan",
                       loss_rate=0.5, clear_after=3.0),
        ]))
        system.run(until=2)
        assert system.network.wan.loss_rate == 0.5
        assert system.network.wan is not original_wan  # swapped, not mutated
        system.run(until=10)
        assert system.network.wan is original_wan

    def test_site_lan_burst(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="link_loss_burst", target="mgmt",
                       loss_rate=0.2),
        ]))
        system.run(until=2)
        assert system.network.sites["mgmt"].lan.loss_rate == 0.2

    def test_site_partition_with_auto_heal(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="site_partition", target="field",
                       clear_after=3.0),
        ]))
        system.run(until=2)
        assert system.network.partitioned_sites == {"field"}
        system.run(until=10)
        assert system.network.partitioned_sites == set()

    def test_explicit_site_partition_heal_event(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="site_partition", target="mgmt"),
            FaultEvent(at=4.0, kind="site_partition_heal", target="mgmt"),
        ]))
        system.run(until=2)
        assert system.network.partitioned_sites == {"mgmt"}
        system.run(until=10)
        assert system.network.partitioned_sites == set()

    def test_site_partition_unknown_site_raises(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        with pytest.raises(KeyError):
            apply_fault_plan(system, FaultPlan([
                FaultEvent(at=1.0, kind="site_partition", target="atlantis"),
            ]))

    def test_unknown_targets_raise_before_running(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        for kind, target in (
            ("agent_down", "ghost"),
            ("host_down", "ghost-host"),
        ):
            with pytest.raises(KeyError):
                apply_fault_plan(system, FaultPlan([
                    FaultEvent(at=1.0, kind=kind, target=target),
                ]))
        with pytest.raises(KeyError):
            apply_fault_plan(system, FaultPlan([
                FaultEvent(at=1.0, kind="link_loss_burst", target="ghost",
                           loss_rate=0.1),
            ]))

    def test_interface_index_checked_at_plan_time(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()  # dev1 is a 2-interface server
        for index in (2, -1):
            with pytest.raises(ValueError):
                apply_fault_plan(system, FaultPlan([
                    FaultEvent(at=1.0, kind="interface_down", target="dev1",
                               interface=index),
                ]))
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="interface_down", target="dev1",
                       interface=1, clear_after=3.0),
        ]))
        device = system.devices["dev1"]
        system.run(until=2)
        assert device.faults.down_interfaces == {1}
        system.run(until=10)
        assert device.faults.down_interfaces == set()


class TestKillWindowCoherence:
    """Overlapping host_down windows on one host must agree on the end."""

    def test_incompatible_overlap_rejected_at_construction(self):
        from repro.workloads.faults import FaultPlan

        with pytest.raises(ValueError, match="incompatible clear_after"):
            FaultPlan([
                FaultEvent(at=5.0, kind="host_down", target="h1",
                           clear_after=10.0),   # window [5, 15)
                FaultEvent(at=8.0, kind="host_down", target="h1",
                           clear_after=20.0),   # window [8, 28) -- overlaps
            ])

    def test_open_ended_window_conflicts_with_bounded(self):
        from repro.workloads.faults import FaultPlan

        with pytest.raises(ValueError, match="incompatible clear_after"):
            FaultPlan([
                FaultEvent(at=5.0, kind="host_down", target="h1"),
                FaultEvent(at=8.0, kind="host_down", target="h1",
                           clear_after=4.0),
            ])

    def test_add_validates_and_leaves_plan_unchanged(self):
        from repro.workloads.faults import FaultPlan

        plan = FaultPlan([
            FaultEvent(at=5.0, kind="host_down", target="h1",
                       clear_after=10.0),
        ])
        with pytest.raises(ValueError, match="incompatible clear_after"):
            plan.add(FaultEvent(at=8.0, kind="host_down", target="h1",
                                clear_after=20.0))
        assert len(plan) == 1  # rejected event was not kept

    def test_identical_end_overlap_allowed(self):
        from repro.workloads.faults import FaultPlan

        # Both windows end at t=15: no recovery races the other window.
        plan = FaultPlan([
            FaultEvent(at=5.0, kind="host_down", target="h1",
                       clear_after=10.0),
            FaultEvent(at=8.0, kind="host_down", target="h1",
                       clear_after=7.0),
        ])
        assert len(plan) == 2

    def test_sequential_windows_allowed(self):
        from repro.workloads.faults import FaultPlan

        # The rolling-upgrade pattern: down, back, down again.
        plan = FaultPlan([
            FaultEvent(at=5.0, kind="host_down", target="h1",
                       clear_after=3.0),
            FaultEvent(at=8.0, kind="host_down", target="h1",
                       clear_after=3.0),
        ])
        assert len(plan) == 2

    def test_different_hosts_may_overlap(self):
        from repro.workloads.faults import FaultPlan

        # The cascade pattern: overlapping windows, distinct hosts.
        plan = FaultPlan([
            FaultEvent(at=5.0, kind="host_down", target="h1",
                       clear_after=10.0),
            FaultEvent(at=8.0, kind="host_down", target="h2",
                       clear_after=20.0),
        ])
        assert len(plan) == 2

    def test_cascade_plan_validates_stagger(self):
        from repro.workloads.faults import cascade_plan

        with pytest.raises(ValueError):
            cascade_plan(["h1", "h2"], stagger=0.0)
        plan = cascade_plan(["h1", "h2"], start_at=10.0, stagger=6.0,
                            down_duration=15.0)
        starts = [event.at for event in plan]
        assert starts == [10.0, 16.0]
        # overlapping by design: second starts before the first clears
        assert starts[1] < starts[0] + 15.0

    def test_rolling_upgrade_plan_never_overlaps(self):
        from repro.workloads.faults import rolling_upgrade_plan

        plan = rolling_upgrade_plan(["h1", "h2"], start_at=10.0,
                                    restart_duration=5.0, wave_gap=12.0,
                                    waves=2)
        events = list(plan)
        assert len(events) == 4
        for earlier, later in zip(events, events[1:]):
            assert earlier.at + earlier.clear_after <= later.at
        with pytest.raises(ValueError, match="wave_gap"):
            rolling_upgrade_plan(["h1"], restart_duration=5.0, wave_gap=5.0)


class TestHostPartitionFaults:
    _system = TestChaosFaultApplication._system

    def test_island_target_must_be_nonempty_collection(self):
        with pytest.raises(ValueError, match="non-empty list"):
            FaultEvent(at=1.0, kind="host_partition", target="stor")
        with pytest.raises(ValueError, match="non-empty list"):
            FaultEvent(at=1.0, kind="host_partition", target=[])

    def test_island_normalised_to_sorted_tuple(self):
        event = FaultEvent(at=1.0, kind="host_partition",
                           target={"stor", "inf1"})
        assert event.target == ("inf1", "stor")

    def test_heal_rejects_clear_after(self):
        with pytest.raises(ValueError, match="instantaneous"):
            FaultEvent(at=1.0, kind="host_partition_heal", target="any",
                       clear_after=2.0)

    def test_partition_with_auto_heal(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="host_partition",
                       target=["stor", "inf1"], clear_after=3.0),
        ]))
        system.run(until=2)
        assert system.network.partitioned_hosts == {"inf1", "stor"}
        assert system.network.severed_between("stor", "col1")
        assert not system.network.severed_between("stor", "inf1")
        assert not system.network.severed_between("col1", "iface")
        system.run(until=10)
        assert system.network.partitioned_hosts == set()
        assert not system.network.severed_between("stor", "col1")

    def test_explicit_heal_event(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at=1.0, kind="host_partition", target=["stor"]),
            FaultEvent(at=4.0, kind="host_partition_heal", target="any"),
        ]))
        system.run(until=2)
        assert system.network.partitioned_hosts == {"stor"}
        system.run(until=10)
        assert system.network.partitioned_hosts == set()

    def test_unknown_island_hosts_raise_before_running(self):
        from repro.workloads.faults import FaultPlan, apply_fault_plan

        system = self._system()
        with pytest.raises(KeyError, match="atlantis"):
            apply_fault_plan(system, FaultPlan([
                FaultEvent(at=1.0, kind="host_partition",
                           target=["stor", "atlantis"]),
            ]))

    def test_split_brain_plan_shape(self):
        from repro.workloads.faults import split_brain_plan

        plan = split_brain_plan(["stor", "inf1"], partition_at=15.0,
                                heal_after=30.0)
        (event,) = list(plan)
        assert event.kind == "host_partition"
        assert event.target == ("inf1", "stor")
        assert event.at == 15.0
        assert event.clear_after == 30.0


class TestDiurnalSpike:
    def test_default_multiplier_replays_byte_identically(self):
        # The spike branch must draw zero RNG at multiplier 1.0, so a
        # pre-spike call signature and an explicit 1.0 produce the very
        # same goal stream.
        mix = RequestMix(10, 10, 10)
        legacy = WorkloadGenerator(seed=7).diurnal_goals(
            mix, ["d1", "d2"], day_length=60.0)
        explicit = WorkloadGenerator(seed=7).diurnal_goals(
            mix, ["d1", "d2"], day_length=60.0,
            spike_multiplier=1.0, spike_start=0.5, spike_length=0.05)
        assert [(g.device_name, g.request_type, g.start_after)
                for g in legacy] == \
               [(g.device_name, g.request_type, g.start_after)
                for g in explicit]

    def test_spike_adds_extra_goals_inside_window(self):
        mix = RequestMix(6, 6, 6)
        goals = WorkloadGenerator(seed=7).diurnal_goals(
            mix, ["d1", "d2"], day_length=100.0,
            spike_multiplier=10.0, spike_start=0.4, spike_length=0.1)
        # round(6 * 9) extra per type on top of the diurnal 6
        assert len(goals) == mix.total + 3 * round(6 * 9.0)
        in_window = [g for g in goals if 40.0 <= g.start_after <= 50.0]
        assert len(in_window) >= 3 * round(6 * 9.0)
        starts = [g.start_after for g in goals]
        assert starts == sorted(starts)

    def test_spike_validation(self):
        mix = RequestMix(2, 2, 2)
        generator = WorkloadGenerator(seed=0)
        with pytest.raises(ValueError, match="spike_multiplier"):
            generator.diurnal_goals(mix, ["d1"], day_length=10.0,
                                    spike_multiplier=0.5)
        with pytest.raises(ValueError, match="spike window"):
            generator.diurnal_goals(mix, ["d1"], day_length=10.0,
                                    spike_multiplier=10.0,
                                    spike_start=0.95, spike_length=0.2)

    def test_traffic_shape_maps_onto_generator(self):
        from repro.workloads.scenarios import TrafficShape

        shape = TrafficShape(day_length=50.0, spike_multiplier=10.0,
                             spike_start=0.4, spike_length=0.1)
        mix = RequestMix(4, 4, 4)
        shaped = shape.goals(mix, ["d1", "d2"], seed=9)
        direct = WorkloadGenerator(seed=9).diurnal_goals(
            mix, ["d1", "d2"], 50.0, spike_multiplier=10.0,
            spike_start=0.4, spike_length=0.1)
        assert [(g.device_name, g.start_after) for g in shaped] == \
               [(g.device_name, g.start_after) for g in direct]
        with pytest.raises(ValueError):
            TrafficShape(day_length=0.0)


class TestScenarioCatalog:
    def test_catalog_lists_all_four(self):
        from repro.workloads.scenarios import SCENARIO_CATALOG

        assert sorted(SCENARIO_CATALOG) == [
            "cascade", "flash_crowd", "rolling_upgrade", "split_brain"]

    def test_catalog_scenario_lookup_and_overrides(self):
        from repro.workloads.scenarios import (
            TIER_DETECTION_SURVIVES, catalog_scenario,
        )

        scenario = catalog_scenario("split_brain", heal_after=40.0)
        assert scenario.name == "split_brain"
        assert scenario.expected_tier == TIER_DETECTION_SURVIVES
        (event,) = list(scenario.fault_plan)
        assert event.clear_after == 40.0
        assert "gossip" in scenario.spec_overrides

    def test_unknown_name_lists_catalog(self):
        from repro.workloads.scenarios import catalog_scenario

        with pytest.raises(KeyError, match="cascade"):
            catalog_scenario("blackout")

    def test_unknown_tier_rejected(self):
        from repro.workloads.scenarios import Scenario

        with pytest.raises(ValueError, match="invariant tier"):
            Scenario("bad", devices=[DeviceSpec("d1", "server", "s")],
                     mix=RequestMix(1, 1, 1), expected_tier="bulletproof")

    def test_flash_crowd_multiplier_band(self):
        from repro.workloads.scenarios import flash_crowd_scenario

        for bad in (1.0, 9.9, 101.0):
            with pytest.raises(ValueError):
                flash_crowd_scenario(spike_multiplier=bad)

    def test_build_goals_prefers_traffic_shape(self):
        from repro.workloads.scenarios import flash_crowd_scenario

        scenario = flash_crowd_scenario(spike_multiplier=10.0,
                                        requests_per_type=4)
        goals = scenario.build_goals(seed=3)
        assert len(goals) > scenario.mix.total  # spike extras present

    def test_compose_downgrades_tier_and_merges_plans(self):
        from repro.workloads.faults import FaultPlan
        from repro.workloads.scenarios import (
            TIER_NO_SILENT_LOSS, Scenario, cascade_scenario,
        )

        burst = Scenario(
            "link_loss_burst",
            devices=[DeviceSpec("d1", "server", "s")],
            mix=RequestMix(1, 1, 1),
            fault_plan=FaultPlan([
                FaultEvent(at=20.0, kind="link_loss_burst", target="wan",
                           loss_rate=0.2, clear_after=15.0),
            ]),
            expected_tier=TIER_NO_SILENT_LOSS,
        )
        base = cascade_scenario()
        composed = base.compose(burst)
        assert composed.name == "cascade+link_loss_burst"
        assert composed.expected_tier == TIER_NO_SILENT_LOSS  # weaker wins
        assert len(composed.fault_plan) == \
            len(base.fault_plan) + 1
        # composition keeps the base workload
        assert composed.devices == base.devices
        assert composed.traffic is base.traffic

    def test_compose_rejects_conflicting_overrides(self):
        from repro.workloads.scenarios import Scenario, cascade_scenario

        other = Scenario(
            "conflict",
            devices=[DeviceSpec("d1", "server", "s")],
            mix=RequestMix(1, 1, 1),
            spec_overrides={"heartbeat_interval": 99.0},
        )
        with pytest.raises(ValueError, match="conflicting spec override"):
            cascade_scenario().compose(other)

    def test_compose_rejects_incoherent_merged_kill_windows(self):
        from repro.workloads.faults import FaultPlan
        from repro.workloads.scenarios import Scenario, cascade_scenario

        # inf1 is down [10, 25) in the cascade; an overlapping window
        # with a different end must be rejected at composition time.
        clashing = Scenario(
            "clash",
            devices=[DeviceSpec("d1", "server", "s")],
            mix=RequestMix(1, 1, 1),
            fault_plan=FaultPlan([
                FaultEvent(at=12.0, kind="host_down", target="inf1",
                           clear_after=30.0),
            ]),
        )
        with pytest.raises(ValueError, match="incompatible clear_after"):
            cascade_scenario().compose(clashing)


class TestAccounting:
    def _report(self, label, host_units):
        rows = [
            HostUtilization(
                name, "host",
                units={ResourceKind.CPU: cpu, ResourceKind.NET: 0.0,
                       ResourceKind.DISK: 0.0},
                busy_time={ResourceKind.CPU: cpu / 10.0},
                horizon=100.0,
            )
            for name, cpu in host_units.items()
        ]
        return UtilizationReport(label, rows, horizon=100.0, makespan=50.0)

    def test_from_hosts_reads_ledgers(self):
        sim = Simulator(seed=1)
        network = Network(sim)
        host = network.add_host("h", "site1", role="manager")
        host.cpu.charge(30.0, "work")
        host.disk.charge(10.0, "work")
        report = UtilizationReport.from_hosts("r", [host], horizon=10.0)
        row = report.host("h")
        assert row.cpu_units == 30.0
        assert row.disk_units == 10.0
        assert row.utilization(ResourceKind.CPU) == pytest.approx(0.3)

    def test_max_host_and_bottleneck(self):
        report = self._report("r", {"a": 10.0, "b": 50.0, "c": 20.0})
        assert report.max_host(ResourceKind.CPU) == ("b", 50.0)
        assert report.bottleneck().host_name == "b"
        assert report.total_units(ResourceKind.CPU) == 80.0

    def test_balance_index_extremes(self):
        even = self._report("even", {"a": 10.0, "b": 10.0})
        skewed = self._report("skew", {"a": 20.0, "b": 0.0})
        assert even.balance_index() == pytest.approx(1.0)
        assert skewed.balance_index() == pytest.approx(0.5)
        empty = self._report("none", {"a": 0.0})
        assert empty.balance_index() == 1.0

    def test_compare_reports_sorted_by_max_host(self):
        reports = [
            self._report("heavy", {"m": 100.0}),
            self._report("light", {"x": 10.0, "y": 12.0}),
        ]
        comparison = compare_reports(reports)
        assert [entry["label"] for entry in comparison] == ["light", "heavy"]

    def test_unknown_host_raises(self):
        report = self._report("r", {"a": 1.0})
        with pytest.raises(KeyError):
            report.host("ghost")

    def test_render_contains_rows(self):
        text = self._report("r", {"a": 1.0}).render()
        assert "[r]" in text
        assert "a" in text


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(("x", "long-header"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("x")

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_format_number(self):
        assert format_number(None) == "-"
        assert format_number(3) == "3"
        assert format_number(3.0) == "3"
        assert format_number(3.14159, digits=2) == "3.14"
