"""End-to-end invariants over a full grid run.

These tests run one deployment and then cross-check global bookkeeping:
message conservation, cost-ledger consistency with Table 1, SNMP
exchange counts, and platform statistics.  They are the guards that keep the
subsystems honest with each other.
"""

import pytest

from repro.core.costs import TaskKind
from repro.core.system import GridManagementSystem, GridTopologySpec
from repro.simkernel.resources import ResourceKind


@pytest.fixture(scope="module")
def run():
    """One paper-scenario run shared by every test in the module."""
    spec = GridTopologySpec.paper_figure6c(seed=33, dataset_threshold=30)
    system = GridManagementSystem(spec)
    system.assign_goals(system.make_paper_goals(polls_per_type=10))
    completed = system.run_until_records(30, timeout=4000)
    return system, completed


def snmp_pdus(system):
    return sum(engine.pdus_handled
               for engine in system.device_engines.values())


class TestPipelineInvariants:
    def test_run_completed(self, run):
        system, completed = run
        assert completed

    def test_every_poll_became_a_stored_record(self, run):
        system, completed = run
        polls = sum(c.polls_completed for c in system.collectors)
        shipped = sum(c.records_shipped for c in system.collectors)
        assert polls == shipped == 30
        assert system.classifier.records_classified == 30
        assert system.store.records_stored == 30

    def test_every_stored_record_was_analyzed_once(self, run):
        system, completed = run
        analyzed = sum(a.records_analyzed for a in system.analyzers)
        assert analyzed == 30
        reported = sum(r.records_analyzed for r in system.interface.reports)
        assert reported == 30

    def test_request_cpu_matches_table1(self, run):
        system, completed = run
        request_cpu = sum(
            c.host.cpu.units_by_label.get(TaskKind.REQUEST, 0.0)
            for c in system.collectors
        )
        # 30 polls x Request cpu 10 (all types cost the same here)
        assert request_cpu == pytest.approx(300.0)

    def test_parse_cpu_matches_table1(self, run):
        system, completed = run
        parse_cpu = sum(
            c.host.cpu.units_by_label.get(TaskKind.PARSE, 0.0)
            for c in system.collectors
        )
        assert parse_cpu == pytest.approx(30 * 15.0)

    def test_store_costs_land_on_storage_host(self, run):
        system, completed = run
        storage_host = system.store.host
        store_cost = system.cost_model.store_cost()
        assert storage_host.cpu.units_by_label["store"] == \
            pytest.approx(30 * store_cost.cpu)
        assert storage_host.disk.units_by_label["store"] == \
            pytest.approx(30 * store_cost.disk)

    def test_inference_cpu_matches_table1(self, run):
        system, completed = run
        infer_cpu = sum(
            a.host.cpu.units_by_label.get(TaskKind.INFER, 0.0)
            for a in system.analyzers
        )
        cross_cpu = sum(
            a.host.cpu.units_by_label.get(TaskKind.INFER_CROSS, 0.0)
            for a in system.analyzers
        )
        assert infer_cpu == pytest.approx(30 * 20.0)
        assert cross_cpu == pytest.approx(40.0)  # one dataset, one cross

    def test_message_conservation(self, run):
        system, completed = run
        stats = system.transport.stats()
        # sent = delivered + dropped + (a handful still in flight when the
        # driver stopped the clock)
        in_flight = stats["sent"] - stats["delivered"] - stats["dropped"]
        assert 0 <= in_flight <= 5
        assert stats["dropped"] == 0
        # every SNMP exchange is two deliveries (request + response); the
        # rest are agent messages, never more than the platform routed
        pdus = snmp_pdus(system)
        assert 2 * pdus < stats["delivered"] <= \
            2 * pdus + system.platform.stats()["routed"]

    def test_snmp_traffic_dominates_wire_protocols(self, run):
        system, completed = run
        polls = sum(c.polls_completed for c in system.collectors)
        pdus = snmp_pdus(system)
        assert pdus == polls == 30
        # 30 polls = 30 requests + 30 responses: more wire deliveries than
        # every agent message together
        delivered = system.transport.stats()["delivered"]
        assert 2 * pdus > delivered - 2 * pdus > 0

    def test_platform_routed_everything_it_accepted(self, run):
        system, completed = run
        stats = system.platform.stats()
        assert stats["failed"] == 0
        assert stats["routed"] > 0

    def test_nic_ledgers_match_wire_traffic(self, run):
        system, completed = run
        # every unit the transport carried was charged at two NICs
        total_nic = sum(
            host.nic.total_units for host in system.network.hosts.values()
        )
        assert total_nic == pytest.approx(
            2 * system.transport.units_carried)

    def test_report_totals_equal_host_ledgers(self, run):
        system, completed = run
        report = system.utilization_report()
        ledger_cpu = sum(
            host.cpu.total_units for host in system.management_hosts()
        )
        assert report.total_units(ResourceKind.CPU) == pytest.approx(
            ledger_cpu)
