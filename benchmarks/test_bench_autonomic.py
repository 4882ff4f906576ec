"""X12 -- storage replication.

Closes one of the paper's future-work items with a measurement:
asynchronous replication mirrors the primary store; the bench quantifies
its overhead (replica CPU/disk/NIC) and proves fetch failover keeps
analysis running after the primary storage agent dies.
"""

from repro.core.replication import ReplicationService
from repro.core.system import GridManagementSystem, GridTopologySpec, HostSpec
from repro.baselines.centralized import default_devices
from repro.evaluation.tables import format_table

from conftest import emit


def test_replication_and_failover(once):
    def run():
        spec = GridTopologySpec(
            devices=default_devices(2),
            collector_hosts=[HostSpec("col1")],
            analysis_hosts=[HostSpec("inf1")],
            storage_host=HostSpec("stor"),
            interface_host=HostSpec("iface"),
            seed=29,
            dataset_threshold=6,
            fetch_timeout=10.0,
            fetch_retries=1,
        )
        system = GridManagementSystem(spec)
        replica_host = system.network.add_host(
            "stor-replica", "site1", role="storage")
        service = ReplicationService(system, [replica_host], lag=0.2)
        system.sim.schedule(
            20.0,
            lambda: system.storage_container.remove(system.storage_agent))
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        completed = system.run_until_records(12, timeout=4000)
        return {
            "completed": completed,
            "records": sum(r.records_analyzed
                           for r in system.interface.reports),
            "replicated": service.records_replicated,
            "failovers": sum(a.fetch_failovers for a in system.analyzers),
            "replica_fetches": service.replica_stores[0].fetches_served,
            "replica_disk": replica_host.disk.total_units,
            "replica_nic": replica_host.nic.total_units,
        }

    result = once(run)
    emit("replication_failover", format_table(
        ("metric", "value"),
        [
            ("workload completed", result["completed"]),
            ("records analyzed", result["records"]),
            ("records replicated", result["replicated"]),
            ("fetch failovers", result["failovers"]),
            ("fetches served by replica", result["replica_fetches"]),
            ("replica disk units (overhead)", "%.0f" % result["replica_disk"]),
            ("replica NIC units (overhead)", "%.1f" % result["replica_nic"]),
        ],
        title="X12: async replication + fetch failover "
              "(primary storage agent killed @20s)",
    ))
    assert result["completed"]
    assert result["records"] == 12
    assert result["replicated"] == 12
    assert result["failovers"] > 0
    assert result["replica_fetches"] > 0
    assert result["replica_disk"] > 0
