"""X11 -- Autonomic mobility balancing; X12 -- storage replication.

Both close the paper's future-work items with measurements:

* X11: jobs pile on a weak analyzer host (round-robin over one registered
  container); the :class:`MobilityBalancer` notices the pressure gap and
  migrates the analyzer to the idle fast host, without any driver help.
* X12: asynchronous replication mirrors the primary store; the bench
  quantifies its overhead (replica CPU/disk/NIC) and proves fetch failover
  keeps analysis running after the primary storage agent dies.
"""

from repro.core.autonomic import MobilityBalancer
from repro.core.replication import ReplicationService
from repro.core.system import GridManagementSystem, GridTopologySpec, HostSpec
from repro.baselines.centralized import default_devices
from repro.evaluation.tables import format_table

from conftest import emit


def _slow_analyzer_spec(seed):
    return GridTopologySpec(
        devices=default_devices(3),
        collector_hosts=[HostSpec("col1")],
        analysis_hosts=[HostSpec("slow-host", cpu_capacity=2.0)],
        storage_host=HostSpec("stor"),
        interface_host=HostSpec("iface"),
        seed=seed,
        dataset_threshold=10,
        job_timeout=10.0,
    )


def _run_autonomic(balance):
    system = GridManagementSystem(_slow_analyzer_spec(seed=23))
    fast_host = system.network.add_host("fast-host", "site1",
                                        role="analysis", cpu_capacity=20.0)
    fast_container = system.platform.create_container(
        "fast-container", fast_host, services=("analysis",))
    balancer = None
    if balance:
        balancer = MobilityBalancer(
            system.platform,
            [system.analysis_containers[0], fast_container],
            period=10.0, imbalance_threshold=5.0,
        )
    system.assign_goals(system.make_paper_goals(polls_per_type=10))
    completed = system.run_until_records(30, timeout=8000)
    return {
        "completed": completed,
        "makespan": max(r.generated_at for r in system.interface.reports),
        "records": sum(r.records_analyzed for r in system.interface.reports),
        "migrations": balancer.migrations if balancer else 0,
        "fast_cpu": fast_host.cpu.total_units,
    }


def test_autonomic_balancing(once):
    def run_both():
        return _run_autonomic(balance=False), _run_autonomic(balance=True)

    static, balanced = once(run_both)
    emit("autonomic_balancing", format_table(
        ("run", "records", "makespan (s)", "migrations",
         "fast-host CPU units"),
        [
            ("static (slow host only)", static["records"],
             "%.1f" % static["makespan"], 0, "%.0f" % static["fast_cpu"]),
            ("autonomic balancer", balanced["records"],
             "%.1f" % balanced["makespan"], balanced["migrations"],
             "%.0f" % balanced["fast_cpu"]),
        ],
        title="X11: mobility balancer vs static placement (2 vs 20 "
              "units/s hosts)",
    ))
    assert static["completed"] and balanced["completed"]
    assert balanced["migrations"] >= 1
    assert balanced["fast_cpu"] > 0          # work genuinely moved
    assert balanced["makespan"] < 0.9 * static["makespan"]


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
