"""Placement, not migration, is how the grid uses a faster host.

The paper places analysis work by knowledge, capacity and idleness
(section 3.5) and lists mobile agents only as future work.  These cells
pin the fair static baseline against which agent migration was measured
and removed: the same topologies and seeds as the former migration
experiments, but with an analyzer deployed on both the 2-units/s and the
20-units/s host and the default knowledge-first placement.  Migrating
the lone slow-host analyzer to the fast host at t=40 s finished the
first cell at 190.0 s, and the autonomic balancer finished the second at
143.5 s; placement matches or beats both, without moving an agent.
"""

from repro.baselines.centralized import default_devices
from repro.core.system import GridManagementSystem, GridTopologySpec, HostSpec


def _run_fair_baseline(seed, dataset_threshold):
    spec = GridTopologySpec(
        devices=default_devices(3),
        collector_hosts=[HostSpec("col1", "site1")],
        analysis_hosts=[
            HostSpec("slow-host", "site1", cpu_capacity=2.0),
            HostSpec("fast-host", "site1", cpu_capacity=20.0),
        ],
        storage_host=HostSpec("stor", "site1"),
        interface_host=HostSpec("iface", "site1"),
        seed=seed,
        dataset_threshold=dataset_threshold,
        job_timeout=10.0,
        telemetry=True,
    )
    system = GridManagementSystem(spec)
    system.assign_goals(system.make_paper_goals(polls_per_type=10))
    assert system.run_until_records(30, timeout=8000)
    assert sum(r.records_analyzed for r in system.interface.reports) == 30
    return system


def _makespan(system):
    return max(report.generated_at for report in system.interface.reports)


def _slow_infer_units(system):
    return system.network.host("slow-host").cpu.units_by_label["infer"]


def test_one_big_dataset_seed17():
    # Job-5 (traffic cluster) on the fast host has a CPU-only deadline
    # and times out at t=167.5 s while queued behind two other jobs; the
    # re-dispatch goes to the slow host, but job-5's own answer arrives
    # at t=171.5 s and settles the cluster.  Were that answer thrown away
    # as a duplicate, the slow host would answer at t=273.1 s and the
    # run would take 276.0 s.
    system = _run_fair_baseline(seed=17, dataset_threshold=30)
    assert round(_makespan(system), 1) == 176.0
    assert _slow_infer_units(system) == 0
    attempts = {
        span.detail["job_id"]: (span.detail["cluster"],
                                span.detail["attempt"],
                                span.detail["container"], span.status)
        for span in system.telemetry.recorder.find(name="dispatch")
    }
    assert attempts["job-5"] == ("traffic", 1, "analysis-2", "timeout")
    assert attempts["job-6"] == ("traffic", 2, "analysis-1", "superseded")
    assert system.root.jobs_redispatched == 1
    assert system.root.duplicate_results == 0


def test_ten_record_datasets_seed23():
    system = _run_fair_baseline(seed=23, dataset_threshold=10)
    assert round(_makespan(system), 1) == 143.5
    assert _slow_infer_units(system) == 0
    assert system.root.jobs_redispatched == 0
