"""X13 -- Diurnal load: absorbing the busy-hours peak.

Monitoring load is not flat: most collection lands in business hours.  The
bench compresses a day's requests (70% inside the peak half of a 300 s
"day") and compares how fast the multi-agent baseline and the grid *drain*
the backlog after the day ends -- the bottleneck host of the centralized
analysis keeps paying long after the peak, while the grid's distributed
analyzers track the load.
"""

from repro.baselines.multiagent import multiagent_spec
from repro.core.system import GridManagementSystem, GridTopologySpec
from repro.evaluation.tables import format_table
from repro.workloads.generator import RequestMix, WorkloadGenerator

from conftest import emit

DAY = 300.0
MIX = RequestMix(20, 20, 20)


def _run(spec, label):
    system = GridManagementSystem(spec)
    generator = WorkloadGenerator(seed=19)
    goals = generator.diurnal_goals(
        MIX, sorted(system.devices), day_length=DAY, peak_fraction=0.7,
    )
    system.assign_goals(goals)
    completed = system.run_until_records(MIX.total, timeout=8000)
    makespan = max(r.generated_at for r in system.interface.reports)
    return {
        "label": label,
        "completed": completed,
        "makespan": makespan,
        "drain": max(0.0, makespan - DAY),
        "records": sum(r.records_analyzed for r in system.interface.reports),
    }


def test_diurnal_peak_absorption(once):
    def run_both():
        grid = _run(
            GridTopologySpec.paper_figure6c(seed=19, dataset_threshold=10),
            "grid",
        )
        multi = _run(
            multiagent_spec(seed=19, dataset_threshold=10),
            "multiagent",
        )
        return grid, multi

    grid, multi = once(run_both)
    emit("diurnal", format_table(
        ("architecture", "records", "makespan (s)",
         "drain after day end (s)"),
        [
            (row["label"], row["records"], "%.1f" % row["makespan"],
             "%.1f" % row["drain"])
            for row in (multi, grid)
        ],
        title="X13: 60 requests in a %.0fs day, 70%% inside the peak" % DAY,
    ))
    assert grid["completed"] and multi["completed"]
    assert grid["records"] == multi["records"] == MIX.total
    # the grid drains the peak backlog sooner than the centralized-analysis
    # baseline
    assert grid["makespan"] < multi["makespan"]
