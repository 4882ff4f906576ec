"""Shared run harness for the three Figure 6 architectures.

Given a :class:`~repro.core.system.GridTopologySpec` (the grid proper, or
one of the degenerate baseline specs), :func:`run_architecture` executes
the paper's workload -- N requests of each type A/B/C -- waits for every
record to flow through collection, classification, storage, analysis and
reporting, and returns a :class:`RunResult` with the per-host utilization
rows Figure 6 plots.
"""

import math

from repro.core.system import GridManagementSystem
from repro.evaluation.accounting import UtilizationReport


class RunResult:
    """Outcome of one architecture run."""

    def __init__(self, label, system, report, makespan, completed):
        self.label = label
        self.system = system
        self.report = report
        self.makespan = makespan
        self.completed = completed

    @property
    def findings(self):
        return self.system.interface.all_findings()

    @property
    def records_analyzed(self):
        return sum(r.records_analyzed for r in self.system.interface.reports)

    def __repr__(self):
        return "RunResult(%r, makespan=%s, hosts=%d)" % (
            self.label, self.makespan, len(self.report),
        )


def expected_report_count(total_records, dataset_threshold):
    """How many dataset reports the classifier will publish."""
    if dataset_threshold is None:
        return 1
    return max(1, math.ceil(total_records / dataset_threshold))


def run_architecture(spec, label, polls_per_type=10, interval=1.0,
                     stagger=0.1, timeout=600.0):
    """Run the paper's workload on one architecture.

    Returns a :class:`RunResult`; ``completed`` is False when the timeout
    expired before every report arrived (the report then covers whatever
    work happened, which is still meaningful for pathological configs).
    """
    system = GridManagementSystem(spec)
    goals = system.make_paper_goals(
        polls_per_type=polls_per_type, interval=interval, stagger=stagger,
    )
    system.assign_goals(goals)
    total_records = polls_per_type * 3
    completed = system.run_until_records(total_records, timeout=timeout)
    reports = system.interface.reports
    makespan = max((r.generated_at for r in reports), default=system.sim.now)
    report = UtilizationReport.from_hosts(
        label, system.management_hosts(), horizon=system.sim.now,
        makespan=makespan,
    )
    return RunResult(label, system, report, makespan, completed)


def run_figure6(polls_per_type=10, seed=0, cost_model=None, device_count=3,
                timeout=600.0, dataset_threshold=None):
    """Run all three architectures on the same workload and seed.

    ``dataset_threshold`` defaults to the full workload size so each run
    produces exactly one dataset -- and therefore exactly one
    "Inference AxBxC" cross analysis, matching the paper's Table 1 scenario.

    Returns ``{"centralized": RunResult, "multiagent": ..., "grid": ...}``.
    """
    if dataset_threshold is None:
        dataset_threshold = polls_per_type * 3
    from repro.baselines.centralized import centralized_spec, default_devices
    from repro.baselines.multiagent import multiagent_spec
    from repro.core.system import GridTopologySpec

    devices = default_devices(device_count)
    results = {}
    results["centralized"] = run_architecture(
        centralized_spec(devices=list(devices), seed=seed,
                         cost_model=cost_model,
                         dataset_threshold=dataset_threshold),
        label="centralized",
        polls_per_type=polls_per_type,
        timeout=timeout,
    )
    results["multiagent"] = run_architecture(
        multiagent_spec(devices=list(devices), seed=seed,
                        cost_model=cost_model,
                        dataset_threshold=dataset_threshold),
        label="multiagent",
        polls_per_type=polls_per_type,
        timeout=timeout,
    )
    grid_spec = GridTopologySpec.paper_figure6c(
        seed=seed, cost_model=cost_model, dataset_threshold=dataset_threshold,
    )
    grid_spec.devices = list(devices)
    results["grid"] = run_architecture(
        grid_spec, label="grid", polls_per_type=polls_per_type, timeout=timeout,
    )
    return results
