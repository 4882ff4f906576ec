"""Quickstart: run the paper's Figure 6(c) agent grid end to end.

Builds the deployment from the paper's evaluation (3 managed devices,
3 collector hosts, 1 storage host, 2 inference hosts), runs 10 requests of
each type (A = performance, B = storage, C = traffic), and prints the
per-host utilization the paper plots plus whatever the analysis found.

Run:  python examples/quickstart.py
"""

from repro import GridManagementSystem, GridTopologySpec


def main():
    spec = GridTopologySpec.paper_figure6c(seed=2026, dataset_threshold=30)
    system = GridManagementSystem(spec)

    # Spice the telemetry up so the rule base has something to find.
    system.devices["dev1"].inject_fault("cpu_runaway")
    system.devices["dev2"].inject_fault("interface_down", interface=1)

    goals = system.make_paper_goals(polls_per_type=10)
    system.assign_goals(goals)

    completed = system.run_until_records(total=30, timeout=2000)
    print("workload completed:", completed)
    print()
    print(system.utilization_report("figure-6c grid").render())
    print()

    print("reports: %d   alerts: %d" % (
        len(system.interface.reports), len(system.interface.alerts)))
    for report in system.interface.reports:
        for finding in report.deduplicated():
            print("  %-18s %-8s device=%-12s level=%d" % (
                finding.kind, finding.severity, finding.device, finding.level))


if __name__ == "__main__":
    main()
