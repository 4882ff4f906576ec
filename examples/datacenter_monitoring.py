"""Continuous datacenter monitoring with runtime-learned rules.

Scenario: a 12-server datacenter monitored continuously (periodic goals on
every device).  Mid-run, one server springs a memory leak and another
starts filling its disk.  The stock rule base flags the disk; the
operations team then teaches the grid a stricter memory rule through the
interface grid's feedback channel (the paper's "the agents of the grid can
learn new rules"), and the next collection cycles page them.

Run:  python examples/datacenter_monitoring.py
"""

from repro import DeviceSpec, GridManagementSystem, GridTopologySpec, HostSpec
from repro.rules.conditions import LT, Pattern, Var
from repro.rules.engine import Rule
from repro.workloads.generator import WorkloadGenerator

SERVERS = 12
CYCLES = 4
POLL_INTERVAL = 30.0


def build_system():
    spec = GridTopologySpec(
        devices=[DeviceSpec("srv%02d" % i, "server", "dc1")
                 for i in range(1, SERVERS + 1)],
        collector_hosts=[HostSpec("probe1", "dc1"), HostSpec("probe2", "dc1")],
        analysis_hosts=[HostSpec("brain1", "dc1"), HostSpec("brain2", "dc1")],
        storage_host=HostSpec("tsdb", "dc1"),
        interface_host=HostSpec("noc", "dc1"),
        seed=7,
        dataset_threshold=SERVERS * 3,   # one dataset per sweep
        policy="capacity",
    )
    return GridManagementSystem(spec)


def teach_memory_rule(system):
    """Feedback loop: a stricter low-memory rule, learned at runtime.

    250 MB available is well under the healthy steady state (~600 MB on
    these 1 GB servers), so only a genuine leak trips it.
    """
    strict = Rule(
        "low-memory-strict",
        [Pattern("sample", bind="sample", metric="mem_available",
                 value=LT(250 * 1024), device=Var("device"),
                 site=Var("site"))],
        lambda context: context.assert_fact(
            "problem", kind="memory-pressure", severity="major",
            device=context["device"], site=context["site"],
            value=context["sample"]["value"], metric="mem_available"),
        group="performance", level=1,
    )
    skipped = system.interface.submit_rule(
        strict, [analyzer.name for analyzer in system.analyzers])
    print("taught rule 'low-memory-strict' (skipped: %s)" % (skipped or "none"))


def main():
    system = build_system()
    generator = WorkloadGenerator(seed=7)
    goals = generator.periodic_goals(
        sorted(system.devices), polls_per_device=CYCLES,
        interval=POLL_INTERVAL,
    )
    system.assign_goals(goals)

    # faults appear during the second sweep
    system.sim.schedule(
        POLL_INTERVAL + 5.0,
        system.devices["srv03"].inject_fault, ("memory_leak",))
    system.sim.schedule(
        POLL_INTERVAL + 5.0,
        system.devices["srv07"].inject_fault, ("disk_filling",))

    # ... and the NOC teaches the stricter rule after the second sweep
    system.sim.schedule(2 * POLL_INTERVAL, teach_memory_rule, (system,))

    total_records = SERVERS * 3 * CYCLES
    completed = system.run_until_records(total_records, timeout=20000)

    print("completed:", completed,
          " records analyzed:", sum(r.records_analyzed
                                    for r in system.interface.reports))
    print()
    print(system.utilization_report("datacenter").render())
    print()
    kinds = {}
    for finding in system.interface.all_findings():
        kinds.setdefault(finding.kind, set()).add(finding.device)
    print("findings by kind:")
    for kind in sorted(kinds):
        print("  %-22s %s" % (kind, ", ".join(sorted(kinds[kind]))))
    print("alerts raised: %d" % len(system.interface.alerts))


if __name__ == "__main__":
    main()
