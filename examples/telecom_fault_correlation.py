"""Telecom fault correlation across two sites.

Scenario: a telecom operator runs routers and switches at two sites.  A
backbone interface on one router goes down; traffic reroutes and surges
through a neighbour.  Level-1 rules flag each symptom in isolation; the
level-3 cross-inference ("crossing of information from a whole complex of
equipment and not just isolated data") correlates them into a single
``cascade-failure`` incident.  A trap sink shows the asynchronous
notification path next to polling.

Run:  python examples/telecom_fault_correlation.py
"""

from repro import DeviceSpec, GridManagementSystem, GridTopologySpec, HostSpec
from repro.snmp.traps import TrapSink

POLLS_PER_TYPE = 8


def build_system():
    spec = GridTopologySpec(
        devices=[
            DeviceSpec("core-rtr1", "router", "pop-north"),
            DeviceSpec("core-rtr2", "router", "pop-north"),
            DeviceSpec("edge-sw1", "switch", "pop-north"),
            DeviceSpec("core-rtr3", "router", "pop-south"),
            DeviceSpec("edge-sw2", "switch", "pop-south"),
        ],
        collector_hosts=[
            HostSpec("collector-n", "pop-north"),
            HostSpec("collector-s", "pop-south"),
        ],
        analysis_hosts=[
            HostSpec("analysis-1", "noc"),
            HostSpec("analysis-2", "noc"),
        ],
        storage_host=HostSpec("noc-storage", "noc"),
        interface_host=HostSpec("noc-console", "noc"),
        seed=99,
        dataset_threshold=POLLS_PER_TYPE * 3,
        policy="negotiated",      # FIPA contract-net placement
    )
    return GridManagementSystem(spec)


def inject_cascade(system):
    """Backbone link dies; neighbour takes the rerouted traffic."""
    rtr1 = system.devices["core-rtr1"]
    rtr2 = system.devices["core-rtr2"]
    rtr1.inject_fault("interface_down", interface=2)
    # rtr2 sees 6x its usual traffic
    rtr2.profile = type(rtr2.profile)(
        "router-hot", interface_count=rtr2.profile.interface_count,
        process_slots=rtr2.profile.process_slots,
        cpu_mean=rtr2.profile.cpu_mean,
        cpu_sigma=rtr2.profile.cpu_sigma,
        mem_total_kb=rtr2.profile.mem_total_kb,
        disk_total_kb=rtr2.profile.disk_total_kb,
        traffic_rate=rtr2.profile.traffic_rate * 6.0,
    )


def main():
    system = build_system()

    # asynchronous path: the dying router also raises a trap at the NOC
    sink = TrapSink(system.network.host("noc-console"), system.transport,
                    port="noc-traps")
    sink.subscribe(lambda trap: print(
        "TRAP  t=%6.1f  %s %s %s" % (
            system.sim.now, trap.device_name, trap.kind, trap.severity)))

    # Warm-up sweep establishes traffic baselines in storage, so the
    # level-2 surge rule has history to compare against.
    system.assign_goals(system.make_paper_goals(
        polls_per_type=POLLS_PER_TYPE, interval=1.0))
    warmup_records = POLLS_PER_TYPE * 3
    system.run_until_records(warmup_records, timeout=4000)
    print("warm-up done at t=%.1f (baselines stored: %d series)" % (
        system.sim.now, system.store.summary()["series"]))

    # The cascade hits; the router traps, then the next sweep finds it.
    inject_cascade(system)
    sink.emit_from(system.devices["core-rtr1"], "linkDown",
                   {"interface": 2}, severity="critical")
    system.assign_goals(system.make_paper_goals(
        polls_per_type=POLLS_PER_TYPE, interval=1.0))
    system.run_until_records(2 * warmup_records, timeout=4000)

    print()
    print(system.utilization_report("telecom NOC").render())
    print()
    print("incidents and problems found:")
    for finding in system.interface.all_findings():
        marker = "L%d" % finding.level
        print("  [%s] %-18s %-8s %-22s site=%s" % (
            marker, finding.kind, finding.severity, finding.device,
            finding.site))
    incident_kinds = {f.kind for f in system.interface.all_findings()
                      if f.level == 3}
    print()
    print("level-3 correlation produced:", sorted(incident_kinds) or "nothing")


if __name__ == "__main__":
    main()
