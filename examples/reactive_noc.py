"""A reactive NOC: traps, instant polls, alert subscriptions, learned rules.

This example wires together the event-driven pieces around the grid:

1. devices send **traps** when things break;
2. the :class:`ReactiveCollectionService` converts each trap into an
   immediate poll (with storm suppression), so analysis sees fresh data
   within seconds instead of waiting for the next sweep;
3. an operator's **user agent subscribes** to alerts (FIPA SUBSCRIBE) and
   receives pushes for everything >= major;
4. mid-run the operator **teaches the grid a rule as data** (a declarative
   RuleSpec transmitted over ACL), tightening the CPU threshold.

Run:  python examples/reactive_noc.py
"""

from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour
from repro.core.reactive import ReactiveCollectionService
from repro.core.system import GridManagementSystem, GridTopologySpec, HostSpec
from repro.baselines.centralized import default_devices
from repro.rules.catalog import RuleSpec


class OperatorAgent(Agent):
    """Subscribes to alerts and prints them as they arrive."""

    def __init__(self, name):
        super().__init__(name)
        self.alerts = []

    def setup(self):
        operator = self

        class Listen(CyclicBehaviour):
            def step(self):
                message = yield from self.receive()
                if message is not None and message.ontology == "alert":
                    operator.alerts.append(message.content)
                    print("PUSH  t=%6.1f  %s %s on %s" % (
                        operator.sim.now, message.content["kind"],
                        message.content["severity"],
                        message.content["device"]))

        self.add_behaviour(Listen())
        self.send(ACLMessage(
            Performative.SUBSCRIBE, sender=self.name, receiver="interface",
            content={"min_severity": "major"},
            ontology="alert-subscription",
        ))


def main():
    spec = GridTopologySpec(
        devices=default_devices(4),
        collector_hosts=[HostSpec("probe1"), HostSpec("probe2")],
        analysis_hosts=[HostSpec("brain1"), HostSpec("brain2")],
        storage_host=HostSpec("tsdb"),
        interface_host=HostSpec("noc"),
        seed=77,
        dataset_threshold=4,     # small datasets: fast reaction to traps
    )
    system = GridManagementSystem(spec)

    # operator's user agent on its own workstation
    workstation = system.network.add_host("workstation", "site1", role="user")
    operator_container = system.platform.create_container(
        "operator-c", workstation)
    operator = OperatorAgent("operator")
    operator_container.deploy(operator)

    # trap-driven collection
    reactive = ReactiveCollectionService(
        system.network.host("noc"), system.transport, system.collectors,
        cooldown=10.0,
    )

    # background sweep (slow!) so baselines exist
    system.assign_goals(system.make_paper_goals(polls_per_type=4,
                                                interval=10.0))

    # at t=30 a device melts down and traps immediately
    def meltdown():
        system.devices["dev2"].inject_fault("cpu_runaway")
        reactive.sink.emit_from(system.devices["dev2"], "cpuHigh",
                                severity="major")

    system.sim.schedule(30.0, meltdown)

    # at t=40 the operator tightens the CPU rule, shipped as data
    def teach():
        spec_obj = RuleSpec("high-cpu", {"threshold": 70.0},
                            rename="high-cpu-tight")
        system.interface.submit_rule_spec(
            spec_obj, [analyzer.name for analyzer in system.analyzers])
        print("TEACH t=%6.1f  high-cpu-tight (threshold 70%%) -> %d analyzers"
              % (system.sim.now, len(system.analyzers)))

    system.sim.schedule(40.0, teach)

    system.run_until_records(12, timeout=4000)
    system.run(until=system.sim.now + 60)   # let reactions finish

    print()
    print(system.utilization_report("reactive NOC").render())
    print()
    print("traps: %d   reactions: %d   suppressed: %d" % (
        len(reactive.sink.received), reactive.reactions,
        reactive.suppressed))
    print("alert pushes received by operator: %d" % len(operator.alerts))
    learned = {
        analyzer.name: analyzer.knowledge_base.learned
        for analyzer in system.analyzers
    }
    print("learned rules:", learned)


if __name__ == "__main__":
    main()
