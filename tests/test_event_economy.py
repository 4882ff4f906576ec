"""Kernel events per unit of simulated work.

A transfer costs one kernel event (its arrival), an SNMP answer costs one
(the end of the device's CPU service) and spawns no process, and a timer
that lost its race to a reply is cancelled rather than left to fire.
"""

import pytest

from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.platform import AgentPlatform
from repro.network.addressing import Address
from repro.network.topology import LinkSpec, Network
from repro.network.transport import Message, Transport
from repro.simkernel.simulator import Simulator
from repro.snmp.device import ManagedDevice
from repro.snmp.engine import SnmpEngine
from repro.snmp.manager import SnmpClient
from repro.snmp.mib import std


@pytest.fixture
def sim():
    return Simulator(seed=3)


@pytest.fixture
def network(sim):
    network = Network(sim, wan=LinkSpec(latency=0.05, bandwidth=1000.0))
    for name, site in (("a", "site1"), ("b", "site1"), ("c", "site2")):
        network.add_host(name, site).bind("in", lambda message: None)
    return network


def _count_events(sim):
    fired = []
    sim.add_trace_hook(lambda now, event: fired.append(event.callback))
    return fired


def _message(src, dst, units=2.0, label="x"):
    return Message(Address(src, "out"), Address(dst, "in"), None, units,
                   label=label)


class TestTransferEvents:
    def test_post_costs_one_event_per_transfer(self, sim, network):
        transport = Transport(network)
        fired = _count_events(sim)
        for dst in ("b", "c", "b"):
            transport.post(_message("a", dst))
        sim.run()
        assert len(fired) == 3
        assert transport.messages_delivered == 3

    def test_send_costs_one_event_per_transfer(self, sim, network):
        transport = Transport(network)
        fired = _count_events(sim)
        done = [transport.send(_message("a", dst)) for dst in ("b", "c")]
        sim.run()
        # the arrivals only: nothing waits on the delivery events
        assert len(fired) == 2
        assert all(event.triggered for event in done)

    def test_post_batch_costs_one_event_per_flow(self, sim, network):
        transport = Transport(network)
        fired = _count_events(sim)
        transport.post_batch([_message("a", "b"), _message("a", "c"),
                              _message("a", "b"), _message("a", "b", label="y"),
                              _message("a", "c")])
        sim.run()
        assert len(fired) == 3  # flows (b, x), (c, x), (b, y)
        assert transport.messages_delivered == 5

    def test_a_busy_nic_serves_transfers_back_to_back(self, sim, network):
        transport = Transport(network)
        arrivals = []
        network.host("b").unbind("in")
        network.host("b").bind("in", lambda message: arrivals.append(sim.now))
        transport.post(_message("a", "b", units=10.0))
        transport.post(_message("a", "b", units=10.0))
        sim.run()
        # NIC capacity 10: the second transfer starts when the first ends
        link = network.link_between(network.host("a"), network.host("b"))
        assert arrivals == [1.0 + link.transit_time(10.0),
                            1.0 + (1.0 + link.transit_time(10.0))]
        assert network.host("a").nic.completed_requests == 2


@pytest.fixture
def snmp(sim):
    network = Network(sim)
    manager_host = network.add_host("mgr", "site1", role="manager")
    device_host = network.add_host("dev1", "site1", role="device")
    transport = Transport(network)
    device = ManagedDevice(sim, device_host, profile="server", tick=0.5)
    engine = SnmpEngine(device, transport)
    client = SnmpClient(manager_host, transport, timeout=5.0)
    return device, engine, client


class TestSnmpEvents:
    def test_a_get_spawns_no_process_on_the_device(self, sim, snmp):
        device, engine, client = snmp

        def poll():
            response = yield from client.get("dev1", [std.CPU_LOAD])
            return response

        process = sim.spawn(poll())
        spawned = sim.spawned
        sim.run()
        assert process.result.ok
        assert sim.spawned == spawned
        assert engine.pdus_handled == 1
        assert device.host.cpu.units_by_label["snmp-agent"] == \
            pytest.approx(0.2)

    def test_an_answered_get_leaves_no_timer(self, sim, snmp):
        _, _, client = snmp
        queued = []

        def poll():
            queued.append(len(sim.queue))
            yield from client.get("dev1", [std.CPU_LOAD])
            queued.append(len(sim.queue))

        sim.spawn(poll())
        sim.run()
        assert queued[0] == queued[1]
        # the run ends at the reply, not at the 5 s timeout
        assert sim.now < client.timeout

    def test_requests_queue_back_to_back_on_the_device_cpu(self, sim, snmp):
        device, engine, client = snmp
        answered = []

        def poll(tag):
            yield from client.get("dev1", [std.CPU_LOAD] * 10)
            answered.append(tag)

        sim.spawn(poll("first"))
        sim.spawn(poll("second"))
        sim.run()
        assert answered == ["first", "second"]
        cpu = device.host.cpu
        assert cpu.completed_requests == 2
        assert cpu.busy_time == pytest.approx(2 * 2.0 / cpu.capacity)


class TestReceiveTimer:
    def test_an_answered_receive_cancels_its_timer(self, sim):
        network = Network(sim)
        platform = AgentPlatform(sim, network, Transport(network))
        container = platform.create_container("c", network.add_host("h", "s"))
        agent = Agent("a")
        container.deploy(agent)
        queued = [len(sim.queue)]

        def waiter():
            message = yield from agent.receive(timeout=10.0)
            queued.append(len(sim.queue))
            return message

        process = sim.spawn(waiter())
        sim.schedule(1.0, agent.deliver,
                     (ACLMessage(Performative.INFORM, "x", "a"),))
        sim.run()
        assert process.result is not None
        assert queued[0] == queued[1]
        assert sim.now == 1.0
