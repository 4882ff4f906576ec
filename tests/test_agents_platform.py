"""Unit tests for agents, containers, the platform and behaviours."""

import pytest

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import (
    CyclicBehaviour,
    FSMBehaviour,
    OneShotBehaviour,
    TickerBehaviour,
)
from repro.agents.platform import AgentPlatform, PlatformError


class Recorder(Agent):
    """Collects everything it receives."""

    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def setup(self):
        agent = self

        class Collect(CyclicBehaviour):
            def step(self):
                message = yield from self.receive()
                if message is not None:
                    agent.got.append(message)

        self.add_behaviour(Collect())


@pytest.fixture
def deployment(sim, network, transport):
    platform = AgentPlatform(sim, network, transport)
    host_a = network.add_host("ha", "site1")
    host_b = network.add_host("hb", "site1")
    container_a = platform.create_container("ca", host_a)
    container_b = platform.create_container("cb", host_b)
    return platform, container_a, container_b


class TestPlatformRouting:
    def test_interhost_message_charges_nics(self, sim, deployment):
        platform, container_a, container_b = deployment
        sender, receiver = Recorder("send"), Recorder("recv")
        container_a.deploy(sender)
        container_b.deploy(receiver)
        sender.send(ACLMessage(
            Performative.INFORM, "send", "recv", size_units=4.0,
        ))
        sim.run(until=10)
        assert len(receiver.got) == 1
        assert container_a.host.nic.total_units == 4.0
        assert container_b.host.nic.total_units == 4.0

    def test_intrahost_message_is_free(self, sim, deployment):
        platform, container_a, _ = deployment
        sender, receiver = Recorder("send"), Recorder("recv")
        container_a.deploy(sender)
        container_a.deploy(receiver)
        sender.send(ACLMessage(
            Performative.INFORM, "send", "recv", size_units=4.0,
        ))
        sim.run(until=10)
        assert len(receiver.got) == 1
        assert container_a.host.nic.total_units == 0.0

    def test_unknown_receiver_bounces_failure(self, sim, deployment):
        platform, container_a, _ = deployment
        sender = Recorder("send")
        container_a.deploy(sender)
        sender.send(ACLMessage(Performative.INFORM, "send", "ghost"))
        sim.run(until=10)
        assert len(sender.got) == 1
        assert sender.got[0].performative == Performative.FAILURE
        assert platform.messages_failed == 1

    @pytest.mark.parametrize("sender_name", ["ghost", "removed"])
    def test_undeployed_sender_is_refused(self, sim, deployment,
                                          sender_name):
        # A sender with no container has no host to charge, so the
        # message must not reach the receiver for free.
        platform, container_a, container_b = deployment
        receiver = Recorder("recv")
        container_b.deploy(receiver)
        removed = Recorder("removed")
        container_a.deploy(removed)
        container_a.remove(removed)
        platform.send(ACLMessage(
            Performative.INFORM, sender_name, "recv", size_units=4.0))
        sim.run(until=10)
        assert receiver.got == []
        assert platform.messages_failed == 1
        assert platform.messages_routed == 0
        assert container_b.host.nic.total_units == 0.0

    def test_duplicate_agent_name_rejected(self, sim, deployment):
        platform, container_a, container_b = deployment
        container_a.deploy(Recorder("same"))
        with pytest.raises(PlatformError):
            container_b.deploy(Recorder("same"))

    def test_duplicate_container_name_rejected(self, sim, network, deployment):
        platform, _, _ = deployment
        host = network.add_host("hx", "site1")
        with pytest.raises(PlatformError):
            platform.create_container("ca", host)

    def test_stats_and_lookup(self, sim, deployment):
        platform, container_a, container_b = deployment
        agent = Recorder("a1")
        container_a.deploy(agent)
        assert platform.agent("a1") is agent
        assert platform.container_of("a1") is container_a
        assert "a1" in platform.agent_names()
        stats = platform.stats()
        assert stats["agents"] == 1
        assert stats["containers"] == 2


class TestAgentMailbox:
    def test_receive_matches_template(self, sim, deployment):
        platform, container_a, _ = deployment
        agent = Agent("a")
        container_a.deploy(agent)
        results = {}

        def waiter():
            message = yield from agent.receive(
                MessageTemplate(performative=Performative.CFP))
            results["got"] = message

        sim.spawn(waiter())
        agent.deliver(ACLMessage(Performative.INFORM, "x", "a"))
        agent.deliver(ACLMessage(Performative.CFP, "x", "a"))
        sim.run(until=5)
        assert results["got"].performative == Performative.CFP
        assert agent.mailbox_size == 1  # the INFORM stayed queued

    def test_receive_timeout_returns_none(self, sim, deployment):
        platform, container_a, _ = deployment
        agent = Agent("a")
        container_a.deploy(agent)

        def waiter():
            message = yield from agent.receive(timeout=2.0)
            return (message, sim.now)

        process = sim.spawn(waiter())
        sim.run(until=10)
        assert process.result == (None, 2.0)

    def test_receive_nowait(self, sim, deployment):
        platform, container_a, _ = deployment
        agent = Agent("a")
        container_a.deploy(agent)
        assert agent.receive_nowait() is None
        agent.deliver(ACLMessage(Performative.INFORM, "x", "a"))
        assert agent.receive_nowait() is not None
        assert agent.receive_nowait() is None

    def test_queued_message_served_before_waiting(self, sim, deployment):
        platform, container_a, _ = deployment
        agent = Agent("a")
        container_a.deploy(agent)
        agent.deliver(ACLMessage(Performative.INFORM, "x", "a", content=1))

        def waiter():
            message = yield from agent.receive()
            return message.content

        process = sim.spawn(waiter())
        sim.run(until=5)
        assert process.result == 1

    def test_message_after_stop_is_queued_not_swallowed(self, sim, deployment):
        # Stopping kills the behaviour blocked in receive(); its waiter
        # must go with it, or it would swallow the next message.
        platform, container_a, _ = deployment
        agent = Recorder("r")
        container_a.deploy(agent)
        sim.run(until=1)
        assert len(agent._waiters) == 1
        agent.stop()
        assert agent._waiters == []
        agent.deliver(ACLMessage(Performative.INFORM, "x", "r", content=7))
        assert agent.mailbox_size == 1
        assert agent.receive_nowait().content == 7
        assert agent.got == []


class TestContainers:
    def test_profile_reflects_container(self, sim, deployment):
        platform, container_a, _ = deployment
        container_a.services = ("analysis",)
        container_a.knowledge = ("traffic",)
        profile = container_a.profile()
        assert profile.offers("analysis")
        assert profile.knows("traffic")
        assert not profile.knows("performance")
        assert profile.idle
        assert profile.host_name == "ha"

    def test_generalist_knows_everything(self, sim, deployment):
        platform, container_a, _ = deployment
        profile = container_a.profile()
        assert profile.knowledge == ()
        assert profile.knows("anything")

    def test_profile_ontology_round_trip(self, sim, deployment):
        platform, container_a, _ = deployment
        content = container_a.profile().to_content()
        assert content["container"] == "ca"
        assert content["host"] == "ha"

    def test_shutdown_stops_agents(self, sim, deployment):
        platform, container_a, _ = deployment
        agent = Recorder("doomed")
        container_a.deploy(agent)
        container_a.shutdown()
        assert not agent.alive
        assert platform.agent("doomed") is None
        assert "ca" not in platform.containers
        with pytest.raises(RuntimeError):
            container_a.deploy(Recorder("late"))

    def test_remove_undeployed_agent_rejected(self, sim, deployment):
        platform, container_a, _ = deployment
        with pytest.raises(ValueError):
            container_a.remove(Recorder("never-deployed"))


class TestBehaviours:
    def test_one_shot_runs_once(self, sim, deployment):
        platform, container_a, _ = deployment
        runs = []

        class Once(OneShotBehaviour):
            def action(self):
                yield 1.0
                runs.append(sim.now)

        agent = Agent("a")
        container_a.deploy(agent)
        behaviour = agent.add_behaviour(Once())
        sim.run(until=10)
        assert runs == [1.0]
        assert behaviour.done
        assert behaviour not in agent.behaviours()

    def test_ticker_fires_periodically(self, sim, deployment):
        platform, container_a, _ = deployment
        ticks = []

        class Tick(TickerBehaviour):
            def on_tick(self):
                ticks.append(self.sim.now)
                return
                yield  # pragma: no cover

        agent = Agent("a")
        container_a.deploy(agent)
        agent.add_behaviour(Tick(period=2.0, max_ticks=3))
        sim.run(until=20)
        assert ticks == [2.0, 4.0, 6.0]

    def test_fsm_follows_transitions(self, sim, deployment):
        platform, container_a, _ = deployment
        visited = []

        fsm = FSMBehaviour("machine")

        def start():
            visited.append("start")
            yield 1.0
            return "work"

        def work():
            visited.append("work")
            yield 1.0
            return "end"

        def end():
            visited.append("end")
            return None
            yield  # pragma: no cover

        fsm.register_state("start", start, initial=True)
        fsm.register_state("work", work)
        fsm.register_state("end", end, final=True)
        agent = Agent("a")
        container_a.deploy(agent)
        agent.add_behaviour(fsm)
        sim.run(until=10)
        assert visited == ["start", "work", "end"]
        assert fsm.done

    def test_fsm_unknown_transition_fails(self, sim, deployment):
        platform, container_a, _ = deployment
        fsm = FSMBehaviour()

        def start():
            return "nowhere"
            yield  # pragma: no cover

        fsm.register_state("start", start, initial=True)
        agent = Agent("a")
        container_a.deploy(agent)
        agent.add_behaviour(fsm)
        with pytest.raises(RuntimeError):
            sim.run(until=10)

    def test_cyclic_spin_guard_trips(self, sim, deployment):
        platform, container_a, _ = deployment

        class Spinner(CyclicBehaviour):
            def step(self):
                return
                yield  # pragma: no cover

        agent = Agent("a")
        container_a.deploy(agent)
        agent.add_behaviour(Spinner(max_idle_spins=10))
        with pytest.raises(RuntimeError):
            sim.run(until=10)

    def test_stop_kills_behaviours(self, sim, deployment):
        platform, container_a, _ = deployment
        ticks = []

        class Tick(TickerBehaviour):
            def on_tick(self):
                ticks.append(self.sim.now)
                return
                yield  # pragma: no cover

        agent = Agent("a")
        container_a.deploy(agent)
        agent.add_behaviour(Tick(period=1.0))
        sim.run(until=3.5)
        agent.stop()
        sim.run(until=10)
        assert len(ticks) == 3

    def test_behaviour_requires_deployment(self):
        agent = Agent("lonely")

        class Nothing(OneShotBehaviour):
            def action(self):
                return
                yield  # pragma: no cover

        with pytest.raises(RuntimeError):
            agent.add_behaviour(Nothing())
