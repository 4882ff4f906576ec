"""Tests for the reliable delivery channel (ack / retransmit / dedup /
dead-letter / redelivery) and its integration with the grid system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)
from repro.network.addressing import Address
from repro.network.reliable import ACK_PORT, DATA_PORT, ReliableChannel
from repro.network.topology import LinkSpec, Network
from repro.network.transport import Message, Transport
from repro.simkernel.simulator import Simulator


def _channel(loss_rate, seed=9, **kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim, wan=LinkSpec(
        latency=0.01, bandwidth=1000.0, loss_rate=loss_rate))
    network.add_host("a", "site1")
    receiver = network.add_host("b", "site2")
    received = []
    receiver.bind("in", lambda message: received.append(message.payload))
    transport = Transport(network)
    channel = ReliableChannel(transport, **kwargs)
    return sim, network, channel, received


def _post_many(channel, count):
    for index in range(count):
        channel.post(Message(
            Address("a", "out"), Address("b", "in"), index, 1.0,
        ))


class TestReliableDelivery:
    def test_lossless_delivers_without_retransmits(self):
        # ack_timeout must exceed NIC serialization of the 20-message
        # burst, or a slow first ack triggers a (harmless) spurious
        # retransmission that dedup absorbs.
        sim, _, channel, received = _channel(0.0, ack_timeout=10.0)
        _post_many(channel, 20)
        sim.run(until=100)
        assert received == list(range(20))
        assert channel.retransmits == 0
        assert channel.dup_drops == 0
        assert channel.pending_count() == 0
        assert channel.messages_acked == 20
        assert channel.mean_latency() > 0

    def test_heavy_loss_still_delivers_exactly_once(self):
        sim, _, channel, received = _channel(0.4, ack_timeout=1.0)
        _post_many(channel, 30)
        sim.run(until=500)
        # exactly-once above the suppression point: every payload once,
        # in-order per stream is NOT guaranteed (retransmits reorder)
        assert sorted(received) == list(range(30))
        assert channel.retransmits > 0
        assert channel.pending_count() == 0
        # At-least-once below the dedup point: a message whose ACKs were
        # all lost may be dead-lettered even though it WAS delivered --
        # the no-silent-loss invariant is delivered + dead >= sent, and a
        # dead letter is never a silently missing payload here.
        for dead in channel.dead_letters:
            assert dead.message.payload in received

    def test_batch_post_delivers_exactly_once(self):
        sim, _, channel, received = _channel(0.3, ack_timeout=1.0)
        channel.post_batch([
            Message(Address("a", "out"), Address("b", "in"), index, 1.0)
            for index in range(15)
        ])
        sim.run(until=500)
        assert sorted(received) == list(range(15))
        assert channel.pending_count() == 0

    def test_dead_host_dead_letters_with_accounting(self):
        sim, network, channel, received = _channel(
            0.0, ack_timeout=0.5, max_attempts=3)
        network.hosts["b"].fail()
        _post_many(channel, 2)
        sim.run(until=100)
        assert received == []
        assert len(channel.dead_letters) == 2
        dead = channel.dead_letters[0]
        assert dead.attempts == 3
        assert "no ack after 3 attempts" in dead.reason
        assert dead.dead_at > dead.first_sent
        assert channel.retransmits == 4  # 2 retransmits per message
        assert channel.pending_count() == 0

    def test_dead_letter_hook_fires(self):
        sim, network, channel, _ = _channel(
            0.0, ack_timeout=0.5, max_attempts=2)
        network.hosts["b"].fail()
        hooked = []
        channel.on_dead_letter = hooked.append
        _post_many(channel, 1)
        sim.run(until=50)
        assert len(hooked) == 1
        assert hooked[0] is channel.dead_letters[0]

    def test_recovered_host_receives_retransmission(self):
        sim, network, channel, received = _channel(
            0.0, ack_timeout=1.0, max_attempts=6)
        network.hosts["b"].fail()
        _post_many(channel, 3)
        sim.schedule(5.0, network.hosts["b"].recover, ())
        sim.run(until=200)
        assert sorted(received) == [0, 1, 2]
        assert channel.retransmits > 0
        assert not channel.dead_letters

    def test_unbound_port_counts_undeliverable_but_acks(self):
        sim, _, channel, _ = _channel(0.0, ack_timeout=0.5, max_attempts=3)
        channel.post(Message(
            Address("a", "out"), Address("b", "nowhere"), "x", 1.0))
        sim.run(until=50)
        assert channel.undeliverable == 1
        # acked so the sender does not mistake delivery for loss
        assert channel.pending_count() == 0
        assert not channel.dead_letters

    def test_channel_ports_bound_lazily(self):
        sim, network, channel, _ = _channel(0.0)
        assert network.hosts["a"].handler_for(ACK_PORT) is None
        _post_many(channel, 1)
        assert network.hosts["a"].handler_for(ACK_PORT) is not None
        assert network.hosts["b"].handler_for(DATA_PORT) is not None

    def test_parameter_validation(self):
        transport = Transport(Network(Simulator(seed=0)))
        with pytest.raises(ValueError):
            ReliableChannel(transport, ack_timeout=0)
        with pytest.raises(ValueError):
            ReliableChannel(transport, backoff=0.5)
        with pytest.raises(ValueError):
            ReliableChannel(transport, max_attempts=0)

    def test_stats_shape(self):
        sim, _, channel, _ = _channel(0.0)
        _post_many(channel, 5)
        sim.run(until=50)
        stats = channel.stats()
        assert stats["sent"] == 5
        assert stats["delivered"] == 5
        assert stats["acked"] == 5
        assert stats["dead_letters"] == 0
        assert stats["pending"] == 0
        assert stats["parked"] == 0
        assert stats["redelivered"] == 0
        assert stats["redelivery_gave_up"] == 0
        assert stats["permanently_dead"] == 0


class TestRedelivery:
    def _healing_channel(self, **kwargs):
        parameters = dict(ack_timeout=0.5, max_attempts=3, redelivery=True,
                          redelivery_interval=1.0,
                          redelivery_max_interval=4.0,
                          redelivery_give_up_after=200.0)
        parameters.update(kwargs)
        return _channel(0.0, **parameters)

    def test_parked_then_redelivered_after_heal(self):
        sim, network, channel, received = self._healing_channel()
        network.hosts["b"].fail()
        _post_many(channel, 3)
        sim.schedule(20.0, network.hosts["b"].recover, ())
        sim.run(until=200)
        assert sorted(received) == [0, 1, 2]
        assert channel.redelivered == 3
        assert channel.redelivery_gave_up == 0
        assert channel.parked_count() == 0
        assert channel.pending_count() == 0
        # the dead-letter log keeps the entries, but none is terminal
        assert len(channel.dead_letters) == 3
        assert not channel.permanently_dead()
        assert all(d.status == "redelivered" for d in channel.dead_letters)
        assert all(d.redelivered_at is not None for d in channel.dead_letters)

    def test_dead_letter_hook_sees_parked_status(self):
        sim, network, channel, _ = self._healing_channel()
        network.hosts["b"].fail()
        statuses = []
        channel.on_dead_letter = lambda dead: statuses.append(dead.status)
        redelivered = []
        channel.on_redelivered = redelivered.append
        _post_many(channel, 1)
        sim.schedule(10.0, network.hosts["b"].recover, ())
        sim.run(until=100)
        assert statuses == ["parked"]
        assert len(redelivered) == 1
        assert redelivered[0].terminal is False

    def test_budget_exhaustion_gives_up(self):
        sim, network, channel, received = self._healing_channel(
            redelivery_give_up_after=10.0)
        network.hosts["b"].fail()
        gave_up = []
        channel.on_redelivery_gave_up = gave_up.append
        _post_many(channel, 2)
        sim.run(until=100)  # never heals inside the budget
        assert received == []
        assert channel.redelivery_gave_up == 2
        assert channel.parked_count() == 0
        assert len(gave_up) == 2
        assert all(dead.terminal for dead in gave_up)
        assert len(channel.permanently_dead()) == 2

    def test_redelivery_off_keeps_terminal_dead_letters(self):
        sim, network, channel, _ = _channel(0.0, ack_timeout=0.5,
                                            max_attempts=3)
        network.hosts["b"].fail()
        _post_many(channel, 2)
        sim.run(until=100)
        assert all(d.status == "dead" and d.terminal
                   for d in channel.dead_letters)
        assert channel.parked_count() == 0
        assert len(channel.permanently_dead()) == 2

    def test_re_exhaustion_reparks_without_duplicate_entry(self):
        # Heal just long enough for the probe to re-ship, then fail again
        # before the re-shipped envelope can land: the channel must reuse
        # the existing dead-letter entry and park it again.
        sim, network, channel, received = self._healing_channel()
        host = network.hosts["b"]
        host.fail()
        _post_many(channel, 1)
        # First exhaustion at ~0.5+1.0+2.0=3.5s; probe at ~4.5 sees the
        # host up, re-ships; the immediate re-fail drops the wire and the
        # envelope exhausts again, then the second heal lets it through.
        sim.schedule(4.0, host.recover, ())
        sim.schedule(4.6, host.fail, ())
        sim.schedule(40.0, host.recover, ())
        sim.run(until=200)
        assert received == [0]
        assert len(channel.dead_letters) == 1
        assert channel.redelivered >= 2
        assert channel.dead_letters[0].status == "redelivered"
        assert not channel.permanently_dead()

    def test_redelivery_preserves_exactly_once_for_unacked_delivery(self):
        # Lose ONLY acks: the payload is delivered, every ack is dropped,
        # the sender dead-letters and later redelivers -- the receiver
        # must suppress the redelivered copy as a duplicate.
        sim, network, channel, received = self._healing_channel()
        original_post = channel.transport.post

        def ack_dropping_post(message):
            if message.protocol == "rel-ack":
                return
            original_post(message)

        channel.transport.post = ack_dropping_post
        _post_many(channel, 1)
        sim.run(until=30)  # exhausts, parks, probes see the host up
        channel.transport.post = original_post
        sim.run(until=100)
        assert received == [0]  # exactly once above dedup
        assert channel.dup_drops >= 1
        assert channel.redelivered >= 1

    def test_redelivery_parameter_validation(self):
        transport = Transport(Network(Simulator(seed=0)))
        with pytest.raises(ValueError):
            ReliableChannel(transport, redelivery_interval=0)
        with pytest.raises(ValueError):
            ReliableChannel(transport, redelivery_backoff=0.5)
        with pytest.raises(ValueError):
            ReliableChannel(transport, redelivery_interval=5.0,
                            redelivery_max_interval=1.0)
        with pytest.raises(ValueError):
            ReliableChannel(transport, redelivery_give_up_after=0)

    def test_redelivery_metrics_registered(self):
        from repro.simkernel.telemetry import Telemetry

        sim, network, channel, _ = self._healing_channel()
        telemetry = Telemetry(sim)
        telemetry.register_source(channel.stats, grid="network",
                                  agent="reliable-channel")
        network.hosts["b"].fail()
        _post_many(channel, 1)
        sim.schedule(10.0, network.hosts["b"].recover, ())
        sim.run(until=100)
        assert channel.redelivered == 1
        (source,) = telemetry.metrics_snapshot()["sources"]
        assert source["labels"]["agent"] == "reliable-channel"
        assert source["metrics"]["redelivered"] == 1
        assert source["metrics"]["redelivery_gave_up"] == 0


class TestRedeliveryProperty:
    """Hypothesis: random loss + a random heal window never loses or
    duplicates a payload above the dedup point, redelivery included."""

    @settings(max_examples=25, deadline=None)
    @given(
        loss_rate=st.floats(min_value=0.0, max_value=0.5),
        fail_at=st.floats(min_value=0.0, max_value=10.0),
        heal_after=st.floats(min_value=0.5, max_value=60.0),
        count=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_exactly_once_above_dedup(self, loss_rate, fail_at, heal_after,
                                      count, seed):
        sim, network, channel, received = _channel(
            loss_rate, seed=seed, ack_timeout=0.5, backoff=2.0,
            max_attempts=3, redelivery=True, redelivery_interval=1.0,
            redelivery_max_interval=8.0, redelivery_give_up_after=None,
        )
        host = network.hosts["b"]
        sim.schedule(fail_at, host.fail, ())
        sim.schedule(fail_at + heal_after, host.recover, ())
        _post_many(channel, count)
        # Run long past the outage so every parked envelope redelivers.
        sim.run(until=fail_at + heal_after + 300.0)
        # exactly-once above the suppression point, loss or no loss
        assert sorted(received) == list(range(count))
        # nothing permanently lost: the destination healed
        assert not channel.permanently_dead()
        assert channel.parked_count() == 0
        assert channel.pending_count() == 0


def _grid(loss_rate, seed=9, **overrides):
    parameters = dict(
        devices=[DeviceSpec("dev1", "server", "field"),
                 DeviceSpec("dev2", "router", "field")],
        collector_hosts=[HostSpec("col1", "field")],
        analysis_hosts=[HostSpec("inf1", "mgmt"), HostSpec("inf2", "mgmt")],
        storage_host=HostSpec("stor", "mgmt"),
        interface_host=HostSpec("iface", "mgmt"),
        seed=seed,
        dataset_threshold=6,
        wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=loss_rate),
    )
    parameters.update(overrides)
    return GridManagementSystem(GridTopologySpec(**parameters))


class TestGridIntegration:
    def test_reliability_off_by_default(self):
        system = _grid(0.0)
        assert system.reliable_channel is None
        assert system.platform.reliable_channel is None

    def test_reliability_flag_installs_channel(self):
        system = _grid(0.0, reliability=True)
        assert isinstance(system.reliable_channel, ReliableChannel)
        assert system.platform.reliable_channel is system.reliable_channel

    def test_reliability_dict_passes_channel_kwargs(self):
        system = _grid(0.0, reliability={"ack_timeout": 7.5,
                                         "max_attempts": 3})
        assert system.reliable_channel.ack_timeout == 7.5
        assert system.reliable_channel.max_attempts == 3

    def test_lossless_run_same_results_with_and_without_channel(self):
        """On loss-free links the channel only adds acks; the management
        outcome (records analyzed, reports, findings) is unchanged."""
        outcomes = []
        for reliability in (False, True):
            system = _grid(0.0, reliability=reliability)
            system.collectors[0].poll_retries = 5
            system.assign_goals(system.make_paper_goals(polls_per_type=2))
            assert system.run_until_records(6, timeout=2000)
            outcomes.append((
                sum(r.records_analyzed for r in system.interface.reports),
                len(system.interface.reports),
                sorted(f.kind for f in system.interface.all_findings()),
            ))
        assert outcomes[0] == outcomes[1]

    def test_lossy_wan_record_shipping_survives(self):
        # 15% WAN loss: collector->classifier shipping and data-ready
        # notifies ride the channel and must all land.
        system = _grid(0.15, reliability=True)
        system.collectors[0].poll_retries = 10
        system.assign_goals(system.make_paper_goals(polls_per_type=2))
        assert system.run_until_records(6, timeout=4000)
        channel = system.reliable_channel
        assert channel.messages_acked > 0
        assert not channel.dead_letters
        assert system.classifier.records_classified == 6
