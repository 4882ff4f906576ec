"""Transport transfers: the one delivery rule, batches and failure paths.

A transfer is the messages of one flow that cross the wire together: one
NIC request for the summed units, then arrival ``total / capacity +
link.transit_time(total)`` after NIC service starts.  ``send``/``post``
make a transfer of one message; ``send_batch``/``post_batch`` one per flow
of the call.  These tests pin the rule, its timing and every failure path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.addressing import Address
from repro.network.topology import LinkSpec, Network
from repro.network.transport import DeliveryError, Message, Transport
from repro.simkernel.simulator import Simulator


def build(seed=1, loss=0.0, c_site="site2"):
    sim = Simulator(seed=seed)
    network = Network(
        sim, wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=loss),
    )
    network.add_site(
        "site1", lan=LinkSpec(latency=0.001, bandwidth=10000.0, loss_rate=loss),
    )
    network.add_host("a", "site1")
    network.add_host("b", "site1")
    network.add_host("c", c_site)
    transport = Transport(network)
    return sim, network, transport


def burst(transport, count, sizes=None, dest="b", port="in"):
    """Send ``count`` same-flow messages in one instant; return them."""
    messages = []
    for index in range(count):
        size = sizes[index] if sizes is not None else 1.0
        message = Message(Address("a", "x"), Address(dest, port), index, size)
        transport.send(message)
        messages.append(message)
    return messages


class TestTransfers:
    def test_same_instant_sends_are_separate_transfers(self):
        sim, network, transport = build()
        network.host("b").bind("in", lambda m: None)
        burst(transport, 10)
        sim.run(until=100)
        assert transport.stats()["delivered"] == 10
        assert transport.stats()["transfers"] == 10
        assert transport.stats()["coalesced"] == 0

    def test_handlers_invoked_in_send_order(self):
        sim, network, transport = build()
        received = []
        network.host("b").bind("in", received.append)
        burst(transport, 20)
        sim.run(until=100)
        assert [m.payload for m in received] == list(range(20))

    def test_nic_serves_flows_in_send_order(self):
        # a -> b, a -> c, a -> b in one instant: the NIC serves the three
        # transfers in send order, so c's message does not wait behind
        # b's second one
        sim, network, transport = build(c_site="site1")
        arrivals = []
        for host in ("b", "c"):
            network.host(host).bind(
                "in", lambda m: arrivals.append((m.dest.host, m.payload)))
        for index, dest in enumerate(("b", "c", "b")):
            transport.post(Message(
                Address("a", "x"), Address(dest, "in"), index, 0.2))
        sim.run(until=100)
        assert arrivals == [("b", 0), ("c", 1), ("b", 2)]

    def test_batch_calls_do_not_merge(self):
        # one transfer per flow *inside* a call: two same-instant calls
        # for one flow are two transfers, served one after the other
        sim, network, transport = build()
        received = []
        network.host("b").bind("in", received.append)
        for index in range(2):
            transport.post_batch([Message(
                Address("a", "x"), Address("b", "in"), index, 5.0)])
        sim.run(until=100)
        assert transport.stats()["transfers"] == 2
        assert [m.delivered_at for m in received] == pytest.approx(
            [0.5 + 0.001 + 5.0 / 10000.0, 1.0 + 0.001 + 5.0 / 10000.0])

    def test_sequential_instants_do_not_coalesce(self):
        sim, network, transport = build()
        network.host("b").bind("in", lambda m: None)

        def sender():
            for _ in range(4):
                transport.post(Message(
                    Address("a", "x"), Address("b", "in"), None, 1.0))
                yield 1.0

        sim.spawn(sender())
        sim.run(until=100)
        assert transport.stats()["transfers"] == 4
        assert transport.stats()["coalesced"] == 0

    def test_zero_size_messages_skip_nic_and_arrive_first(self):
        sim, network, transport = build()
        received = []
        network.host("b").bind("in", received.append)
        burst(transport, 3, sizes=[5.0, 0.0, 5.0])
        sim.run(until=100)
        assert network.host("a").nic.total_units == 10.0
        # the free message only waits the link latency
        assert [m.payload for m in received] == [1, 0, 2]


class TestCoalescing:
    """A same-instant burst of one flow is not coalesced on the wire:
    each message keeps the per-message NIC + link pipeline timing."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.floats(min_value=0.1, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12,
    ))
    def test_coalesced_timing_matches_per_message_pipeline(self, sizes):
        # message i arrives at cumsum(sizes[:i+1])/cap + latency + size_i/bw,
        # in send order, with both NICs charged exactly the sent units
        sim, network, transport = build()
        received = []
        network.host("b").bind("in", received.append)
        burst(transport, len(sizes), sizes=sizes)
        sim.run(until=10000)
        assert [m.payload for m in received] == list(range(len(sizes)))
        cap, latency, bw = 10.0, 0.001, 10000.0
        cumulative = 0.0
        for message, size in zip(received, sizes):
            cumulative += size
            expected = cumulative / cap + latency + size / bw
            assert message.delivered_at == pytest.approx(expected)
        for host in ("a", "b"):
            nic = network.host(host).nic
            assert nic.units_by_label["raw"] == pytest.approx(sum(sizes))
            assert nic.busy_time == pytest.approx(sum(sizes) / cap)

class TestAggregateLane:
    def test_send_batch_single_transit(self):
        sim, network, transport = build()
        received = []
        network.host("c").bind("in", received.append)
        messages = [
            Message(Address("a", "x"), Address("c", "in"), index, 10.0)
            for index in range(5)
        ]
        outcomes = []
        transport.send_batch(messages).add_waiter(outcomes.append)
        sim.run(until=100)
        assert [m.payload for m in received] == list(range(5))
        # one transfer: all five arrive together at
        # 50/10 (NIC) + 0.05 + 50/1000 (one summed WAN transit)
        arrival = 50.0 / 10.0 + 0.05 + 50.0 / 1000.0
        assert all(m.delivered_at == pytest.approx(arrival) for m in received)
        assert outcomes[0] == received

    def test_send_batch_splits_by_flow(self):
        sim, network, transport = build()
        network.host("b").bind("in", lambda m: None)
        network.host("c").bind("in", lambda m: None)
        transport.send_batch([
            Message(Address("a", "x"), Address("b", "in"), None, 1.0),
            Message(Address("a", "x"), Address("c", "in"), None, 1.0),
            Message(Address("a", "x"), Address("b", "in"), None, 1.0),
        ])
        sim.run(until=100)
        assert transport.stats()["delivered"] == 3
        assert transport.stats()["transfers"] == 2
        assert transport.stats()["coalesced"] == 2  # the two b messages

    def test_empty_batch_triggers_immediately(self):
        sim, _, transport = build()
        outcomes = []
        transport.send_batch([]).add_waiter(outcomes.append)
        sim.run(until=1)
        assert outcomes == [[]]
        assert transport.stats()["sent"] == 0

    def test_mixed_outcomes_in_input_order(self):
        sim, network, transport = build()
        network.host("b").bind("in", lambda m: None)
        outcomes = []
        transport.send_batch([
            Message(Address("a", "x"), Address("b", "in"), None, 1.0),
            Message(Address("a", "x"), Address("ghost", "in"), None, 1.0),
        ]).add_waiter(outcomes.append)
        sim.run(until=100)
        results = outcomes[0]
        assert isinstance(results[0], Message)
        assert isinstance(results[1], DeliveryError)


class TestFailurePathsUnderBatching:
    def drop_reasons(self, transport, messages, sim):
        outcomes = []
        for message in messages:
            transport.send(message).add_waiter(outcomes.append)
        sim.run(until=100)
        return outcomes

    def test_unknown_sender_is_a_delivery_error(self):
        # regression: the old path raised a bare KeyError out of the kernel
        sim, network, transport = build()
        outcomes = self.drop_reasons(transport, [
            Message(Address("ghost", "x"), Address("b", "in"), None, 1.0),
        ], sim)
        assert isinstance(outcomes[0], DeliveryError)
        assert outcomes[0].reason == "unknown sender host"

    def test_unknown_destination_drops_whole_burst(self):
        sim, network, transport = build()
        outcomes = self.drop_reasons(transport, [
            Message(Address("a", "x"), Address("ghost", "in"), None, 1.0)
            for _ in range(3)
        ], sim)
        assert len(outcomes) == 3
        assert all(o.reason == "unknown destination host" for o in outcomes)
        assert transport.stats()["dropped"] == 3

    def test_sender_down_drops_whole_burst(self):
        sim, network, transport = build()
        network.host("a").fail()
        outcomes = self.drop_reasons(transport, [
            Message(Address("a", "x"), Address("b", "in"), None, 1.0)
            for _ in range(2)
        ], sim)
        assert all(o.reason == "sender host down" for o in outcomes)

    def test_destination_down_judged_per_message_at_arrival(self):
        sim, network, transport = build()
        network.host("b").bind("in", lambda m: None)
        outcomes = []
        for index in range(2):
            message = Message(Address("a", "x"), Address("b", "in"),
                              index, 10.0)
            transport.send(message).add_waiter(outcomes.append)
        # first arrives at ~1.002s, second at ~2.002s; fail b in between
        sim.schedule(1.5, network.host("b").fail, ())
        sim.run(until=100)
        kinds = [type(o).__name__ for o in outcomes]
        assert kinds == ["Message", "DeliveryError"]
        assert outcomes[1].reason == "destination host down"

    def test_unbound_port_drops_each_message(self):
        sim, network, transport = build()
        outcomes = self.drop_reasons(transport, [
            Message(Address("a", "x"), Address("b", "nowhere"), None, 1.0)
            for _ in range(2)
        ], sim)
        assert all(isinstance(o, DeliveryError) for o in outcomes)
        assert all("not bound" in o.reason for o in outcomes)

    def test_loss_drawn_per_message(self):
        sim, network, transport = build(seed=7, loss=0.5)
        received = []
        network.host("b").bind("in", received.append)
        burst(transport, 200)
        sim.run(until=1000)
        stats = transport.stats()
        assert stats["delivered"] + stats["dropped"] == 200
        # with per-message draws at p=0.5, both outcomes must occur
        assert stats["delivered"] > 0
        assert stats["dropped"] > 0

    def test_loss_respects_seeded_rng_stream(self):
        counts = []
        for _ in range(2):
            sim, network, transport = build(seed=11, loss=0.3)
            network.host("b").bind("in", lambda m: None)
            burst(transport, 100)
            sim.run(until=1000)
            counts.append(transport.stats()["delivered"])
        assert counts[0] == counts[1]


def run_flow(batched, sizes, seed=5):
    """One same-instant burst; returns (ledgers, order, delivery times).

    ``batched`` sends each message through its own ``send_batch`` call,
    otherwise through ``send``.
    """
    sim, network, transport = build(seed=seed)
    received = []
    network.host("b").bind("in", received.append)
    for index, size in enumerate(sizes):
        message = Message(Address("a", "x"), Address("b", "in"), index, size)
        if batched:
            transport.send_batch([message])
        else:
            transport.send(message)
    sim.run(until=10000)
    ledgers = (
        dict(network.host("a").nic.units_by_label),
        network.host("a").nic.busy_time,
        dict(network.host("b").nic.units_by_label),
        network.host("b").nic.busy_time,
    )
    order = [m.payload for m in received]
    times = [m.delivered_at for m in received]
    return ledgers, order, times


class TestBatchedUnbatchedEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.floats(min_value=0.1, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12,
    ))
    def test_identical_ledgers_order_and_times_on_loss_free_links(self, sizes):
        # a one-message batch is a transfer of one message, exactly as send
        batched = run_flow(batched=True, sizes=sizes)
        unbatched = run_flow(batched=False, sizes=sizes)
        assert batched[1] == unbatched[1]  # delivery order
        assert batched[2] == pytest.approx(unbatched[2])  # delivered_at
        # NIC ledgers: same labels, same units, same busy time
        for got, want in zip(batched[0], unbatched[0]):
            if isinstance(got, dict):
                assert got.keys() == want.keys()
                for key in got:
                    assert got[key] == pytest.approx(want[key])
            else:
                assert got == pytest.approx(want)
