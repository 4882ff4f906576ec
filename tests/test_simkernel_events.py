"""Unit tests for the event queue and SimEvent primitives."""

import pytest

from repro.simkernel.events import EventQueue, SimEvent
from repro.simkernel.simulator import Simulator


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, fired.append, ("c",))
        queue.push(1.0, fired.append, ("a",))
        queue.push(2.0, fired.append, ("b",))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback(*event.args)
        assert fired == ["a", "b", "c"]

    def test_same_time_preserves_insertion_order(self):
        queue = EventQueue()
        order = []
        for tag in ("first", "second", "third"):
            queue.push(5.0, order.append, (tag,))
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert order == ["first", "second", "third"]

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        order = []
        queue.push(5.0, order.append, ("low",), priority=10)
        queue.push(5.0, order.append, ("high",), priority=-10)
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert order == ["high", "low"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        keep = queue.push(1.0, fired.append, ("keep",))
        drop = queue.push(0.5, fired.append, ("drop",))
        drop.cancel()
        event = queue.pop()
        assert event is keep

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        first.cancel()
        assert len(queue) == 1

    def test_bounded_pop_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(4.0, lambda: None)
        first.cancel()
        assert queue.pop(until=2.0) is None
        assert len(queue) == 1
        assert queue.pop(until=4.0) is second

    def test_empty_pop_returns_none(self):
        assert EventQueue().pop() is None
        assert EventQueue().pop(until=10.0) is None

    def test_len_is_live_count_across_lanes(self):
        queue = EventQueue()
        heap_event = queue.push(1.0, lambda: None)
        fast_event = queue.push_fifo(0.0, lambda: None)
        assert len(queue) == 2
        fast_event.cancel()
        assert len(queue) == 1
        fast_event.cancel()  # idempotent: no double decrement
        assert len(queue) == 1
        assert queue.pop() is heap_event
        assert len(queue) == 0
        heap_event.cancel()  # cancelling an already-fired event is a no-op
        assert len(queue) == 0

    def test_fifo_lane_preserves_global_seq_order(self):
        queue = EventQueue()
        order = []
        queue.push(0.0, order.append, ("heap-first",))
        queue.push_fifo(0.0, order.append, ("fifo",))
        queue.push(0.0, order.append, ("heap-second",))
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert order == ["heap-first", "fifo", "heap-second"]

    def test_fifo_lane_yields_to_negative_priority(self):
        queue = EventQueue()
        order = []
        queue.push_fifo(0.0, order.append, ("fifo",))
        queue.push(0.0, order.append, ("urgent",), priority=-1)
        queue.push(0.0, order.append, ("lazy",), priority=1)
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert order == ["urgent", "fifo", "lazy"]

    def test_fifo_lane_cancellation_skipped_on_pop(self):
        queue = EventQueue()
        fired = []
        dropped = queue.push_fifo(0.0, fired.append, ("dropped",))
        queue.push_fifo(0.0, fired.append, ("kept",))
        dropped.cancel()
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert fired == ["kept"]


class TestSimEvent:
    def test_trigger_delivers_value_to_waiter(self):
        sim = Simulator()
        event = SimEvent(sim, "x")
        got = []
        event.add_waiter(got.append)
        event.trigger(42)
        sim.run()
        assert got == [42]

    def test_waiter_added_after_trigger_fires_immediately(self):
        sim = Simulator()
        event = SimEvent(sim, "x")
        event.trigger("late")
        got = []
        event.add_waiter(got.append)
        sim.run()
        assert got == ["late"]

    def test_double_trigger_raises(self):
        sim = Simulator()
        event = SimEvent(sim)
        event.trigger()
        with pytest.raises(RuntimeError):
            event.trigger()

    def test_multiple_waiters_all_fire(self):
        sim = Simulator()
        event = SimEvent(sim)
        got = []
        for _ in range(3):
            event.add_waiter(got.append)
        event.trigger("v")
        sim.run()
        assert got == ["v"] * 3

    def test_discard_waiter_prevents_delivery(self):
        sim = Simulator()
        event = SimEvent(sim)
        got = []
        event.add_waiter(got.append)
        event.discard_waiter(got.append)
        event.trigger(1)
        sim.run()
        assert got == []
