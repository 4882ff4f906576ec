"""Unit tests for the simulator and process semantics."""

import pytest

from repro.simkernel.resources import Resource, ResourceKind
from repro.simkernel.simulator import Interrupted, SimulationError, Simulator


class TestScheduling:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.0, 5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, (1,))
        end = sim.run(until=5.0)
        assert end == 5.0
        assert fired == []
        sim.run()
        assert fired == [1]

    def test_run_until_reaches_until_after_queue_drains(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0
        assert Simulator().run(until=3.0) == 3.0

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, (1,))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_run_until_in_the_past_rejected(self):
        # Rewinding the clock would fire later events out of order.
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.schedule(20.0, lambda: fired.append(sim.now))
        sim.run(until=15.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)
        assert sim.now == 15.0
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0, 16.0, 20.0]
        assert sim.run(until=20.0) == 20.0

    def test_repr_pending_counts_only_live_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        dropped = sim.schedule(2.0, lambda: None)
        dropped.cancel()
        assert "pending=1" in repr(sim)

    def test_zero_delay_interleaves_with_same_time_heap_events(self):
        # an event fired at t=1 that schedules 0-delay work must not jump
        # ahead of an already-queued same-time event
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, ("zero-delay",))

        sim.schedule(1.0, first)
        sim.schedule(1.0, order.append, ("second",))
        sim.run()
        assert order == ["first", "second", "zero-delay"]

    def test_trace_hook_sees_every_event(self):
        sim = Simulator()
        seen = []
        sim.add_trace_hook(lambda now, event: seen.append(now))
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert seen == [1.0, 2.0]

    @pytest.mark.parametrize("until", [None, 10.0])
    def test_trace_hook_added_mid_run_sees_later_events(self, until):
        sim = Simulator()
        seen = []

        def register():
            sim.add_trace_hook(lambda now, event: seen.append(now))

        sim.schedule(1.0, register)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: None))
        sim.schedule(3.0, lambda: None)
        sim.run(until=until)
        assert seen == [1.0, 2.0, 2.0, 3.0]


class TestProcesses:
    def test_sleep_and_return_value(self):
        sim = Simulator()

        def proc():
            yield 1.5
            return "done"

        process = sim.spawn(proc())
        sim.run()
        assert process.done
        assert process.result == "done"
        assert sim.now == 1.5

    def test_wait_on_event_receives_value(self):
        sim = Simulator()
        event = sim.event()

        def proc():
            value = yield event
            return value * 2

        process = sim.spawn(proc())
        sim.schedule(3.0, event.trigger, (21,))
        sim.run()
        assert process.result == 42

    def test_join_another_process(self):
        sim = Simulator()

        def child():
            yield 2.0
            return "child-result"

        def parent(child_process):
            result = yield child_process
            return "got:" + result

        child_process = sim.spawn(child())
        parent_process = sim.spawn(parent(child_process))
        sim.run()
        assert parent_process.result == "got:child-result"

    def test_join_finished_process_resumes_immediately(self):
        sim = Simulator()

        def child():
            return "early"
            yield  # pragma: no cover

        def parent(child_process):
            yield 5.0
            result = yield child_process
            return result

        child_process = sim.spawn(child())
        parent_process = sim.spawn(parent(child_process))
        sim.run()
        assert parent_process.result == "early"

    def test_kill_stops_process(self):
        sim = Simulator()
        progressed = []

        def proc():
            yield 1.0
            progressed.append("a")
            yield 10.0
            progressed.append("b")

        process = sim.spawn(proc())
        sim.schedule(5.0, process.kill)
        sim.run()
        assert progressed == ["a"]
        assert process.done
        assert process.result is None

    def test_interrupt_raises_inside_process(self):
        sim = Simulator()
        caught = []

        def proc():
            try:
                yield 100.0
            except Interrupted as exc:
                caught.append(exc.cause)
                return "interrupted"

        process = sim.spawn(proc())
        sim.schedule(1.0, process.interrupt, ("reason",))
        sim.run()
        assert caught == ["reason"]
        assert process.result == "interrupted"

    def test_error_propagates_by_default(self):
        sim = Simulator()

        def proc():
            yield 1.0
            raise ValueError("boom")

        sim.spawn(proc())
        with pytest.raises(ValueError):
            sim.run()

    def test_error_swallowed_when_configured(self):
        sim = Simulator(swallow_process_errors=True)

        def proc():
            yield 1.0
            raise ValueError("boom")

        process = sim.spawn(proc())
        sim.run()
        assert isinstance(process.error, ValueError)
        assert process.done

    def test_yielding_garbage_fails_the_process(self):
        sim = Simulator(swallow_process_errors=True)

        def proc():
            yield object()

        process = sim.spawn(proc())
        sim.run()
        assert isinstance(process.error, SimulationError)

    def test_completion_event_carries_result(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return 7

        process = sim.spawn(proc())
        got = []
        process.completion.add_waiter(got.append)
        sim.run()
        assert got == [7]

    def test_duplicate_names_are_uniquified(self):
        sim = Simulator()

        def worker():
            yield 0.1

        first = sim.spawn(worker(), name="w")
        second = sim.spawn(worker(), name="w")
        assert first.name != second.name

    def test_rng_streams_are_named_and_stable(self):
        sim_a = Simulator(seed=9)
        sim_b = Simulator(seed=9)
        assert sim_a.rng("x").random() == sim_b.rng("x").random()
        assert sim_a.rng("x") is sim_a.rng("x")

    def test_timeout_event_self_triggers(self):
        sim = Simulator()
        event = sim.timeout_event(4.0, value="ping")

        def proc():
            value = yield event
            return (sim.now, value)

        process = sim.spawn(proc())
        sim.run()
        assert process.result == (4.0, "ping")


class TestProcessResourceInteraction:
    def test_kill_while_queued_releases_slot(self):
        sim = Simulator()
        cpu = Resource(sim, "cpu", ResourceKind.CPU, capacity=1.0)

        def hog():
            yield cpu.use(10.0)
            return "hog-done"

        def victim():
            yield cpu.use(5.0)
            return "victim-done"

        def third():
            yield cpu.use(2.0)
            return "third-done"

        sim.spawn(hog())
        victim_process = sim.spawn(victim())
        third_process = sim.spawn(third())
        sim.schedule(1.0, victim_process.kill)
        sim.run()
        assert third_process.result == "third-done"
        # victim never served: only hog (10) + third (2) units accounted
        assert cpu.total_units == 12.0
