"""Property-based determinism guarantees for the kernel fast paths.

The zero-delay FIFO lane and the resource FIFO fast path are pure
optimisations: they must never change the global (time, priority, seq)
event ordering or the resource ledgers.  Two safety nets live here:

* the event queue is checked, operation by operation, against a naive
  reference model (a sorted list) over random push / fast-push / cancel /
  pop / bounded-pop interleavings;
* random full-simulator scenarios -- sleeps, event waits, resource uses
  (mixed priorities), kills and interrupts -- are run twice and must
  produce identical event traces, ledgers and process outcomes.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkernel.events import EventQueue
from repro.simkernel.resources import Resource, ResourceKind
from repro.simkernel.simulator import Simulator

# -- queue vs reference model -------------------------------------------------

QUEUE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "push_fifo", "cancel", "pop", "pop_until"]),
        st.integers(0, 4),      # delay; pop_until: limit offset from head
        st.integers(-2, 2),     # priority
        st.integers(0, 10_000),  # handle selector for cancel
    ),
    max_size=120,
)


@settings(max_examples=120, deadline=None)
@given(ops=QUEUE_OPS)
# Same-instant heap/fast-lane ties under a bound: a negative-priority heap
# head ahead of a fast-lane entry, popped with limits below and at it, and
# a priority-0 heap entry on either side of a fast-lane entry by seq.
@example(ops=[("push", 0, -1, 0), ("push_fifo", 0, 0, 0),
              ("pop_until", 1, 0, 0), ("pop_until", 2, 0, 0),
              ("pop_until", 0, 0, 0), ("pop_until", 2, 0, 0)])
@example(ops=[("push_fifo", 0, 0, 0), ("push", 0, 0, 0), ("pop", 0, 0, 0),
              ("push_fifo", 0, 0, 0), ("pop", 0, 0, 0), ("pop", 0, 0, 0)])
def test_event_queue_matches_reference_model(ops):
    queue = EventQueue()
    now = 0.0
    # model rows: [event, time, priority, seq, state]
    LIVE, CANCELLED, FIRED = "live", "cancelled", "fired"
    rows = []
    seq = 0

    def live_rows():
        return [row for row in rows if row[4] == LIVE]

    for op, delay, priority, pick in ops:
        if op == "push":
            event = queue.push(now + delay, lambda: None, (), priority)
            rows.append([event, now + delay, priority, seq, LIVE])
            seq += 1
        elif op == "push_fifo":
            # contract: fast-lane entries carry the current instant
            event = queue.push_fifo(now, lambda: None)
            rows.append([event, now, 0, seq, LIVE])
            seq += 1
        elif op == "cancel":
            if rows:
                row = rows[pick % len(rows)]
                row[0].cancel()
                if row[4] == LIVE:
                    row[4] = CANCELLED
        else:  # pop, pop_until
            expected = min(
                live_rows(), key=lambda row: (row[1], row[2], row[3]),
                default=None)
            if op == "pop":
                popped = queue.pop()
            else:
                # a limit below, at or above the head (or the clock when
                # the model is empty): offsets -1, -0.5, 0, +0.5, +1
                head_time = now if expected is None else expected[1]
                limit = head_time + (delay - 2) * 0.5
                popped = queue.pop(limit)
                if expected is not None and expected[1] > limit:
                    expected = None
            if expected is None:
                assert popped is None
            else:
                assert popped is expected[0]
                expected[4] = FIRED
                now = expected[1]
        assert len(queue) == len(live_rows())

    # drain: the remaining pops must come out in exact sorted order
    expected_order = [row[0] for row in sorted(
        live_rows(), key=lambda row: (row[1], row[2], row[3]))]
    drained = []
    while (event := queue.pop()) is not None:
        drained.append(event)
    assert drained == expected_order


# -- full-simulator equivalence ----------------------------------------------

ACTION = st.tuples(
    st.sampled_from(["sleep", "use", "wait", "trigger"]),
    st.integers(0, 3),
    st.integers(0, 4),
)
SCRIPTS = st.lists(st.lists(ACTION, max_size=6), min_size=1, max_size=6)
KILLS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 7), st.booleans()),
    max_size=4,
)


def _run_scenario(scripts, kills):
    sim = Simulator(seed=7, swallow_process_errors=True)
    cpu = Resource(sim, "cpu", ResourceKind.CPU, capacity=3.0)
    net = Resource(sim, "net", ResourceKind.NET, capacity=1.5)
    events = [sim.event("e%d" % index) for index in range(5)]
    trace = []
    sim.add_trace_hook(
        lambda now, event: trace.append((now, event.priority, event.seq)))

    def runner(script):
        for kind, a, b in script:
            if kind == "sleep":
                yield a * 0.25
            elif kind == "use":
                resource = cpu if b % 2 else net
                # priorities -2..2 exercise the FIFO->heap migration
                yield resource.use(1.0 + a, label="l%d" % (a % 3),
                                   priority=b - 2)
            elif kind == "wait":
                yield events[b % len(events)]
            elif kind == "trigger":
                event = events[b % len(events)]
                if not event.triggered:
                    event.trigger(a)

    processes = [
        sim.spawn(runner(script), name="p%d" % index)
        for index, script in enumerate(scripts)
    ]

    def killer(delay, index, use_interrupt):
        yield delay * 0.3
        target = processes[index % len(processes)]
        if use_interrupt:
            target.interrupt("stop")
        else:
            target.kill()

    for index, (delay, target, use_interrupt) in enumerate(kills):
        sim.spawn(killer(delay, target, use_interrupt), name="k%d" % index)

    sim.run(until=1000.0)
    return (
        trace,
        cpu.snapshot(),
        net.snapshot(),
        [(process.done, process.result) for process in processes],
    )


@settings(max_examples=40, deadline=None)
@given(scripts=SCRIPTS, kills=KILLS)
def test_repeated_runs_are_identical(scripts, kills):
    first = _run_scenario(scripts, kills)
    second = _run_scenario(scripts, kills)
    assert first == second


# -- slim join vs eager completion events -------------------------------------

JOIN_SCRIPTS = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
             max_size=5),
    min_size=1, max_size=5,
)


def _run_join_scenario(scripts, mode):
    """Parents join children via ``mode``; returns the observable outcome.

    Modes:
        process: plain ``yield child`` (slim joiner list, no SimEvent).
        completion: ``yield child.completion`` (eager SimEvent path).
        touch: materialize ``child.completion`` first, then ``yield child``
            -- both mechanisms armed at once.
    """
    sim = Simulator(seed=11, swallow_process_errors=True)
    trace = []
    sim.add_trace_hook(
        lambda now, event: trace.append((now, event.priority, event.seq)))
    results = []

    def child(steps):
        total = 0
        for sleep, value in steps:
            yield sleep * 0.25
            total += value
        return total

    def parent(steps):
        target = sim.spawn(child(steps), name="child")
        if mode == "completion":
            result = yield target.completion
        elif mode == "touch":
            _ = target.completion  # materialize before the join
            result = yield target
        else:
            result = yield target
        results.append(result)
        # Join again after completion: the done-process fast path must
        # resume at the same instant regardless of mechanism.
        late = yield target if mode != "completion" else target.completion
        results.append(late)

    for index, steps in enumerate(scripts):
        sim.spawn(parent(steps), name="parent%d" % index)
    sim.run(until=1000.0)
    return trace, results


@settings(max_examples=40, deadline=None)
@given(scripts=JOIN_SCRIPTS)
def test_join_paths_are_equivalent(scripts):
    baseline = _run_join_scenario(scripts, "process")
    assert _run_join_scenario(scripts, "touch") == baseline
    assert _run_join_scenario(scripts, "completion") == baseline
