"""Unit tests for resource queueing and busy-time accounting."""

import pytest

from repro.simkernel.resources import Resource, ResourceKind
from repro.simkernel.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


@pytest.fixture
def cpu(sim):
    return Resource(sim, "cpu", ResourceKind.CPU, capacity=10.0)


def test_service_time_is_units_over_capacity(sim, cpu):
    def proc():
        yield cpu.use(25.0)
        return sim.now

    process = sim.spawn(proc())
    sim.run()
    assert process.result == 2.5
    assert cpu.busy_time == 2.5


def test_fifo_queueing_serializes_requests(sim, cpu):
    finish_times = {}

    def proc(tag, units):
        yield cpu.use(units)
        finish_times[tag] = sim.now

    sim.spawn(proc("first", 10.0))
    sim.spawn(proc("second", 10.0))
    sim.run()
    assert finish_times["first"] == 1.0
    assert finish_times["second"] == 2.0


def test_priority_jumps_queue(sim, cpu):
    order = []

    def proc(tag, units, priority):
        yield cpu.use(units, priority=priority)
        order.append(tag)

    def spawn_all():
        # First grabs the server; urgent should overtake normal in queue.
        sim.spawn(proc("head", 10.0, 0))
        sim.spawn(proc("normal", 10.0, 5))
        sim.spawn(proc("urgent", 10.0, -5))
        yield 0.0

    sim.spawn(spawn_all())
    sim.run()
    assert order == ["head", "urgent", "normal"]


def test_ledger_tracks_units_by_label(sim, cpu):
    def proc():
        yield cpu.use(10.0, label="parse")
        yield cpu.use(5.0, label="store")
        yield cpu.use(5.0, label="parse")

    sim.spawn(proc())
    sim.run()
    assert cpu.units_by_label == {"parse": 15.0, "store": 5.0}
    assert cpu.total_units == 20.0
    assert cpu.completed_requests == 3


def test_charge_accounts_without_queueing(sim, cpu):
    cpu.charge(30.0, label="direct")
    assert cpu.total_units == 30.0
    assert cpu.busy_time == 3.0
    assert cpu.completed_requests == 0


def test_utilization_fraction(sim, cpu):
    def proc():
        yield cpu.use(50.0)

    sim.spawn(proc())
    sim.run()
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert cpu.utilization() == pytest.approx(0.5)
    assert cpu.utilization(horizon=20.0) == pytest.approx(0.25)


def test_wait_and_service_time_recorded(sim, cpu):
    uses = []

    def proc(units):
        request = yield cpu.use(units)
        uses.append(request)

    sim.spawn(proc(10.0))
    sim.spawn(proc(20.0))
    sim.run()
    first, second = uses
    assert first.wait_time == 0.0
    assert first.service_time == 1.0
    assert second.wait_time == 1.0
    assert second.service_time == 2.0


def test_zero_capacity_rejected(sim):
    with pytest.raises(ValueError):
        Resource(sim, "bad", ResourceKind.CPU, capacity=0.0)


def test_negative_units_rejected(sim, cpu):
    with pytest.raises(ValueError):
        cpu.use(-1.0)
    with pytest.raises(ValueError):
        cpu.charge(-1.0)


def test_zero_units_complete_instantly(sim, cpu):
    def proc():
        yield cpu.use(0.0)
        return sim.now

    process = sim.spawn(proc())
    sim.run()
    assert process.result == 0.0
    assert cpu.busy_time == 0.0


def test_snapshot_is_plain_data(sim, cpu):
    def proc():
        yield cpu.use(10.0, label="x")

    sim.spawn(proc())
    sim.run()
    snap = cpu.snapshot()
    assert snap["total_units"] == 10.0
    assert snap["units_by_label"] == {"x": 10.0}
    assert snap["kind"] == ResourceKind.CPU


def test_queue_length_visible_while_busy(sim, cpu):
    lengths = []

    def hog():
        yield cpu.use(100.0)

    def waiter():
        yield cpu.use(1.0)

    def observer():
        yield 1.0
        lengths.append(cpu.queue_length)
        lengths.append(cpu.busy)

    sim.spawn(hog())
    sim.spawn(waiter())
    sim.spawn(observer())
    sim.run()
    assert lengths == [1, True]


def test_abandoned_in_service_keeps_server_occupied(sim, cpu):
    """Killing the served process must not free the server early.

    The killed request's completion is still scheduled; starting a new
    request before it fires would briefly double-serve the single-server
    resource and undercount contention.
    """
    starts = {}

    def victim():
        yield cpu.use(10.0)  # 1.0s of service at capacity 10

    def late_arrival():
        yield 0.6  # enqueues after the kill, before the old completion
        request = yield cpu.use(10.0)
        starts["late"] = request.started_at

    victim_process = sim.spawn(victim())
    sim.spawn(late_arrival())
    sim.schedule(0.5, victim_process.kill)
    sim.run()
    assert starts["late"] == 1.0
    assert cpu.completed_requests == 1
    assert cpu.total_units == 10.0


def test_abandoned_in_service_still_reports_busy(sim, cpu):
    observations = []

    def victim():
        yield cpu.use(10.0)

    def observer():
        yield 0.7
        observations.append(cpu.busy)

    victim_process = sim.spawn(victim())
    sim.spawn(observer())
    sim.schedule(0.5, victim_process.kill)
    sim.run()
    # at t=0.7 the abandoned request's completion (t=1.0) has not fired yet
    assert observations == [True]
    assert not cpu.busy


def test_priority_request_after_fifo_queue_still_ordered(sim, cpu):
    """The FIFO fast path must hand over cleanly to the priority heap."""
    order = []

    def proc(tag, priority):
        yield cpu.use(10.0, priority=priority)
        order.append(tag)

    def spawn_all():
        sim.spawn(proc("head", 0))
        sim.spawn(proc("fifo-a", 0))
        sim.spawn(proc("fifo-b", 0))
        sim.spawn(proc("urgent", -3))
        sim.spawn(proc("lazy", 7))
        yield 0.0

    sim.spawn(spawn_all())
    sim.run()
    assert order == ["head", "urgent", "fifo-a", "fifo-b", "lazy"]


# -- reservations: engines reserve, processes queue ----------------------


def test_back_to_back_reservations_start_at_the_previous_end(sim, cpu):
    assert cpu.reserve(10.0, label="a") == 0.0
    assert cpu.reserve(5.0, label="b") == 1.0
    assert cpu.reserve(5.0, label="c") == 1.5
    sim.schedule(4.0, lambda: None)
    sim.run()
    # an idle server starts the next reservation now, not at the old end
    assert cpu.reserve(10.0) == 4.0


def test_reservation_is_booked_when_its_service_ends(sim, cpu):
    cpu.reserve(10.0, label="tx")
    reads = []

    def read():
        reads.append((sim.now, cpu.busy_time, cpu.total_units,
                      dict(cpu.units_by_label), cpu.completed_requests))

    sim.schedule(0.5, read)
    sim.schedule(1.0, read)
    sim.run()
    assert reads == [(0.5, 0.0, 0.0, {}, 0),
                     (1.0, 1.0, 10.0, {"tx": 10.0}, 1)]


def test_run_cut_off_mid_service_leaves_the_reservation_unbooked(sim, cpu):
    cpu.reserve(10.0, label="early")
    cpu.reserve(10.0, label="late")
    sim.run(until=1.5)
    assert cpu.total_units == 10.0
    assert cpu.units_by_label == {"early": 10.0}
    assert cpu.busy_time == 1.0
    sim.run(until=2.0)
    assert cpu.total_units == 20.0
    assert cpu.completed_requests == 2


def test_pending_reservations_settle_before_a_charge(sim, cpu):
    cpu.reserve(10.0, label="tx")
    sim.run(until=1.0)
    cpu.charge(5.0, label="rx")
    assert cpu.units_by_label == {"tx": 10.0, "rx": 5.0}
    assert cpu.busy_time == 1.5


def test_busy_while_a_reservation_is_in_service(sim, cpu):
    observations = []
    cpu.reserve(10.0)
    cpu.reserve(10.0)
    for at in (0.5, 1.5, 2.0, 2.5):
        sim.schedule(at, lambda: observations.append((sim.now, cpu.busy)))
    assert cpu.busy
    sim.run()
    assert observations == [(0.5, True), (1.5, True), (2.0, False),
                            (2.5, False)]


def test_reserve_refuses_while_a_process_is_served(sim, cpu):
    errors = []

    def hog():
        yield cpu.use(10.0)

    def engine():
        try:
            cpu.reserve(1.0)
        except RuntimeError as exc:
            errors.append(exc)

    sim.spawn(hog())
    sim.schedule(0.5, engine)
    sim.run()
    assert len(errors) == 1
    assert cpu.completed_requests == 1


def test_process_use_refuses_while_a_reservation_is_in_service(sim, cpu):
    cpu.reserve(10.0)

    def proc():
        yield cpu.use(1.0)

    sim.spawn(proc())
    with pytest.raises(RuntimeError, match="reservation is in service"):
        sim.run()


def test_an_unused_resource_has_no_queue(sim, cpu):
    assert cpu.queue_length == 0
    assert not cpu.busy
    assert not hasattr(cpu, "__dict__")


def test_heap_migration_when_the_first_waiter_has_a_priority(sim, cpu):
    """The first queued request is already non-default: the heap is made
    with no FIFO behind it, and equal priorities keep arrival order."""
    order = []

    def proc(tag, priority):
        yield cpu.use(10.0, priority=priority)
        order.append(tag)

    def spawn_all():
        sim.spawn(proc("head", 0))
        sim.spawn(proc("lazy-a", 4))
        sim.spawn(proc("fifo", 0))
        sim.spawn(proc("lazy-b", 4))
        sim.spawn(proc("lazy-c", 4))
        yield 0.0

    sim.spawn(spawn_all())
    sim.run()
    assert order == ["head", "fifo", "lazy-a", "lazy-b", "lazy-c"]
