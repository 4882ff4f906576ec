"""Capacity-limited resources with busy-time accounting.

A :class:`Resource` models one of a host's serving elements -- CPU, disk
subsystem, or network interface.  Work carries an abstract amount of
*units* (the paper's Table 1 values); service time is
``units / capacity`` and the resource serves one piece of work at a time.
Every served unit is recorded in a ledger broken down by label, which is
exactly what the Figure 6 bench reads back out.

A resource has two kinds of users, and each pays only for what it uses:

* **processes queue**: a process yields a :class:`Use` request and resumes
  when it has been served, FIFO within priority.  The wait queue is
  allocated when a process first has to wait.
* **engines reserve**: :meth:`Resource.reserve` books the next service
  interval -- from ``max(now, end of the previous reservation)`` for
  ``units / capacity`` -- and returns its start, so the caller (the
  transport, the SNMP agent) schedules its own single event when the work
  is done.  The ledger books a reservation when its service ends.

One resource never mixes the two at once: reserving while a process is
queued or served, or queueing a process while a reservation is in
service, raises.
"""

import collections
import heapq
import itertools


class ResourceKind:
    """Resource categories used throughout the reproduction."""

    CPU = "cpu"
    DISK = "disk"
    NET = "network"

    ALL = (CPU, NET, DISK)


class Use:
    """A pending request for ``units`` of work on a resource.

    Created via :meth:`Resource.use`; yield it from a process.  After the
    yield resumes, :attr:`wait_time` and :attr:`service_time` describe how
    the request fared (useful for latency metrics).
    """

    __slots__ = (
        "resource",
        "units",
        "label",
        "priority",
        "process",
        "enqueued_at",
        "started_at",
        "wait_time",
        "service_time",
        "abandoned",
    )

    def __init__(self, resource, units, label, priority):
        self.resource = resource
        self.units = units
        self.label = label
        self.priority = priority
        self.process = None
        self.enqueued_at = None
        self.started_at = None
        self.wait_time = None
        self.service_time = None
        self.abandoned = False

    def __repr__(self):
        return "Use(%s, units=%g, label=%r)" % (
            self.resource.full_name,
            self.units,
            self.label,
        )


class Resource:
    """A single-server, FIFO-within-priority resource with a busy ledger.

    Args:
        sim: owning simulator.
        name: short name (e.g. ``"cpu"``).
        kind: one of :class:`ResourceKind`.
        capacity: units served per simulated second (must be > 0).
        owner: optional owning object (a Host); used in ``full_name``.
    """

    __slots__ = ("sim", "name", "kind", "capacity", "owner", "_busy_time",
                 "_total_units", "_units_by_label", "_completed",
                 "_fifo", "_heap", "_seq", "_serving", "_reserved_until",
                 "_bookings")

    def __init__(self, sim, name, kind, capacity, owner=None):
        if capacity <= 0:
            raise ValueError("capacity must be positive, got %r" % capacity)
        self.sim = sim
        self.name = name
        self.kind = kind
        self.capacity = float(capacity)
        self.owner = owner
        self._busy_time = 0.0
        self._total_units = 0.0
        self._units_by_label = None  # allocated by the first booking
        self._completed = 0
        # Waiting processes live in a plain FIFO deque while every queued
        # priority is the default 0, and in a heap of (priority, seq,
        # request) from the first non-zero one on.  Both are allocated
        # when a process first has to wait.
        self._fifo = None
        self._heap = None
        self._seq = None
        self._serving = None
        # Reservations: the end of the last one, and the (end, units,
        # label) of those whose service has not yet been booked.
        self._reserved_until = 0.0
        self._bookings = None

    @property
    def full_name(self):
        if self.owner is not None:
            return "%s.%s" % (getattr(self.owner, "name", self.owner), self.name)
        return self.name

    # -- the ledger (reservations are booked when their service ends) ------

    @property
    def busy_time(self):
        if self._bookings:
            self._settle()
        return self._busy_time

    @property
    def total_units(self):
        if self._bookings:
            self._settle()
        return self._total_units

    @property
    def units_by_label(self):
        if self._bookings:
            self._settle()
        return self._ledger()

    @property
    def completed_requests(self):
        if self._bookings:
            self._settle()
        return self._completed

    @property
    def queue_length(self):
        """Processes waiting (not counting the one in service)."""
        if self._heap is not None:
            return len(self._heap)
        if self._fifo is not None:
            return len(self._fifo)
        return 0

    @property
    def busy(self):
        """True while a process or a reservation is in service."""
        return self._serving is not None or self._reserved_until > self.sim.now

    def utilization(self, horizon=None):
        """Busy fraction over ``horizon`` (defaults to current sim time)."""
        if horizon is None:
            horizon = self.sim.now
        if horizon <= 0:
            return 0.0
        return self.busy_time / horizon

    def use(self, units, label="work", priority=0):
        """Build a :class:`Use` request; yield it from a process."""
        if units < 0:
            raise ValueError("units must be >= 0, got %r" % units)
        return Use(self, float(units), label, priority)

    def reserve(self, units, label="work"):
        """Book the next service interval for ``units``; return its start.

        Service starts at ``max(now, end of the previous reservation)`` and
        lasts ``units / capacity``.  Nothing is scheduled: the caller
        schedules whatever happens when the work is done.  The ledger
        books the units when the service ends.
        """
        if units < 0:
            raise ValueError("units must be >= 0, got %r" % units)
        if self._serving is not None or self._fifo or self._heap:
            raise RuntimeError(
                "%s: cannot reserve while a process is queued or served"
                % self.full_name)
        bookings = self._bookings
        if bookings:
            self._settle()
        elif bookings is None:
            bookings = self._bookings = []
        now = self.sim.now
        start = self._reserved_until
        if start < now:
            start = now
        units = float(units)
        end = start + units / self.capacity
        self._reserved_until = end
        bookings.append((end, units, label))
        return start

    def charge(self, units, label="direct"):
        """Account units without occupying the server.

        Used for costs that are proportional to work done but not modelled
        as queueing (e.g. the far end of a network transfer).  Busy time
        still advances so utilization reflects the charge.
        """
        if units < 0:
            raise ValueError("units must be >= 0, got %r" % units)
        if self._bookings:
            self._settle()
        self._total_units += units
        self._ledger()[label] += units
        self._busy_time += units / self.capacity

    # -- kernel internals -------------------------------------------------

    def _ledger(self):
        """The units-by-label counter, allocated on first use."""
        ledger = self._units_by_label
        if ledger is None:
            ledger = self._units_by_label = collections.Counter()
        return ledger

    def _settle(self):
        """Book, in FIFO order, every reservation whose service has ended."""
        bookings = self._bookings
        now = self.sim.now
        ended = 0
        for end, units, label in bookings:
            if end > now:
                break
            self._busy_time += units / self.capacity
            self._total_units += units
            self._ledger()[label] += units
            self._completed += 1
            ended += 1
        del bookings[:ended]

    def _enqueue(self, process, request):
        if self._reserved_until > self.sim.now:
            raise RuntimeError(
                "%s: a process cannot queue while a reservation is in service"
                % self.full_name)
        request.process = process
        request.enqueued_at = self.sim.now
        if self._serving is None and not self._fifo and not self._heap:
            # Nobody to wait behind: start without allocating a queue.
            self._start(request)
            return
        if self._heap is None and request.priority == 0:
            fifo = self._fifo
            if fifo is None:
                fifo = self._fifo = collections.deque()
            fifo.append(request)
        else:
            self._enqueue_slow(request)
        self._try_start()

    def _enqueue_slow(self, request):
        if self._heap is None:
            # First non-default priority: migrate the FIFO into a heap,
            # preserving arrival order via fresh monotonic seqs.
            self._heap = []
            self._seq = itertools.count()
            if self._fifo:
                for queued in self._fifo:
                    self._heap.append((queued.priority, next(self._seq), queued))
                self._fifo.clear()
        heapq.heappush(self._heap, (request.priority, next(self._seq), request))

    def _abandon(self, request):
        """Mark a request abandoned (its process was detached).

        Abandoned requests are lazily skipped when they reach the head of
        the queue.  If the request is *in service*, the server stays
        occupied until the already-scheduled completion fires -- clearing
        ``_serving`` here would let a later arrival start a second service
        while the abandoned one's ``_complete`` is still pending, briefly
        double-serving the single-server resource.
        """
        request.abandoned = True

    def _try_start(self):
        if self._serving is not None:
            return
        fifo = self._fifo
        while fifo:
            request = fifo.popleft()
            if not request.abandoned:
                self._start(request)
                return
        heap = self._heap
        while heap:
            request = heapq.heappop(heap)[2]
            if not request.abandoned:
                self._start(request)
                return

    def _start(self, request):
        self._serving = request
        request.started_at = self.sim.now
        request.wait_time = request.started_at - request.enqueued_at
        duration = request.units / self.capacity
        request.service_time = duration
        self.sim.schedule(duration, self._complete, (request,))

    def _complete(self, request):
        self._serving = None
        if not request.abandoned:
            self._busy_time += request.service_time
            self._total_units += request.units
            self._ledger()[request.label] += request.units
            self._completed += 1
            self.sim._step(request.process, send=request)
        self._try_start()

    def snapshot(self):
        """A plain-dict view of the ledger (stable for reports/tests)."""
        return {
            "name": self.full_name,
            "kind": self.kind,
            "capacity": self.capacity,
            "busy_time": self.busy_time,
            "total_units": self.total_units,
            "completed_requests": self.completed_requests,
            "units_by_label": dict(self.units_by_label),
        }

    def __repr__(self):
        return "Resource(%s, kind=%s, busy=%g)" % (
            self.full_name,
            self.kind,
            self.busy_time,
        )
