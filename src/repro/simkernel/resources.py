"""Capacity-limited resources with busy-time accounting.

A :class:`Resource` models one of a host's serving elements -- CPU, disk
subsystem, or network interface.  Work arrives as :class:`Use` requests
carrying an abstract amount of *units* (the paper's Table 1 values).  The
resource serves requests one at a time in FIFO-within-priority order;
service time is ``units / capacity``.  Every served unit is recorded in a
ledger broken down by label, which is exactly what the Figure 6 bench reads
back out.
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
        "on_start",
        "on_complete",
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
        self.on_start = None
        self.on_complete = None

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

    def __init__(self, sim, name, kind, capacity, owner=None):
        if capacity <= 0:
            raise ValueError("capacity must be positive, got %r" % capacity)
        self.sim = sim
        self.name = name
        self.kind = kind
        self.capacity = float(capacity)
        self.owner = owner
        self.busy_time = 0.0
        self.total_units = 0.0
        self.units_by_label = collections.Counter()
        self.completed_requests = 0
        # Fast path: all real workloads enqueue at the default priority 0,
        # so waiting requests live in a plain FIFO deque (no per-request
        # tuple, no seq, no heap sift).  The first non-zero priority seen
        # migrates the queue into a heap and the resource stays in heap
        # mode from then on.
        self._fifo = collections.deque()
        self._heap = None
        self._seq = itertools.count()
        self._serving = None

    @property
    def full_name(self):
        if self.owner is not None:
            return "%s.%s" % (getattr(self.owner, "name", self.owner), self.name)
        return self.name

    @property
    def queue_length(self):
        """Requests waiting (not counting the one in service)."""
        if self._heap is not None:
            return len(self._heap)
        return len(self._fifo)

    @property
    def busy(self):
        return self._serving is not None

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

    def acquire(self, units, label="work", priority=0, on_start=None, on_complete=None):
        """Queue a request driven by callbacks instead of a process.

        The request joins the same FIFO/priority queue as yielded
        :class:`Use` requests and is served identically; ``on_start`` fires
        when service begins and ``on_complete`` when it ends, each receiving
        the request.  This lets engine-style callers (the transport)
        occupy the server without spawning a process per request.
        """
        if units < 0:
            raise ValueError("units must be >= 0, got %r" % units)
        request = Use(self, float(units), label, priority)
        request.on_start = on_start
        request.on_complete = on_complete
        request.enqueued_at = self.sim.now
        if self._heap is None and priority == 0:
            self._fifo.append(request)
        else:
            self._enqueue_slow(request)
        self._try_start()
        return request

    def charge(self, units, label="direct"):
        """Account units without occupying the server.

        Used for costs that are proportional to work done but not modelled
        as queueing (e.g. the far end of a network transfer).  Busy time
        still advances so utilization reflects the charge.
        """
        if units < 0:
            raise ValueError("units must be >= 0, got %r" % units)
        self.total_units += units
        self.units_by_label[label] += units
        self.busy_time += units / self.capacity

    # -- kernel internals -------------------------------------------------

    def _enqueue(self, process, request):
        request.process = process
        request.enqueued_at = self.sim.now
        if self._heap is None and request.priority == 0:
            self._fifo.append(request)
        else:
            self._enqueue_slow(request)
        self._try_start()

    def _enqueue_slow(self, request):
        if self._heap is None:
            # First non-default priority: migrate the FIFO into a heap,
            # preserving arrival order via fresh monotonic seqs.
            self._heap = []
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
        if heap:
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
        if request.on_start is not None:
            request.on_start(request)

    def _complete(self, request):
        if self._serving is request:
            self._serving = None
        if not request.abandoned:
            self.busy_time += request.service_time
            self.total_units += request.units
            self.units_by_label[request.label] += request.units
            self.completed_requests += 1
            if request.process is not None:
                self.sim._step(request.process, send=request)
            elif request.on_complete is not None:
                request.on_complete(request)
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
