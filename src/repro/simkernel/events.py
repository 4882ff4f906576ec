"""Event primitives for the discrete-event kernel.

Two kinds of "event" live here and they are deliberately distinct:

* :class:`ScheduledEvent` -- an entry in the simulator's time-ordered queue
  (a callback that fires at a simulated instant).  Created by
  :meth:`Simulator.schedule <repro.simkernel.simulator.Simulator.schedule>`.
* :class:`SimEvent` -- a one-shot condition that processes can *wait on*
  (``yield event``) and that any code can *trigger* with a value.  This is
  the rendezvous primitive used for message queues, job completion and
  process joins.

The queue has two lanes, merged into one exact global
(time, priority, seq) order on ``pop``:

* **heap** -- future events, and same-instant events with a non-default
  priority, go into one binary heap of ``(time, priority, seq, event)``
  entries, so every sift compares plain tuples in C (``seq`` is unique,
  so the event itself is never compared).
* **fast lane** -- same-instant default-priority events (``spawn``,
  ``SimEvent.trigger``, already-triggered ``add_waiter``) go through a
  plain FIFO deque, skipping the heap entirely.  Because fast-lane
  entries always carry the *current* simulated time and priority 0, and
  are appended in strictly increasing ``seq`` order, a single
  head-to-head comparison against the heap head reproduces the exact
  global ordering.

``pop(until)`` returns the next event only if it is due at or before
``until``, so the simulator's run loop makes one queue call per event.
``tests/test_simkernel_determinism.py`` pins the pop order, operation by
operation, against a reference model over random push / fast-push /
cancel / bounded-pop interleavings.
"""

import collections
import heapq
import itertools
import math


class ScheduledEvent:
    """A cancellable callback scheduled at an absolute simulated time.

    Ordering: time, then priority (lower fires first), then insertion order,
    which keeps runs fully deterministic.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "queue")

    def __init__(self, time, priority, seq, callback, args, queue=None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.queue = queue

    def cancel(self):
        """Prevent the callback from firing (idempotent, O(1))."""
        if not self.cancelled:
            self.cancelled = True
            queue = self.queue
            if queue is not None:
                queue._live -= 1
                self.queue = None

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return "ScheduledEvent(t=%g, prio=%d, %s)" % (self.time, self.priority, state)


class EventQueue:
    """A deterministic priority queue of :class:`ScheduledEvent`.

    Cancelled events stay in their lane and are skipped on pop; this keeps
    cancellation O(1) at the cost of occasional lazy cleanup.  ``len`` is
    O(1): a live count is incremented on push and decremented by both pop
    and :meth:`ScheduledEvent.cancel`.
    """

    def __init__(self):
        self._heap = []
        self._fast = collections.deque()
        self._counter = itertools.count()
        self._live = 0

    def __len__(self):
        return self._live

    def push(self, time, callback, args=(), priority=0):
        """Insert a callback to fire at absolute ``time``; returns the event."""
        seq = next(self._counter)
        event = ScheduledEvent(time, priority, seq, callback, args, self)
        self._live += 1
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def push_fifo(self, time, callback, args=()):
        """Fast-lane insert for a default-priority event at the current time.

        The caller must guarantee ``time`` is the simulator's *current*
        instant (no pending entry fires earlier than it): :meth:`pop` then
        only needs one comparison against the heap head to keep the
        global (time, priority, seq) order exact.
        """
        event = ScheduledEvent(time, 0, next(self._counter), callback, args,
                               self)
        self._fast.append(event)
        self._live += 1
        return event

    def pop(self, until=math.inf):
        """Remove and return the next live event due at or before ``until``.

        Returns None when the queue holds no live event, or when the next
        one is due after ``until`` (it then stays queued).
        """
        fast = self._fast
        while fast and fast[0].cancelled:
            fast.popleft()
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if fast:
            event = fast[0]
            if heap:
                time, priority, seq, top = heap[0]
                # ``heap[0] < (event.time, 0, event.seq)``, unallocated.
                if time < event.time or (time == event.time and (
                        priority < 0 or (priority == 0 and seq < event.seq))):
                    if time > until:
                        return None
                    heapq.heappop(heap)
                    self._live -= 1
                    top.queue = None
                    return top
            if event.time > until:
                return None
            fast.popleft()
        elif heap:
            if heap[0][0] > until:
                return None
            event = heapq.heappop(heap)[3]
        else:
            return None
        self._live -= 1
        event.queue = None
        return event


class SimEvent:
    """A one-shot event that simulation processes can wait on.

    Usage from a process generator::

        value = yield some_event      # suspends until triggered

    Triggering an already-triggered event raises; waiting on a triggered
    event resumes the waiter immediately (at the current instant) with the
    stored value, so there is no lost-wakeup race.
    """

    __slots__ = ("sim", "name", "triggered", "value", "_waiters")

    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value = None
        self._waiters = []

    def trigger(self, value=None):
        """Fire the event, resuming every waiter with ``value``."""
        if self.triggered:
            raise RuntimeError("SimEvent %r triggered twice" % (self.name,))
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        schedule_now = self.sim._schedule_now
        for callback in waiters:
            schedule_now(callback, (value,))

    def add_waiter(self, callback):
        """Register ``callback(value)``; called now if already triggered."""
        if self.triggered:
            self.sim._schedule_now(callback, (self.value,))
        else:
            self._waiters.append(callback)

    def discard_waiter(self, callback):
        """Remove a pending waiter if present (used by process kill)."""
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def __repr__(self):
        state = "triggered" if self.triggered else "pending"
        return "SimEvent(%r, %s)" % (self.name, state)
