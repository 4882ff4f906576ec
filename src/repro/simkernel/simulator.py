"""The simulator: clock, event loop and generator-based processes.

Processes are plain Python generators.  They communicate with the kernel by
``yield``-ing one of:

* a number -- sleep for that many simulated seconds;
* a :class:`~repro.simkernel.events.SimEvent` -- wait until it is triggered
  (the trigger value becomes the result of the yield);
* a :class:`~repro.simkernel.resources.Use` request (obtained from
  ``resource.use(units)``) -- queue for the resource and resume once the
  work has been served (busy time is accounted on the resource);
* another :class:`Process` -- join it (the joined process's return value
  becomes the result of the yield).

Example::

    def worker(sim, cpu):
        yield 1.0                      # sleep
        yield cpu.use(10, label="parse")
        return "done"

    sim = Simulator(seed=42)
    proc = sim.spawn(worker(sim, cpu), name="worker")
    sim.run()
    assert proc.result == "done"

Process setup is deliberately allocation-light (the spawn/join path runs
hundreds of thousands of times per experiment): the ``.completion``
:class:`SimEvent`, the per-process ``_Resumer`` and the unique-ified name
string are all materialized lazily, only when something actually waits on
/ reads them.  A plain ``yield child`` join never touches a SimEvent at
all -- the child keeps a slim list of join callbacks and schedules them on
finish, in exactly the order (and through exactly the same zero-delay
lane) the eager completion event used, so event ordering is unchanged
(pinned by ``tests/test_simkernel_determinism.py``).
"""

from repro.simkernel.events import EventQueue, SimEvent
from repro.simkernel.resources import Use
from repro.simkernel.rng import RngStream


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused."""


class ProcessKilled(Exception):
    """Thrown into a process generator when it is killed."""


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Process:
    """A running simulation process wrapping a generator.

    Attributes:
        name: human-readable identifier (unique-ified by the simulator).
        done: True once the generator has finished or been killed.
        result: the generator's return value (``None`` if killed/failed).
        error: exception that escaped the generator, if any.
    """

    __slots__ = ("sim", "generator", "_name", "_name_count", "done",
                 "result", "error", "alive", "_completion", "_joiners",
                 "_pending_wait", "_pending_timer", "_pending_use",
                 "_resumer")

    def __init__(self, sim, generator, name, name_count=0):
        self.sim = sim
        self.generator = generator
        self._name = name
        self._name_count = name_count
        self.done = False
        self.result = None
        self.error = None
        self.alive = True
        self._completion = None  # SimEvent, materialized on first access
        self._joiners = None  # callbacks resumed with the result on finish
        self._pending_wait = None  # (SimEvent-or-Process, callback) while blocked
        self._pending_timer = None  # ScheduledEvent while sleeping
        self._pending_use = None  # Use while queued/served on a resource
        # A process waits on at most one thing at a time, so a single
        # resumer is reused for every event wait / join it ever makes --
        # created on the first one.
        self._resumer = None

    # -- public API ----------------------------------------------------

    @property
    def name(self):
        """The unique-ified process name (formatted lazily: most spawns
        never read it, and "%s#%d" per spawn is measurable at kernel
        microbench rates)."""
        count = self._name_count
        if count:
            self._name = "%s#%d" % (self._name, count)
            self._name_count = 0
        return self._name

    @property
    def completion(self):
        """SimEvent triggered with the result when the process ends.

        Materialized on demand: a plain ``yield process`` join uses the
        slim joiner list instead, so most processes never allocate this.
        """
        completion = self._completion
        if completion is None:
            completion = SimEvent(self.sim, name=self.name + ".done")
            self._completion = completion
            if self.done:
                completion.trigger(self.result)
        return completion

    def kill(self):
        """Terminate the process immediately; no further resumption."""
        if self.done or not self.alive:
            return
        self.alive = False
        self._detach()
        try:
            self.generator.close()
        except Exception as exc:  # a misbehaving finally block
            self.error = exc
        self._finish(None, killed=True)

    def interrupt(self, cause=None):
        """Throw :class:`Interrupted` into the process at its wait point."""
        if self.done or not self.alive:
            return
        self._detach()
        self.sim._step(self, throw=Interrupted(cause))

    # -- kernel internals ----------------------------------------------

    def discard_waiter(self, callback):
        """Remove a pending join callback (mirrors SimEvent.discard_waiter
        so :meth:`_detach` can treat event waits and joins uniformly)."""
        joiners = self._joiners
        if joiners is not None:
            try:
                joiners.remove(callback)
            except ValueError:
                pass

    def _detach(self):
        """Remove the process from whatever it is currently blocked on."""
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        if self._pending_wait is not None:
            target, callback = self._pending_wait
            target.discard_waiter(callback)
            self._pending_wait = None
        if self._pending_use is not None:
            self._pending_use.resource._abandon(self._pending_use)
            self._pending_use = None

    def _finish(self, result, killed=False):
        self.done = True
        self.alive = False
        self.result = result
        # The generator is spent: dropping the reference frees its frame by
        # refcount instead of leaving a Process<->frame cycle for the GC
        # (measurable as gen-2 pauses at kernel microbench spawn rates).
        self.generator = None
        completion = self._completion
        if completion is not None and not completion.triggered:
            completion.trigger(result)
        joiners = self._joiners
        if joiners is not None:
            self._joiners = None
            schedule_now = self.sim._schedule_now
            step = self.sim._step
            for callback in joiners:
                # Joiners are always _Resumer instances: schedule the step
                # directly instead of paying an extra __call__ frame each.
                schedule_now(step, (callback.process, result))
        if killed:
            return
        if self.error is not None and not self.sim.swallow_process_errors:
            raise self.error

    def __repr__(self):
        state = "done" if self.done else "running"
        return "Process(%r, %s)" % (self.name, state)


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: master seed; all component RNG streams derive from it.
        swallow_process_errors: if True, exceptions escaping processes are
            recorded on ``process.error`` instead of aborting the run
            (used by fault-injection benches).
    """

    def __init__(self, seed=0, swallow_process_errors=False):
        self.now = 0.0
        self.seed = seed
        self.swallow_process_errors = swallow_process_errors
        self.queue = EventQueue()
        self.spawned = 0
        self._name_counts = {}
        self._trace_hooks = []
        self._profiler = None
        self._rng_streams = {}

    # -- time & events ---------------------------------------------------

    def schedule(self, delay, callback, args=(), priority=0):
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay == 0 and priority == 0:
            # Zero-delay lane: same-instant default-priority callbacks skip
            # the timer structures entirely (see EventQueue.push_fifo).
            return self.queue.push_fifo(self.now, callback, args)
        if delay < 0:
            raise SimulationError("cannot schedule in the past (delay=%r)" % delay)
        return self.queue.push(self.now + delay, callback, args, priority)

    def _schedule_now(self, callback, args=()):
        """Internal zero-delay schedule used on the kernel's hot paths."""
        return self.queue.push_fifo(self.now, callback, args)

    def event(self, name=""):
        """Create a fresh :class:`SimEvent` bound to this simulator."""
        return SimEvent(self, name=name)

    def timeout_event(self, delay, value=None, name="timeout"):
        """A SimEvent that self-triggers after ``delay`` seconds."""
        event = self.event(name)
        self.schedule(delay, event.trigger, (value,))
        return event

    # -- processes --------------------------------------------------------

    def spawn(self, generator, name=None):
        """Start a new process from a generator; returns the Process."""
        if name is None:
            name = getattr(generator, "__name__", "process")
        counts = self._name_counts
        count = counts.get(name, 0)
        counts[name] = count + 1
        process = Process(self, generator, name, count)
        self.spawned += 1
        self.queue.push_fifo(self.now, self._step, (process, None, None))
        return process

    def _step(self, process, send=None, throw=None):
        """Advance ``process`` by one yield."""
        if process.done or not process.alive:
            return
        process._pending_wait = None
        process._pending_timer = None
        process._pending_use = None
        try:
            if throw is not None:
                item = process.generator.throw(throw)
            else:
                item = process.generator.send(send)
        except StopIteration as stop:
            process._finish(stop.value)
            return
        except (Interrupted, ProcessKilled):
            process._finish(None, killed=True)
            return
        except Exception as exc:
            process.error = exc
            process._finish(None, killed=self.swallow_process_errors)
            return
        self._dispatch_yield(process, item)

    def _dispatch_yield(self, process, item):
        if isinstance(item, (int, float)):
            # Inlined schedule(): sleeps run at kernel microbench rates.
            if item > 0:
                process._pending_timer = self.queue.push(
                    self.now + item, self._step, (process, None, None)
                )
            elif item == 0:
                self.queue.push_fifo(self.now, self._step, (process, None, None))
            else:
                self._step(process, throw=SimulationError("negative sleep %r" % item))
        elif isinstance(item, SimEvent):
            callback = process._resumer
            if callback is None:
                callback = process._resumer = _Resumer(self, process)
            process._pending_wait = (item, callback)
            item.add_waiter(callback)
        elif isinstance(item, Use):
            process._pending_use = item
            item.resource._enqueue(process, item)
        elif isinstance(item, Process):
            callback = process._resumer
            if callback is None:
                callback = process._resumer = _Resumer(self, process)
            if item.done:
                # One-shot join fast path: the result is already known, so
                # resume through the zero-delay lane exactly as a triggered
                # completion event would have.
                self.queue.push_fifo(self.now, callback, (item.result,))
                return
            completion = item._completion
            if completion is not None:
                # Someone materialized the completion event -- keep every
                # waiter (event and join alike) in its single waiter list
                # so resumption order is exactly the eager-SimEvent order.
                process._pending_wait = (completion, callback)
                completion.add_waiter(callback)
                return
            joiners = item._joiners
            if joiners is None:
                joiners = item._joiners = []
            joiners.append(callback)
            process._pending_wait = (item, callback)
        else:
            self._step(
                process,
                throw=SimulationError("process yielded unsupported %r" % (item,)),
            )

    # -- running -----------------------------------------------------------

    def run(self, until=None, max_events=None):
        """Run until the queue drains, ``until`` is reached, or event cap hit.

        With ``until``, the clock ends at ``until`` even when the queue
        drains first.  Returns the simulated time at which the run stopped.
        """
        executed = 0
        queue = self.queue
        pop = queue.pop
        bounded = until is not None or max_events is not None
        hooks = self._trace_hooks
        profiler = self._profiler
        if not bounded and profiler is None:
            # The unbounded, unprofiled loop is the kernel's hottest path:
            # strip the per-event bookkeeping branches entirely.  ``hooks``
            # is the live list, so hooks added mid-run are still honoured.
            while True:
                event = pop()
                if event is None:
                    break
                if event.time < self.now - 1e-12:
                    raise SimulationError("time went backwards")
                self.now = event.time
                if hooks:
                    for hook in hooks:
                        hook(self.now, event)
                event.callback(*event.args)
            return self.now
        if profiler is not None:
            from time import perf_counter
            account = profiler.account
        elif until is not None and max_events is None:
            # Until-only loop: no event counter, no per-event bound-mode
            # branches.  ``run_until_records`` drives the big-topology
            # benches through repeated bounded slices, so at devices=5000
            # this loop executes every kernel event of the run.
            peek = queue.peek_time
            while True:
                next_time = peek()
                if next_time is None or next_time > until:
                    self.now = until
                    break
                event = pop()
                if event.time < self.now - 1e-12:
                    raise SimulationError("time went backwards")
                self.now = event.time
                if hooks:
                    for hook in hooks:
                        hook(self.now, event)
                event.callback(*event.args)
            return self.now
        while True:
            if bounded:
                if until is not None:
                    next_time = queue.peek_time()
                    if next_time is None or next_time > until:
                        self.now = until
                        break
                if max_events is not None and executed >= max_events:
                    break
                executed += 1
            event = pop()
            if event is None:
                break
            if event.time < self.now - 1e-12:
                raise SimulationError("time went backwards")
            self.now = event.time
            if hooks:
                for hook in hooks:
                    hook(self.now, event)
            if profiler is None:
                event.callback(*event.args)
            else:
                started = perf_counter()
                event.callback(*event.args)
                account(event.callback, perf_counter() - started)
        return self.now

    def add_trace_hook(self, hook):
        """Register ``hook(now, scheduled_event)`` called before each event."""
        self._trace_hooks.append(hook)

    def set_profiler(self, profiler):
        """Install (or, with ``None``, remove) a kernel profiler.

        ``profiler.account(callback, elapsed_seconds)`` is called after
        every executed event -- see
        :class:`~repro.simkernel.telemetry.KernelProfiler`.  Off by
        default; takes effect on the next :meth:`run` call (the loop caches
        the profiler reference for speed).
        """
        self._profiler = profiler

    # -- randomness ----------------------------------------------------------

    def rng(self, stream_name):
        """A named deterministic RNG stream derived from the master seed."""
        stream = self._rng_streams.get(stream_name)
        if stream is None:
            stream = RngStream(self.seed, stream_name)
            self._rng_streams[stream_name] = stream
        return stream

    def __repr__(self):
        return "Simulator(now=%g, pending=%d)" % (self.now, len(self.queue))


class _Resumer:
    """A hashable callback resuming a process with the event value."""

    __slots__ = ("sim", "process")

    def __init__(self, sim, process):
        self.sim = sim
        self.process = process

    def __call__(self, value):
        self.sim._step(self.process, value)

    def __eq__(self, other):
        return isinstance(other, _Resumer) and other.process is self.process

    def __hash__(self):
        return hash(id(self.process))
