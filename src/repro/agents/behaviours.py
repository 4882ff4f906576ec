"""Behaviour classes: the unit of agent activity.

Mirrors the JADE/AgentLight behaviour model: an agent is a bundle of
behaviours, each an independently scheduled activity.  Every behaviour runs
as a kernel process; its body is a generator that may ``yield`` kernel
primitives (sleeps, resource uses, events) or use the agent's
``receive``/``send`` helpers.
"""


class Behaviour:
    """Base behaviour.  Subclasses override :meth:`run` (a generator).

    The behaviour's generator may use ``yield from self.receive(...)`` and
    any kernel yieldable.  When :meth:`run` returns, the behaviour is done
    and detaches from its agent.
    """

    def __init__(self, name=None):
        self.name = name if name is not None else type(self).__name__
        self.agent = None
        self.process = None
        self.stopped = False
        self._span = None  # attribution span (telemetry attribution only)

    # -- wiring -----------------------------------------------------------

    def attach(self, agent):
        if self.agent is not None:
            raise RuntimeError("behaviour %s already attached" % self.name)
        self.agent = agent

    def start(self):
        agent = self.agent
        telemetry = agent.telemetry if agent.container is not None else None
        if telemetry is not None and telemetry.attribution:
            # One sim-time span per behaviour activation: the trace answers
            # "which agent's behaviours occupy the timeline" in simulated
            # time.  Passive -- no events, no RNG.
            self._span = telemetry.recorder.start(
                "behaviour:%s" % type(self).__name__,
                telemetry.BEHAVIOUR_TRACE,
                grid="agents",
                host=agent.host.name,
                agent=agent.name,
                behaviour=self.name,
            )
        self.process = agent.sim.spawn(
            self._main(), name="%s/%s" % (agent.name, self.name)
        )

    def kill(self):
        self.stopped = True
        if self.process is not None:
            self.process.kill()

    @property
    def done(self):
        return self.process is not None and self.process.done

    def _main(self):
        try:
            yield from self.run()
        finally:
            agent = self.agent
            if agent is not None:
                agent._behaviour_finished(self)
            span = self._span
            if span is not None:
                self._span = None
                telemetry = agent.telemetry if agent is not None else None
                if telemetry is not None:
                    telemetry.recorder.end(
                        span, status="stopped" if self.stopped else "ok")

    # -- overridables ---------------------------------------------------------

    def run(self):
        """The behaviour body (generator).  Must be overridden."""
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator function

    # -- conveniences forwarded to the agent ----------------------------------

    @property
    def sim(self):
        return self.agent.sim

    def receive(self, template=None, timeout=None):
        return self.agent.receive(template, timeout)

    def send(self, message):
        self.agent.send(message)

    def __repr__(self):
        owner = self.agent.name if self.agent else "unattached"
        return "%s(%r @ %s)" % (type(self).__name__, self.name, owner)


class OneShotBehaviour(Behaviour):
    """Runs :meth:`action` once, then finishes."""

    def run(self):
        yield from self.action()

    def action(self):
        raise NotImplementedError
        yield  # pragma: no cover


class CyclicBehaviour(Behaviour):
    """Repeats :meth:`step` until stopped.

    ``step`` should block on something (a receive, a sleep) or the
    behaviour would spin; a zero-yield guard trips after
    ``max_idle_spins`` consecutive instantaneous steps.
    """

    def __init__(self, name=None, max_idle_spins=1000):
        super().__init__(name)
        self.max_idle_spins = max_idle_spins

    def run(self):
        spins = 0
        while not self.stopped:
            before = self.sim.now
            yield from self.step()
            if self.sim.now == before:
                spins += 1
                if spins >= self.max_idle_spins:
                    raise RuntimeError(
                        "cyclic behaviour %s spun %d times without advancing time"
                        % (self.name, spins)
                    )
            else:
                spins = 0

    def step(self):
        raise NotImplementedError
        yield  # pragma: no cover


class TickerBehaviour(Behaviour):
    """Invokes :meth:`on_tick` every ``period`` seconds.

    Args:
        period: tick interval.
        max_ticks: stop after this many ticks (None = forever).
        initial_delay: offset before the first tick (defaults to period).
    """

    def __init__(self, period, name=None, max_ticks=None, initial_delay=None):
        super().__init__(name)
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.max_ticks = max_ticks
        self.initial_delay = initial_delay if initial_delay is not None else period
        self.ticks = 0

    def run(self):
        yield self.initial_delay
        while not self.stopped:
            if self.max_ticks is not None and self.ticks >= self.max_ticks:
                return
            yield from self.on_tick()
            self.ticks += 1
            yield self.period

    def on_tick(self):
        raise NotImplementedError
        yield  # pragma: no cover


class MultiplexedTickerBehaviour(TickerBehaviour):
    """One ticker process driving many plain callbacks.

    N per-agent watchdogs cost N kernel processes and N timer events per
    period; the sharded grid coalesces them into a single multiplexed
    ticker (one process, one timer event) that calls each registered
    callback in registration order.  Callbacks must be plain callables
    (no generators -- they run inside the shared tick and may not block);
    a callback returning work to do should schedule it itself.
    """

    def __init__(self, period, name=None, max_ticks=None, initial_delay=None):
        super().__init__(period, name=name, max_ticks=max_ticks,
                         initial_delay=initial_delay)
        self._callbacks = []

    def add_callback(self, callback):
        if not callable(callback):
            raise TypeError("callback must be callable")
        self._callbacks.append(callback)
        return self

    def on_tick(self):
        for callback in list(self._callbacks):
            callback()
        return
        yield  # pragma: no cover - keeps on_tick a generator for run()

