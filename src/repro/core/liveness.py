"""One failure detector and one beacon loop for every tier of the
management hierarchy.

The grid root, each federation site gateway and each analyzer's gossip
view ask "is this member alive?" of a :class:`FailureDetector`
configured in code per tier (DESIGN.md section 5.2, "Failure
detection"); the container scorecard reads the root's.  The detector
schedules no events and draws no random numbers.  Every member that
sends or hears beacons does so through one :class:`BeaconLoop`, which
beats its targets, sweeps its detector, probes down targets and hands
each transition to the tier's reaction.
"""

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.behaviours import CyclicBehaviour, TickerBehaviour

ALIVE = "alive"
SUSPECT = "suspect"
DOWN = "down"
HEALING = "healing"

#: Beacon intervals of silence after which the root evicts a container
#: and a gateway declares its peer site partitioned.
TIMEOUT_BEACONS = 4


class FailureDetector:
    """Per-member liveness from last-heard times; members are swept in
    the order they were first heard.

    Args:
        clock: zero-arg callable returning the current simulated time.
        down_after: silence after which a member is down (``None``:
            silence alone never takes a member down).
        suspect_after: silence after which an alive member turns suspect.
        confirm_after: time in suspicion after which a suspect is down,
            counted from the sweep that raised it (from the last-heard
            time for a suspicion taken over by :meth:`adopt`).
        revive: the status of a down member heard again -- :data:`ALIVE`,
            :data:`HEALING` (the next hearing makes it alive) or ``None``
            (hearing only refreshes the last-heard time).
    """

    def __init__(self, clock, down_after=None, suspect_after=None,
                 confirm_after=None, revive=ALIVE):
        for threshold in (down_after, suspect_after, confirm_after):
            if threshold is not None and not threshold > 0:
                raise ValueError("liveness thresholds must be positive")
        self.clock = clock
        self.down_after = down_after
        self.suspect_after = suspect_after
        self.confirm_after = confirm_after
        self.revive = revive
        self.last_heard = {}
        self._status = {}
        self._suspected_at = {}
        self.suspects = 0     # suspicions raised by sweeps
        self.downs = []       # [(member, time)] per transition to down
        self.recoveries = []  # [(member, time)] per return from down

    def status(self, member):
        """The member's status, or ``None`` if it was never heard."""
        return self._status.get(member)

    def silence(self, member):
        """Seconds since the member was last heard (``None``: never)."""
        last = self.last_heard.get(member)
        return None if last is None else self.clock() - last

    def heard(self, member):
        """Direct contact (the first enrols the member); returns the
        ``(member, old, new)`` transition it caused, or None."""
        self.last_heard[member] = self.clock()
        old = self._status.setdefault(member, ALIVE)
        if old == ALIVE or self.revive is None:
            return None
        return self._move(member, old, self.revive if old == DOWN else ALIVE)

    def adopt(self, member, status, last_heard):
        """Take over a status learned second-hand; returns the transition."""
        old = self._status.get(member)
        self.last_heard[member] = last_heard
        return None if old == status else self._move(member, old, status)

    def sweep(self):
        """Escalate silent members; returns the transitions."""
        now = self.clock()
        transitions = []
        for member, status in self._status.items():
            last = self.last_heard[member]
            if status == DOWN:
                continue
            if status == SUSPECT and self.confirm_after is not None:
                since = self._suspected_at.get(member, last)
                if now - since > self.confirm_after:
                    transitions.append(self._move(member, status, DOWN))
            elif self.down_after is not None and now - last > self.down_after:
                transitions.append(self._move(member, status, DOWN))
            elif (status == ALIVE and self.suspect_after is not None
                    and now - last > self.suspect_after):
                self._suspected_at[member] = now
                self.suspects += 1
                transitions.append(self._move(member, status, SUSPECT))
        return transitions

    def _move(self, member, old, new):
        self._status[member] = new
        if new == DOWN:
            self.downs.append((member, self.clock()))
        elif new == ALIVE:
            self._suspected_at.pop(member, None)
            if old in (DOWN, HEALING):
                self.recoveries.append((member, self.clock()))
        return (member, old, new)


class BeaconLoop:
    """One member's beacons: beat, sweep, probe and hear in one place.

    :meth:`start` installs the behaviours ``beacon`` (the beat, when
    ``period`` is set), ``beacon-sweep`` (when ``sweep_period`` is set;
    otherwise every beat sweeps) and ``beacon-inbox`` (when there is a
    ``detector``).  A beat sends ``payload()`` to each of ``targets()``;
    a target the detector holds down is probed instead, at the next beat
    and then after gaps that double from two periods up to ``probe_cap``
    (``None``: no backoff).  An inbox beacon goes to ``hear(content)``,
    which takes what the tier needs from it and names its sender
    (``None`` drops it).  That transition and every sweep's go to
    ``react(transitions)`` (which may be a generator), and a probe
    (``probe=True``) is answered at once.  ``ping`` makes every beat a
    probe, ``receivers`` maps a target to its agent where the names
    differ, and ``on_tick`` runs first in every beat.
    """

    def __init__(self, agent, ontology, size, payload, period=None,
                 targets=tuple, phase=None, detector=None,
                 sweep_period=None, probe_cap=None, ping=False,
                 receivers=None, hear=None, react=None, on_tick=None):
        self.agent = agent
        self.ontology = ontology
        self.size = size
        self.payload = payload
        self.period = period
        self.targets = targets
        self.phase = phase
        self.detector = detector
        self.sweep_period = sweep_period
        self.probe_cap = probe_cap
        self.ping = ping
        self.receivers = receivers or {}
        self.hear = hear
        self.react = react
        self.on_tick = on_tick
        self._backoff = {}  # down target -> (current gap, next probe time)
        self.ticks = self.sent = self.received = self.probes = 0

    def start(self):
        loop = self

        class Beat(TickerBehaviour):
            def on_tick(self):
                yield from loop._beat()

        class Sweep(TickerBehaviour):
            def on_tick(self):
                yield from loop._react(loop.detector.sweep())

        class Inbox(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=loop.ontology.name,
                ))
                if message is not None:
                    yield from loop._inbox(message)

        if self.period is not None:
            self.agent.add_behaviour(Beat(
                period=self.period, name="beacon", initial_delay=self.phase))
        if self.detector is not None:
            if self.sweep_period is not None:
                self.agent.add_behaviour(Sweep(
                    period=self.sweep_period, name="beacon-sweep"))
            self.agent.add_behaviour(Inbox("beacon-inbox"))
        return self

    def send(self, target, probe=False, **fields):
        """One beacon to ``target``, with ``fields`` added to its payload."""
        content = self.payload()
        content.update(fields)
        if probe:
            content["probe"] = True
        # A plain send on purpose: retransmission would mask the very
        # silence the detector listens for.
        self.agent.send(ACLMessage(
            Performative.INFORM,
            sender=self.agent.name,
            receiver=self.receivers.get(target, target),
            content=self.ontology.validate(content),
            ontology=self.ontology.name,
            size_units=self.size,
        ))
        self.sent += 1

    def _beat(self):
        self.ticks += 1
        if self.on_tick is not None:
            self.on_tick()
        if self.detector is not None and self.sweep_period is None:
            yield from self._react(self.detector.sweep())
        now = self.agent.sim.now
        for target in self.targets():
            if (self.probe_cap is None
                    or self.detector.status(target) != DOWN):
                self._backoff.pop(target, None)
                self.send(target, probe=self.ping)
                continue
            gap, due = self._backoff.get(target, (self.period, now))
            if now >= due:
                self.probes += 1
                self.send(target, probe=True)
                gap = min(gap * 2.0, self.probe_cap)
                self._backoff[target] = (gap, now + gap)

    def _inbox(self, message):
        content = self.ontology.validate(message.content)
        self.received += 1
        member = self.hear(content)
        if member is None:
            return
        transition = self.detector.heard(member)
        if transition is not None:
            yield from self._react([transition])
        if content.get("probe"):
            # Answer at once, so a probe's round trip is the whole wait.
            self.send(str(message.sender))

    def _react(self, transitions):
        if transitions and self.react is not None:
            reaction = self.react(transitions)
            if reaction is not None:
                yield from reaction
