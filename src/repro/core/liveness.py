"""One failure detector for every tier of the management hierarchy.

The grid root, each federation site gateway and each analyzer's gossip
view ask "is this member alive?" of a :class:`FailureDetector`
configured in code per tier (DESIGN.md section 5.2, "Failure
detection"); the container scorecard reads the root's.  The detector
schedules no events and draws no random numbers: each client sweeps it
on its own cadence and reacts to the transitions the sweep returns.
"""

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
