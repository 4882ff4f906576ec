"""The shared failure detector (repro.core.liveness).

One hypothesis test drives random ``heard``/``sweep`` sequences through
the detector in each of its three configurations -- the grid root, a
site gateway, a gossip view -- and compares statuses, sweep results and
transition times against small oracles that keep the per-client
liveness code the detector replaced: the root's heartbeat eviction, the
gateway's link-state machine and the gossip ``PeerView`` escalation.

Times are multiples of 1/8 s and intervals are powers of two, so every
subtraction below is exact.  That matters for the root: its old
comparison was ``last < now - timeout`` and the detector's is
``now - last > timeout``; the two agree whenever both subtractions are
exact, and can differ by one ulp otherwise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.liveness import (
    ALIVE,
    DOWN,
    HEALING,
    SUSPECT,
    TIMEOUT_BEACONS,
    FailureDetector,
)

MEMBERS = ("a", "b", "c")


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- oracles: the per-client liveness code the detector replaced ------------


class RootOracle:
    """``ProcessorRootAgent._on_heartbeat`` / ``_check_heartbeats``."""

    def __init__(self, timeout):
        self.timeout = timeout
        self.last = {}
        self.registered = set()
        self.evicted = {}
        self.evictions = []
        self.recoveries = []

    def heard(self, member, now):
        if member not in self.registered:
            self.registered.add(member)
            if self.evicted.pop(member, None) is not None:
                self.recoveries.append((member, now))
        self.last[member] = now

    def sweep(self, now):
        horizon = now - self.timeout
        stale = [name for name, last in self.last.items()
                 if last < horizon and name in self.registered]
        for name in stale:
            self.registered.discard(name)
            self.evicted[name] = now
            self.evictions.append((name, now))
        return [(name, DOWN) for name in stale]

    def status(self, member):
        if member not in self.last:
            return None
        return DOWN if member in self.evicted else ALIVE


class GatewayOracle:
    """``SiteGatewayAgent._check_peers`` / ``_on_beacon``."""

    def __init__(self, timeout, peers):
        self.timeout = timeout
        self.state = {peer: ALIVE for peer in peers}
        self.last = {peer: 0.0 for peer in peers}
        self.partitions = []
        self.heals = []

    def heard(self, peer, now):
        self.last[peer] = now
        state = self.state[peer]
        if state == DOWN:
            self.state[peer] = HEALING
        elif state == HEALING:
            self.state[peer] = ALIVE
            self.heals.append((peer, now))
        elif state == SUSPECT:
            self.state[peer] = ALIVE

    def sweep(self, now):
        changed = []
        for peer in sorted(self.state):
            state = self.state[peer]
            if state == DOWN:
                continue
            silence = now - self.last[peer]
            if silence > self.timeout:
                self.state[peer] = DOWN
                self.partitions.append((peer, now))
                changed.append((peer, DOWN))
            elif state == ALIVE and silence > self.timeout / 2.0:
                self.state[peer] = SUSPECT
                changed.append((peer, SUSPECT))
        return changed

    def status(self, peer):
        return self.state[peer]


class GossipOracle:
    """``PeerView.note_heard`` / ``PeerView.tick``."""

    def __init__(self, suspect_after, confirm_after, members):
        self.suspect_after = suspect_after
        self.confirm_after = confirm_after
        self.table = {name: (ALIVE, 0.0) for name in members}
        self.suspected_at = {}
        self.confirm_times = {}
        self.suspects_raised = 0
        self.confirms = 0

    def heard(self, member, now):
        status, last_heard = self.table[member]
        self.table[member] = (status, max(last_heard, now))

    def sweep(self, now):
        changed = []
        for member, (status, last_heard) in self.table.items():
            if status == ALIVE:
                if now - last_heard > self.suspect_after:
                    self.table[member] = (SUSPECT, last_heard)
                    self.suspected_at[member] = now
                    self.suspects_raised += 1
                    changed.append((member, SUSPECT))
            elif status == SUSPECT:
                suspected_at = self.suspected_at.get(member, last_heard)
                if now - suspected_at > self.confirm_after:
                    self.table[member] = (DOWN, last_heard)
                    self.confirms += 1
                    self.confirm_times.setdefault(member, now)
                    changed.append((member, DOWN))
        return changed

    def status(self, member):
        return self.table[member][0]


def _configure(kind, interval, clock):
    """The detector as each construction site builds it, plus its oracle."""
    if kind == "root":
        timeout = TIMEOUT_BEACONS * interval
        return (FailureDetector(clock, down_after=timeout),
                RootOracle(timeout))
    if kind == "gateway":
        timeout = TIMEOUT_BEACONS * interval
        detector = FailureDetector(
            clock, suspect_after=timeout / 2.0, down_after=timeout,
            revive=HEALING)
        for peer in MEMBERS:
            detector.heard(peer)
        return detector, GatewayOracle(timeout, MEMBERS)
    detector = FailureDetector(
        clock, suspect_after=3 * interval, confirm_after=3 * interval,
        revive=None)
    for member in MEMBERS:
        detector.heard(member)
    return detector, GossipOracle(3 * interval, 3 * interval, MEMBERS)


def _transition_log(kind, oracle):
    """The oracle's ``(downs, recoveries)`` in the detector's terms."""
    if kind == "root":
        return oracle.evictions, oracle.recoveries
    if kind == "gateway":
        return oracle.partitions, oracle.heals
    return None, None


step_strategy = st.tuples(
    st.sampled_from(("heard", "sweep")),
    st.sampled_from(MEMBERS),
    st.integers(min_value=0, max_value=24),  # time advance, in 1/8 s
)


class TestEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(("root", "gateway", "gossip")),
           st.sampled_from((0.25, 0.5, 1.0, 2.0)),
           st.lists(step_strategy, max_size=60))
    def test_detector_matches_the_per_client_code(self, kind, interval,
                                                  steps):
        clock = Clock()
        detector, oracle = _configure(kind, interval, clock)
        for action, member, advance in steps:
            clock.now += advance / 8.0
            if action == "heard":
                detector.heard(member)
                oracle.heard(member, clock.now)
            else:
                assert [(name, new) for name, _, new in detector.sweep()] \
                    == oracle.sweep(clock.now)
            for name in MEMBERS:
                assert detector.status(name) == oracle.status(name)
        downs, recoveries = _transition_log(kind, oracle)
        if kind == "gossip":
            firsts = {}
            for name, at in detector.downs:
                firsts.setdefault(name, at)
            assert firsts == oracle.confirm_times
            assert len(detector.downs) == oracle.confirms
            assert detector.suspects == oracle.suspects_raised
        else:
            assert detector.downs == downs
            assert detector.recoveries == recoveries


class TestFailureDetector:
    def test_thresholds_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                FailureDetector(Clock(), down_after=bad)

    def test_gateway_heal_takes_two_beacons_and_can_relapse(self):
        clock = Clock()
        detector, _ = _configure("gateway", 1.0, clock)
        clock.now = 4.5
        assert ("a", ALIVE, DOWN) in detector.sweep()
        clock.now = 5.0
        assert detector.heard("a") == ("a", DOWN, HEALING)
        clock.now = 9.5  # a healing link silent past the timeout
        assert ("a", HEALING, DOWN) in detector.sweep()
        assert detector.heard("a") == ("a", DOWN, HEALING)
        assert detector.heard("a") == ("a", HEALING, ALIVE)
        assert detector.downs == [
            ("a", 4.5), ("b", 4.5), ("c", 4.5), ("a", 9.5)]
        assert detector.recoveries == [("a", 9.5)]

    def test_silence(self):
        clock = Clock()
        detector = FailureDetector(clock, down_after=2.0)
        assert detector.silence("a") is None
        detector.heard("a")
        detector.heard("b")
        clock.now = 1.5
        detector.heard("b")
        assert detector.silence("a") == 1.5
        clock.now = 3.0
        assert detector.sweep() == [("a", ALIVE, DOWN)]
        assert detector.silence("a") == 3.0
        assert detector.status("b") == ALIVE
