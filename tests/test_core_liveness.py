"""The shared failure detector (repro.core.liveness).

One hypothesis test drives random ``heard``/``sweep`` sequences through
the detector in each of its three configurations -- the grid root, a
site gateway, a gossip view -- and compares statuses, sweep results and
transition times against small oracles that keep the per-client
liveness code the detector replaced: the root's heartbeat eviction, the
gateway's link-state machine and the gossip ``PeerView`` escalation.
A second set drives the shared :class:`BeaconLoop` on a simulated LAN
in each tier's configuration: its calls on the detector, replayed
through the same oracles, must give the same sweeps and times.

Times are multiples of 1/8 s and intervals are powers of two, so every
subtraction below is exact.  That matters for the root: its old
comparison was ``last < now - timeout`` and the detector's is
``now - last > timeout``; the two agree whenever both subtractions are
exact, and can differ by one ulp otherwise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.agent import Agent
from repro.agents.ontology import HEARTBEAT, SITE_HEARTBEAT
from repro.agents.platform import AgentPlatform
from repro.core.liveness import (
    ALIVE,
    DOWN,
    HEALING,
    SUSPECT,
    TIMEOUT_BEACONS,
    BeaconLoop,
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
    """The root's heartbeat eviction, as written before the detector."""

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
    """The gateway's link-state machine, as written before the detector."""

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
    """The gossip view's escalation, as written before the detector."""

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


# -- the shared beacon loop, driven in simulation ----------------------------


class Member(Agent):
    """A bare agent whose setup starts the beacon loop ``make`` builds."""

    def __init__(self, name, make):
        super().__init__(name)
        self.make = make
        self.loop = None

    def setup(self):
        self.loop = self.make(self).start()


def _deploy(sim, network, transport, makers):
    """One host and container per member: ``{name: make}``."""
    platform = AgentPlatform(sim, network, transport)
    members = {}
    for name, make in makers.items():
        host = network.add_host("h-" + name, "site1")
        member = Member(name, make)
        platform.create_container("c-" + name, host).deploy(member)
        members[name] = member
    return members


def _record(detector, clock):
    """Log every ``heard``/``sweep`` the loop makes on ``detector``."""
    log = []
    heard, sweep = detector.heard, detector.sweep

    def logged_heard(member):
        log.append(("heard", member, clock()))
        return heard(member)

    def logged_sweep():
        transitions = sweep()
        log.append(("sweep", transitions, clock()))
        return transitions

    detector.heard, detector.sweep = logged_heard, logged_sweep
    return log


def _replay(log, oracle):
    """Feed the loop's log to the oracle; every sweep must agree."""
    for action, what, at in log:
        if action == "heard":
            oracle.heard(what, at)
        else:
            assert [(name, new) for name, _, new in what] \
                == oracle.sweep(at)


def _cut(sim, network, host, at, until):
    """Sever ``host`` from everyone else over ``[at, until)``."""
    sim.schedule(at, network.partition_hosts, ([host],))
    sim.schedule(until, network.heal_hosts)


class TestBeaconLoopInSimulation:
    """Each tier's configuration of :class:`BeaconLoop` on a simulated
    LAN, with the far member cut off over [10, 20.5).  The loop's calls
    on its detector, replayed through the per-client oracles above, give
    the same sweeps, transitions and times, and every transition reaches
    the tier's reaction."""

    INTERVAL = 1.0

    def _beater(self, ontology, payload, target, **options):
        return lambda agent: BeaconLoop(
            agent, ontology, 0.1, lambda: payload(agent),
            period=self.INTERVAL, targets=lambda: (target,), **options)

    def test_root_tier(self, sim, network, transport):
        timeout = TIMEOUT_BEACONS * self.INTERVAL
        detector = FailureDetector(lambda: sim.now, down_after=timeout)
        reactions = []

        def root(agent):
            return BeaconLoop(
                agent, HEARTBEAT, 0.2, dict, detector=detector,
                sweep_period=max(0.5, timeout / 4.0),
                hear=lambda content: content["container"],
                react=reactions.extend)

        def heartbeat(agent):
            return dict(container=agent.container.name, agent=agent.name,
                        sent_at=sim.now)

        log = _record(detector, lambda: sim.now)
        members = _deploy(sim, network, transport, {
            "root": root,
            "a": self._beater(HEARTBEAT, heartbeat, "root"),
        })
        _cut(sim, network, "h-a", 10.0, 20.5)
        sim.run(until=40.0)
        oracle = RootOracle(timeout)
        _replay(log, oracle)
        assert detector.downs == oracle.evictions == [("c-a", 14.0)]
        assert detector.recoveries == oracle.recoveries
        [(member, recovered_at)] = detector.recoveries
        assert member == "c-a" and 21.0 < recovered_at < 21.1
        assert reactions == [("c-a", ALIVE, DOWN), ("c-a", DOWN, ALIVE)]
        # The root only hears: beats at t = 1..40, the 11 at 10..20 lost
        # to the cut and the one at 40 still on the wire.
        assert members["a"].loop.sent == 40
        assert members["root"].loop.sent == 0
        assert members["root"].loop.received == 28

    def test_gateway_tier(self, sim, network, transport):
        timeout = TIMEOUT_BEACONS * self.INTERVAL
        cap = 8 * self.INTERVAL
        detectors, reactions = {}, {}

        def gateway(site, peer):
            detector = FailureDetector(
                lambda: sim.now, suspect_after=timeout / 2.0,
                down_after=timeout, revive=HEALING)
            detector.heard(peer)
            detectors[site] = detector
            reactions[site] = []
            return lambda agent: BeaconLoop(
                agent, SITE_HEARTBEAT, 0.2,
                lambda: dict(site=site, sent_at=sim.now, analyzers=1,
                             outstanding=0),
                period=self.INTERVAL, targets=lambda: (peer,),
                detector=detector, sweep_period=max(0.25, timeout / 8.0),
                probe_cap=cap, receivers={peer: "gw-" + peer},
                hear=lambda content: content["site"],
                react=reactions[site].extend)

        members = _deploy(sim, network, transport, {
            "gw-s1": gateway("s1", "s2"),
            "gw-s2": gateway("s2", "s1"),
        })
        log = _record(detectors["s1"], lambda: sim.now)
        _cut(sim, network, "h-gw-s2", 10.0, 20.5)
        sim.run(until=40.0)
        oracle = GatewayOracle(timeout, ["s2"])
        _replay(log, oracle)
        assert detectors["s1"].downs == oracle.partitions
        assert detectors["s1"].recoveries == oracle.heals
        [(peer, down_at)] = oracle.partitions
        assert peer == "s2" and down_at == 13.5
        # Probes at the first beat after the partition (14), then after
        # gaps of 2, 4 and 8 (the cap) beats: the one at 20 is still lost,
        # the one at 28 is answered at once, and each side's probe plus
        # the other's answer heal the link within the round trip.
        assert members["gw-s1"].loop.probes == 4
        [(peer, healed_at)] = detectors["s1"].recoveries
        assert peer == "s2" and 28.0 < healed_at < 28.1
        assert reactions["s1"] == [
            ("s2", ALIVE, SUSPECT), ("s2", SUSPECT, DOWN),
            ("s2", DOWN, HEALING), ("s2", HEALING, ALIVE)]
        assert detectors["s1"].status("s2") == ALIVE
        assert detectors["s2"].status("s1") == ALIVE

    def test_gossip_view_tier(self, sim, network, transport):
        rounds = 3 * self.INTERVAL
        detector = FailureDetector(
            lambda: sim.now, suspect_after=rounds, confirm_after=rounds,
            revive=None)
        detector.heard("a")
        reactions = []

        def heartbeat(agent):
            return dict(container=agent.container.name, agent=agent.name,
                        sent_at=sim.now)

        def view(agent):
            return BeaconLoop(
                agent, HEARTBEAT, 0.2, lambda: heartbeat(agent),
                period=self.INTERVAL, targets=lambda: ("a",),
                phase=1.25 * self.INTERVAL, detector=detector, ping=True,
                hear=lambda content: content["agent"],
                react=reactions.extend)

        log = _record(detector, lambda: sim.now)
        members = _deploy(sim, network, transport, {
            "v": view,
            # "a" only beats and answers; it needs a detector to hear.
            "a": self._beater(
                HEARTBEAT, heartbeat, "v",
                detector=FailureDetector(lambda: sim.now),
                hear=lambda content: content["agent"]),
        })
        _cut(sim, network, "h-a", 10.0, 20.5)
        sim.run(until=40.0)
        oracle = GossipOracle(rounds, rounds, ["a"])
        _replay(log, oracle)
        assert detector.suspects == oracle.suspects_raised == 1
        # Last heard at ~9.27 (the answer to the 9.25 probe): suspect at
        # the 13.25 sweep, confirmed once suspected for more than 3 s.
        assert oracle.confirm_times == {"a": 17.25}
        assert detector.downs == [("a", 17.25)]
        # Hearing never revives: only a merged refutation could.
        assert detector.status("a") == DOWN
        assert reactions == [("a", ALIVE, SUSPECT), ("a", SUSPECT, DOWN)]
        # Every beat of the view (t = 1.25..39.25) is a probe; the 28
        # outside the cut are answered at once, on top of a's 40 beats,
        # of which 28 arrive (11 cut, the one at 40 on the wire).
        assert members["v"].loop.ticks == 39
        assert members["a"].loop.sent == 40 + 28
        assert members["v"].loop.received == 28 + 28
