"""SWIM-style gossip between analyzer containers: peer liveness +
suspicion levels that survive the loss of the grid root.

The root's heartbeat detector is centralized: with the root's own host
cut off (split brain, outage) nobody is left to detect anything.  Here
every analyzer keeps a suspicion view, elects a stand-in dispatcher
while its view holds the root dead, and reconciles on heal (DESIGN.md
section 5.7).  No RNG draws; with ``gossip=`` unset nothing is built.

* A digest entry is ``(status, incarnation, last_heard)``; merge is the
  max under ``(incarnation, alive < suspect < confirmed, last_heard)``,
  a join-semilattice, so only the subject's own refutation (a fresh
  incarnation) turns ``confirmed`` back into ``alive``.
* Gossip rides each analyzer's one
  :class:`~repro.core.liveness.BeaconLoop`: every round's digest goes to
  the root -- that beacon *is* the heartbeat -- and to the next peer in
  a round-robin over the other analyzers, as a probe answered at once
  with the receiver's digest.  A new suspect gets a direct ping and a
  ping-req through the next live peer; a suspect root is pinged only
  by the rounds themselves, so each analyzer sends it one beacon per
  round.
* The root keeps no view: its digest reports its analyzers from its
  eviction detector, each at the incarnation the analyzer last told it.
* The stand-in (the smallest alive analyzer in a view that confirms the
  root) buffers results bound for the root, deduplicated by job id, and
  flushes them over the reliable channel once the view sees the root
  alive again; the root's own job dedup absorbs replays.
"""

from collections import Counter
from itertools import cycle, islice

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.behaviours import CyclicBehaviour
from repro.agents.ontology import ANALYSIS_RESULT, HEARTBEAT
from repro.core.liveness import ALIVE, DOWN as CONFIRMED, SUSPECT
from repro.core.liveness import BeaconLoop, FailureDetector

#: Gossip intervals of silence before a member turns suspect, and of
#: unrefuted suspicion before it is confirmed dead.
SUSPECT_ROUNDS = 3
CONFIRM_ROUNDS = 3

#: Status precedence at equal incarnation: suspicion only escalates.
_PRECEDENCE = {ALIVE: 0, SUSPECT: 1, CONFIRMED: 2}

#: Nominal wire size of one gossip message (they are tiny beacons).
GOSSIP_SIZE = 0.2


def entry_key(entry):
    """Total order on digest entries: incarnation, precedence, recency."""
    status, incarnation, last_heard = entry
    return (incarnation, _PRECEDENCE[status], last_heard)


def merge_entries(a, b):
    """Join of two entries for one member: the max under :func:`entry_key`.

    Max over a total order makes the merge commutative, associative and
    idempotent, and encodes the SWIM refutation rule: at equal
    incarnation, suspicion wins (``confirmed`` never regresses to
    ``alive``); only a strictly higher incarnation -- which only the
    subject itself issues -- can bring a member back.
    """
    return a if entry_key(a) >= entry_key(b) else b


def merge_digests(a, b):
    """Join of two digests (member -> entry maps); pure, non-mutating."""
    merged = dict(a)
    for member, entry in b.items():
        mine = merged.get(member)
        merged[member] = entry if mine is None else merge_entries(mine, entry)
    return merged


class PeerView:
    """One member's suspicion view over the gossip group.

    Status and last-heard times live in a
    :class:`~repro.core.liveness.FailureDetector` that hearing never
    revives (a confirmed member stays confirmed until its refutation
    arrives); the view adds SWIM dissemination on top: incarnations, the
    digest and its merge.

    Args:
        self_name: the owning member (refutations bump *its* incarnation).
        members: every group member, including ``self_name`` and the root.
        interval: the gossip tick period.
        clock: zero-arg callable returning the current simulated time.
    """

    def __init__(self, self_name, members, interval, clock):
        if self_name not in members:
            raise ValueError("self %r must be a member" % self_name)
        self.self_name = self_name
        self.clock = clock
        self.detector = FailureDetector(
            clock,
            suspect_after=SUSPECT_ROUNDS * interval,
            confirm_after=CONFIRM_ROUNDS * interval,
            revive=None,
        )
        #: member -> incarnation, in membership order (self included).
        self.incarnations = dict.fromkeys(members, 0)
        for name in members:
            if name != self_name:
                self.detector.heard(name)
        self.refutations = 0

    @property
    def incarnation(self):
        return self.incarnations[self.self_name]

    # -- queries -----------------------------------------------------------

    def status(self, member):
        return (ALIVE if member == self.self_name
                else self.detector.status(member))

    def alive_members(self):
        """Members currently alive in this view, sorted by name."""
        return sorted(name for name in self.incarnations
                      if self.status(name) == ALIVE)

    def _entry(self, member):
        return (self.detector.status(member), self.incarnations[member],
                self.detector.last_heard[member])

    def digest(self):
        """The shippable view (own entry fresh), entries as lists."""
        return {
            name: ([ALIVE, self.incarnation, self.clock()]
                   if name == self.self_name else list(self._entry(name)))
            for name in self.incarnations
        }

    # -- evidence ----------------------------------------------------------

    def merge(self, digest):
        """Fold a received digest into the view; returns the transitions
        as ``[(member, old_status, new_status)]``.

        Self-suspicion is refuted on the spot: learning that the group
        suspects (or confirmed!) us at incarnation *i*, we come back at
        *i + 1* -- the only legal confirmed -> alive edge.
        """
        transitions = []
        for member, raw in digest.items():
            entry = (raw[0], raw[1], raw[2])
            if entry[0] not in _PRECEDENCE:
                raise ValueError("unknown gossip status %r" % (entry[0],))
            if member == self.self_name:
                if entry[0] != ALIVE and entry[1] >= self.incarnation:
                    self.incarnations[member] = entry[1] + 1
                    self.refutations += 1
                continue
            if member in self.incarnations:
                entry = merge_entries(self._entry(member), entry)
            self.incarnations[member] = entry[1]
            transition = self.detector.adopt(member, entry[0], entry[2])
            if transition is not None:
                transitions.append(transition)
        return transitions


class RootGossip:
    """The grid root's (purely reactive) side of the mesh.

    The root keeps no view: it answers each analyzer's round with a
    digest built from its one eviction detector, each analyzer at the
    incarnation it last advertised to the root itself (so the root never
    outbids a refutation), and refutes its own reported death.
    """

    def __init__(self, agent):
        self.agent = agent
        self.incarnation = 0
        self.refutations = 0
        self._heard = {}  # analyzer -> (its container, its incarnation)
        agent.gossip = self

    def absorb(self, content):
        """Fold an analyzer's digest: refute our own suspicion and note
        the sender's own incarnation."""
        digest = content["digest"]
        status, incarnation, _ = digest[self.agent.name]
        if status != ALIVE and incarnation >= self.incarnation:
            self.incarnation = incarnation + 1
            self.refutations += 1
        sender = content["agent"]
        self._heard[sender] = (content["container"], digest[sender][1])

    def payload(self):
        """The root's answer to a round: its digest."""
        root = self.agent
        digest = {root.name: [ALIVE, self.incarnation, root.sim.now]}
        for name, (container, incarnation) in self._heard.items():
            digest[name] = [root.detector.status(container), incarnation,
                            root.detector.last_heard[container]]
        return dict(container=root.container.name, agent=root.name,
                    sent_at=root.sim.now, digest=digest)


class AnalyzerGossip:
    """One analyzer's gossip: its beacon loop, probes and stand-in duty.

    Attached as ``agent.gossip`` before deployment; the analyzer's setup
    calls :meth:`start`, and :meth:`intercept_result` diverts results
    bound for a confirmed-dead root to the elected stand-in.
    """

    def __init__(self, agent, root, members, interval, index=0):
        self.agent = agent
        self.root_name = root_name = root.name
        # The root's clock: the analyzer is not deployed yet.
        self.view = PeerView(
            agent.name, members, interval, clock=lambda: root.sim.now)
        # Round-robin over the other analyzers (the root gets every round).
        peers = sorted(set(members) - {agent.name, root_name})
        self._peers = islice(cycle(peers), index % max(len(peers), 1), None)
        # No backoff toward a confirmed member: those rounds are the
        # probes that reach a healed root first, and the root's eviction
        # detector listens for them.  Phases are staggered so the mesh
        # does not beat in lockstep.
        self.loop = BeaconLoop(
            agent, HEARTBEAT, GOSSIP_SIZE, self._payload, period=interval,
            targets=self._targets,
            phase=interval * (1.0 + index / (len(members) + 1.0)),
            detector=self.view.detector, ping=True, hear=self._hear,
            react=self._react,
        )
        #: job_id -> ANALYSIS_RESULT content buffered while standing in.
        self.buffered_results = {}
        self.results_buffered = 0
        self.results_redirected = 0
        self.results_flushed = 0
        #: Duplicates absorbed by the stand-in buffer: counted, not shipped.
        self.duplicates_absorbed = 0
        #: [(time, elected stand-in)] -- one entry per root confirmation.
        self.elections = []
        agent.gossip = self

    def start(self):
        """Install the loop and the stand-in inbox; returns the loop."""
        component = self

        class StandInResults(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=ANALYSIS_RESULT.name,
                ))
                if message is not None:
                    component._buffer_result(
                        ANALYSIS_RESULT.validate(message.content))

        self.loop.start()
        self.agent.add_behaviour(StandInResults("gossip-standin"))
        return self.loop

    # -- the beacon loop's hooks -------------------------------------------

    def _payload(self):
        content = self.agent.heartbeat()
        content["digest"] = self.view.digest()
        return content

    def _targets(self):
        """The root, then the next peer in the rotation."""
        return (self.root_name,) + tuple(islice(self._peers, 1))

    def _hear(self, content):
        self._check_root(self.view.merge(content["digest"]))
        subject = content.get("subject")
        if subject not in (None, self.agent.name, self.root_name):
            # Indirect probe: ping the subject on the sender's behalf; its
            # answer lands in *our* view and travels onward by rotation.
            self.loop.send(subject, probe=True)
        return content["agent"]

    def _react(self, transitions):
        """Our own sweep's transitions: probe new suspects, watch the root."""
        for member, _, status in transitions:
            if status == SUSPECT:
                self._probe(member)
        self._check_root(transitions)

    def _probe(self, member):
        """Direct ping plus an indirect ping-req via the next live peer.

        The root is never pinged outside a round, directly or by a relay,
        nor asked to relay: every analyzer's round already pings it, so
        each sends it one beacon per round.
        """
        if member != self.root_name:
            self.loop.send(member, probe=True)
        for relay in self.view.alive_members():
            if relay not in (self.agent.name, member, self.root_name):
                self.loop.send(relay, subject=member)
                break

    # -- stand-in dispatcher ----------------------------------------------

    def root_unreachable(self):
        return self.view.status(self.root_name) == CONFIRMED

    def stand_in(self):
        """The elected stand-in: smallest alive analyzer in this view."""
        candidates = [
            name for name in self.view.alive_members()
            if name != self.root_name
        ]
        return candidates[0] if candidates else self.agent.name

    def _check_root(self, transitions):
        """React to the root's transitions, from a merge or our sweep."""
        for member, old_status, new_status in transitions:
            if member != self.root_name:
                continue
            if new_status == CONFIRMED:
                self.elections.append((self.agent.sim.now, self.stand_in()))
            elif old_status == CONFIRMED and new_status == ALIVE:
                self._flush_buffer()

    def intercept_result(self, content, default_receiver):
        """Reroute one analysis result while the root is confirmed dead.

        Returns True when the result was handled (buffered locally or
        redirected to the stand-in); False lets the caller ship normally.
        Results bound for anyone *other* than the root (e.g. a site
        gateway that forwarded the job) are never intercepted.
        """
        if default_receiver != self.root_name or not self.root_unreachable():
            return False
        stand_in = self.stand_in()
        if stand_in == self.agent.name:
            self._buffer_result(content)
            return True
        self.results_redirected += 1
        self.agent.send(ACLMessage(
            Performative.INFORM,
            sender=self.agent.name,
            receiver=stand_in,
            content=dict(content),
            ontology=ANALYSIS_RESULT.name,
            size_units=GOSSIP_SIZE,
        ))
        return True

    def _buffer_result(self, content):
        job_id = content["job_id"]
        if job_id in self.buffered_results:
            self.duplicates_absorbed += 1
            return
        self.buffered_results[job_id] = dict(content)
        self.results_buffered += 1

    def _flush_buffer(self):
        """Reconcile with the healed root: ship the buffer exactly once."""
        if not self.buffered_results:
            return
        for job_id in sorted(self.buffered_results):
            self.agent.send_reliable(ACLMessage(
                Performative.INFORM,
                sender=self.agent.name,
                receiver=self.root_name,
                content=self.buffered_results[job_id],
                ontology=ANALYSIS_RESULT.name,
                size_units=GOSSIP_SIZE,
            ))
            self.results_flushed += 1
        self.buffered_results = {}

    def stats(self):
        return {
            "rounds": self.loop.ticks,
            "digests_sent": self.loop.sent,
            "digests_received": self.loop.received,
            "suspects_raised": self.view.detector.suspects,
            "confirms": len(self.view.detector.downs),
            "recoveries": len(self.view.detector.recoveries),
            "refutations": self.view.refutations,
            "results_buffered": self.results_buffered,
            "results_redirected": self.results_redirected,
            "results_flushed": self.results_flushed,
            "duplicates_absorbed": self.duplicates_absorbed,
        }


class GossipMesh:
    """The whole mesh: one component per analyzer + the reactive root.

    Built by :class:`~repro.core.system.GridManagementSystem` when the
    spec sets ``gossip=``, after the root is deployed and before the
    analyzers are (each analyzer's setup starts its component).

    Args:
        root: the :class:`~repro.core.processor.ProcessorRootAgent`.
        analyzers: the grid's :class:`AnalyzerAgent` list, not deployed.
        interval: gossip round period (default 1.0).  A round's digest to
            the root is the analyzer's heartbeat, so it may not exceed
            ``heartbeat_interval``.  A dead member is confirmed after
            about ``SUSPECT_ROUNDS + CONFIRM_ROUNDS`` intervals.
    """

    def __init__(self, root, analyzers, interval=1.0):
        if not analyzers:
            raise ValueError("gossip needs at least one analyzer")
        if not interval > 0:
            raise ValueError("gossip interval must be positive")
        for analyzer in analyzers:
            if interval > (analyzer.heartbeat_interval or interval):
                raise ValueError("gossip interval exceeds heartbeat_interval:"
                                 " the round's digest is the heartbeat")
        members = [root.name] + sorted(a.name for a in analyzers)
        self.root_name = root.name
        self.root_gossip = RootGossip(root)
        self.members = {}
        for index, analyzer in enumerate(
                sorted(analyzers, key=lambda a: a.name)):
            self.members[analyzer.name] = AnalyzerGossip(
                analyzer, root, members, interval, index=index)

    def detection_times(self, member=None):
        """When each analyzer's view first confirmed ``member`` (or root)."""
        member = member if member is not None else self.root_name
        return {name: at for name, component in self.members.items()
                for subject, at in reversed(component.view.detector.downs)
                if subject == member}

    def recovery_times(self, member=None):
        """When each analyzer's view last saw ``member`` (or root) recover."""
        member = member if member is not None else self.root_name
        return {name: at for name, component in self.members.items()
                for subject, at in component.view.detector.recoveries
                if subject == member}

    def stand_ins(self):
        """The latest election in each analyzer's view (None = no outage)."""
        return {
            name: (component.elections[-1][1] if component.elections
                   else None)
            for name, component in self.members.items()
        }

    def stats(self):
        totals = Counter()
        for component in self.members.values():
            totals.update(component.stats())
        totals["root_digests_received"] = \
            self.root_gossip.agent.beacons.received
        totals["root_refutations"] = self.root_gossip.refutations
        return dict(totals)
