"""SWIM-style gossip between analyzer containers: peer liveness +
suspicion levels that survive the loss of the grid root.

The root's heartbeat detector (DESIGN.md section 5.2) is a *centralized*
failure detector: when the root's own host is cut off -- a split-brain
partition or a plain outage -- nobody is left to detect anything, and the
domain-partitioned EMS literature (Gavalas et al.; Saini & Mishra) argues
detection must survive exactly that.  This module adds the decentralized
complement: analyzer containers exchange periodic *digest gossip* so
every analyzer converges on its own suspicion view, elects a stand-in
dispatcher while the root is unreachable, and reconciles with the root on
heal -- exactly-once preserved above the root's job-id dedup (duplicates
are counted, never shipped twice).

Protocol (SWIM flavoured, deterministic -- no RNG draws, so an enabled
mesh still replays byte-identically and a disabled one builds nothing):

* every member entry is ``(status, incarnation, last_heard)`` with
  ``alive < suspect < confirmed`` and digest **merge = max** under the
  total order ``(incarnation, status precedence, last_heard)``.  A max
  over a total order is a join-semilattice: commutative, associative,
  idempotent (property-tested in ``tests/test_core_gossip.py``), and a
  ``confirmed`` entry can only regress to ``alive`` via a *fresh
  incarnation* -- the subject's own refutation.
* each analyzer ticks every ``interval``: it pushes its digest to the
  root (riding the existing heartbeat cadence) and to the next peer in a
  deterministic round-robin rotation; digests and probes are answered
  with an ``ack`` carrying the responder's digest (anti-entropy).
* each view's failure detector raises a local *suspect* after
  ``SUSPECT_ROUNDS`` intervals of silence; suspicion triggers a direct
  ``ping`` plus an indirect ``ping-req`` through the next live peer;
  ``CONFIRM_ROUNDS`` intervals of it unanswered escalate to *confirmed*.
  A member that learns it is suspected bumps its incarnation and
  re-advertises itself alive (refutation).
* when an analyzer's view confirms the **root** dead, the
  lexicographically-smallest alive analyzer in that view becomes the
  *stand-in dispatcher*: analysis results that would be lost against the
  dead root are redirected to it and buffered (dedup by job id --
  duplicates counted, not shipped).  When the view sees the root alive
  again (its refutation after the heal), the buffer is flushed to the
  root over the reliable channel; the root's own ``job.done`` dedup
  absorbs anything the Reaper already re-dispatched.
"""

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.behaviours import CyclicBehaviour, TickerBehaviour
from repro.agents.ontology import ANALYSIS_RESULT, GOSSIP
from repro.core.liveness import ALIVE, DOWN as CONFIRMED, SUSPECT
from repro.core.liveness import FailureDetector

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
    revives; the view adds SWIM dissemination on top: incarnations, the
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

    def note_heard(self, member):
        """Direct evidence (a message arrived from ``member``): refresh
        recency only.  Status transitions go strictly through the merge --
        a confirmed member stays confirmed until its refutation arrives.
        """
        if self.detector.status(member) is not None:
            self.detector.heard(member)

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


class _GossipParticipant:
    """Shared plumbing: receive loop + ack replies for one agent."""

    def __init__(self, agent):
        self.agent = agent
        self.digests_received = 0
        self.acks_sent = 0

    def _send(self, receiver, kind, digest=True, subject=None):
        content = dict(
            kind=kind,
            origin=self.agent.name,
            sent_at=self.agent.sim.now,
        )
        if digest:
            content["digest"] = self.view.digest()
        if subject is not None:
            content["subject"] = subject
        self.agent.send(ACLMessage(
            Performative.INFORM,
            sender=self.agent.name,
            receiver=receiver,
            content=GOSSIP.validate(content),
            ontology=GOSSIP.name,
            size_units=GOSSIP_SIZE,
        ))

    def _install_inbox(self, name):
        participant = self

        class GossipInbox(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=GOSSIP.name,
                ))
                if message is not None:
                    participant._on_gossip(message)

        self.agent.add_behaviour(GossipInbox(name))

    def _on_gossip(self, message):
        content = GOSSIP.validate(message.content)
        origin = content["origin"]
        self.digests_received += 1
        self.view.note_heard(origin)
        transitions = []
        if "digest" in content:
            transitions = self.view.merge(content["digest"])
        kind = content["kind"]
        if kind in ("digest", "ping"):
            # Answer with our digest: the ack is both liveness evidence
            # for the origin and an anti-entropy exchange.
            self.acks_sent += 1
            self._send(origin, "ack")
        elif kind == "ping-req":
            # Indirect probe: relay a ping to the subject on the
            # origin's behalf; the subject's ack lands in *our* view and
            # travels onward by rotation.
            subject = content.get("subject")
            if subject and subject != self.agent.name:
                self._send(subject, "ping")
        self._after_merge(transitions)

    def _after_merge(self, transitions):
        """Hook for subclasses (stand-in / reconciliation logic)."""


class RootGossip(_GossipParticipant):
    """The grid root's (purely reactive) side of the mesh.

    The root never ticks: its digests travel only as acks to whoever
    gossips at it, which is exactly the evidence analyzers need -- and
    after an outage, the first probe that reaches the healed root makes
    it refute its own confirmed status with a bumped incarnation.
    """

    def __init__(self, agent, members, interval):
        super().__init__(agent)
        self.view = PeerView(
            agent.name, members, interval, clock=lambda: agent.sim.now)
        self._install_inbox("gossip-inbox")


class AnalyzerGossip(_GossipParticipant):
    """One analyzer's gossip component: ticker, probes, stand-in duty.

    Attached to the :class:`~repro.core.processor.AnalyzerAgent` as
    ``agent.gossip``; the agent consults :meth:`intercept_result` before
    shipping an analysis result so results bound for a confirmed-dead
    root are buffered at the elected stand-in instead of vanishing.
    """

    def __init__(self, agent, root_name, members, interval, index=0):
        super().__init__(agent)
        self.root_name = root_name
        self.view = PeerView(
            agent.name, members, interval, clock=lambda: agent.sim.now)
        #: Deterministic round-robin over everyone else (peers + root).
        self.rotation = sorted(set(members) - {agent.name})
        self._rotation_index = index % len(self.rotation) if self.rotation \
            else 0
        self.rounds = 0
        self.digests_sent = 0
        self.pings_sent = 0
        self.ping_reqs_sent = 0
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
        self._install_inbox("gossip-inbox")
        component = self

        class GossipTicker(TickerBehaviour):
            def on_tick(self):
                component._on_tick()
                return
                yield  # pragma: no cover - keeps on_tick a generator

        class StandInResults(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=ANALYSIS_RESULT.name,
                ))
                if message is not None:
                    component._buffer_result(
                        ANALYSIS_RESULT.validate(message.content))

        # Stagger tick phases deterministically so the mesh does not
        # beat in lockstep (and peers hear each other between ticks).
        agent.add_behaviour(GossipTicker(
            period=interval, name="gossip",
            initial_delay=interval * (1.0 + index / (len(members) + 1.0)),
        ))
        agent.add_behaviour(StandInResults("gossip-standin"))

    # -- the periodic round ------------------------------------------------

    def _on_tick(self):
        self.rounds += 1
        transitions = self.view.detector.sweep()
        for member, _, status in transitions:
            if status == SUSPECT:
                self._probe(member)
        # The root rides every round (the heartbeat cadence); peers take
        # turns.  Confirmed members stay in the rotation on purpose: those
        # pushes are the probes that reach a healed root first.
        self._send(self.root_name, "digest")
        self.digests_sent += 1
        if self.rotation:
            peer = self.rotation[self._rotation_index % len(self.rotation)]
            self._rotation_index += 1
            if peer != self.root_name:
                self._send(peer, "digest")
                self.digests_sent += 1
        self._check_root(transitions)

    def _probe(self, member):
        """Direct ping plus an indirect ping-req via the next live peer."""
        self._send(member, "ping")
        self.pings_sent += 1
        for relay in self.view.alive_members():
            if relay not in (self.agent.name, member):
                self._send(relay, "ping-req", subject=member)
                self.ping_reqs_sent += 1
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

    def _after_merge(self, transitions):
        self._check_root(transitions)

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
            "rounds": self.rounds,
            "digests_sent": self.digests_sent,
            "digests_received": self.digests_received,
            "acks_sent": self.acks_sent,
            "pings_sent": self.pings_sent,
            "ping_reqs_sent": self.ping_reqs_sent,
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
    spec sets ``gossip=``; when unset, nothing here is imported and zero
    behaviours, events or messages exist -- the byte-identity contract.

    Args:
        root: the :class:`~repro.core.processor.ProcessorRootAgent`.
        analyzers: the grid's :class:`AnalyzerAgent` list.
        interval: gossip tick period (default 1.0).  A member turns
            suspect after ``SUSPECT_ROUNDS`` intervals of silence and is
            confirmed after ``CONFIRM_ROUNDS`` more, so detection latency
            for a dead member is about six intervals as seen by each peer.
    """

    def __init__(self, root, analyzers, interval=1.0):
        if not analyzers:
            raise ValueError("gossip needs at least one analyzer")
        self.interval = interval
        members = [root.name] + sorted(a.name for a in analyzers)
        self.root_name = root.name
        self.root_gossip = RootGossip(root, members, interval)
        self.members = {}
        for index, analyzer in enumerate(
                sorted(analyzers, key=lambda a: a.name)):
            self.members[analyzer.name] = AnalyzerGossip(
                analyzer, root.name, members, interval, index=index)

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
        totals = {}
        for component in self.members.values():
            for key, value in component.stats().items():
                totals[key] = totals.get(key, 0) + value
        totals["root_digests_received"] = self.root_gossip.digests_received
        totals["root_refutations"] = self.root_gossip.view.refutations
        return totals
