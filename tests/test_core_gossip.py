"""The analyzer gossip mesh (repro.core.gossip).

Four layers of pinning:

* **algebra** (hypothesis): the digest merge is a join-semilattice --
  commutative, associative, idempotent -- and the suspicion order never
  regresses ``confirmed -> alive`` without a strictly fresher incarnation
  (the SWIM refutation rule).
* **PeerView**: escalation timing (alive -> suspect -> confirmed),
  refutation on self-suspicion, recovery accounting.
* **one beacon loop**: with gossip on, each analyzer's round is its only
  liveness message to the root, and the root answers from its one
  failure detector.
* **components on a live grid**: the stand-in dispatcher buffers results
  bound for a confirmed-dead root (duplicates counted, not shipped),
  flushes exactly once on heal, and the root's job dedup absorbs the
  overlap with the Reaper's re-dispatch.  And the byte-identity
  contract: ``gossip=`` unset builds *nothing* -- figure-6 outputs stay
  byte-identical across a double run.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.ontology import HEARTBEAT
from repro.core.gossip import (
    ALIVE,
    CONFIRMED,
    GOSSIP_SIZE,
    SUSPECT,
    GossipMesh,
    PeerView,
    entry_key,
    merge_digests,
    merge_entries,
)
from repro.core.liveness import FailureDetector
from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)
from repro.network.topology import LinkSpec
from repro.workloads.faults import FaultEvent, FaultPlan, apply_fault_plan

# -- strategies ------------------------------------------------------------

status_strategy = st.sampled_from([ALIVE, SUSPECT, CONFIRMED])
entry_strategy = st.tuples(
    status_strategy,
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
member_strategy = st.sampled_from(["root", "a1", "a2", "a3", "a4"])
digest_strategy = st.dictionaries(
    member_strategy, entry_strategy, max_size=5)


class TestMergeAlgebra:
    @given(entry_strategy, entry_strategy)
    def test_entry_merge_commutative(self, a, b):
        assert merge_entries(a, b) == merge_entries(b, a)

    @given(entry_strategy, entry_strategy, entry_strategy)
    def test_entry_merge_associative(self, a, b, c):
        assert merge_entries(merge_entries(a, b), c) == \
            merge_entries(a, merge_entries(b, c))

    @given(entry_strategy)
    def test_entry_merge_idempotent(self, a):
        assert merge_entries(a, a) == a

    @given(digest_strategy, digest_strategy)
    def test_digest_merge_commutative(self, a, b):
        assert merge_digests(a, b) == merge_digests(b, a)

    @settings(max_examples=50)
    @given(digest_strategy, digest_strategy, digest_strategy)
    def test_digest_merge_associative(self, a, b, c):
        assert merge_digests(merge_digests(a, b), c) == \
            merge_digests(a, merge_digests(b, c))

    @given(digest_strategy)
    def test_digest_merge_idempotent(self, a):
        assert merge_digests(a, a) == a

    @given(digest_strategy, digest_strategy)
    def test_merge_never_drops_members(self, a, b):
        merged = merge_digests(a, b)
        assert set(merged) == set(a) | set(b)

    @given(entry_strategy, entry_strategy)
    def test_merge_is_monotone(self, a, b):
        """The join never falls below either argument."""
        merged = merge_entries(a, b)
        assert entry_key(merged) >= entry_key(a)
        assert entry_key(merged) >= entry_key(b)

    @given(st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_no_regression_without_fresh_incarnation(
            self, incarnation, heard_a, heard_b):
        """confirmed + alive at the SAME incarnation stays confirmed, no
        matter how recently the alive claim was heard; only a strictly
        higher incarnation (the subject's own refutation) revives it."""
        confirmed = (CONFIRMED, incarnation, heard_a)
        alive_same = (ALIVE, incarnation, heard_b)
        assert merge_entries(confirmed, alive_same) == confirmed
        refuted = (ALIVE, incarnation + 1, heard_b)
        assert merge_entries(confirmed, refuted) == refuted


# -- PeerView --------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _view():
    """A view at gossip interval 1.0: suspect after 3s of silence,
    confirmed after 3s of suspicion."""
    clock = FakeClock()
    view = PeerView("a1", ["root", "a1", "a2"], 1.0, clock)
    return view, clock


class TestPeerView:
    """Suspicion runs on the view's FailureDetector; these drive it the
    way the analyzer's beacon loop does (``view.detector.sweep()`` each
    round, ``view.detector.heard()`` per beacon from a member)."""

    def test_requires_positive_thresholds(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            PeerView("a1", ["a1"], 0.0, clock)
        with pytest.raises(ValueError):
            PeerView("a1", ["a1"], -1.0, clock)

    def test_self_must_be_member(self):
        with pytest.raises(ValueError):
            PeerView("ghost", ["a1", "a2"], 1.0, FakeClock())

    def test_escalation_ladder(self):
        view, clock = _view()
        assert view.status("root") == ALIVE
        clock.now = 3.5  # silence > 3 intervals
        assert view.detector.sweep() == [
            ("root", ALIVE, SUSPECT), ("a2", ALIVE, SUSPECT)]
        assert view.status("root") == SUSPECT
        clock.now = 6.0  # suspected for < 3 intervals: still suspect
        assert view.detector.sweep() == []
        clock.now = 7.0  # > suspect time (3.5) + 3 intervals
        assert view.detector.sweep() == [
            ("root", SUSPECT, CONFIRMED), ("a2", SUSPECT, CONFIRMED)]
        assert view.status("root") == CONFIRMED
        assert view.detector.downs == [("root", 7.0), ("a2", 7.0)]

    def test_note_heard_defers_suspicion(self):
        view, clock = _view()
        clock.now = 2.5
        view.detector.heard("root")
        clock.now = 4.0  # only 1.5s since root was heard
        assert view.detector.sweep() == [("a2", ALIVE, SUSPECT)]
        assert view.status("root") == ALIVE

    def test_note_heard_does_not_revive_confirmed(self):
        """Transport-level evidence refreshes recency only; the
        confirmed -> alive edge belongs exclusively to refutation."""
        view, clock = _view()
        clock.now = 10.0
        view.detector.sweep()
        clock.now = 20.0
        view.detector.sweep()
        assert view.status("root") == CONFIRMED
        view.detector.heard("root")
        assert view.status("root") == CONFIRMED

    def test_merge_refutes_self_suspicion(self):
        view, clock = _view()
        assert view.incarnation == 0
        view.merge({"a1": [SUSPECT, 0, 1.0]})
        assert view.incarnation == 1
        assert view.refutations == 1
        assert view.status("a1") == ALIVE
        # An echo of the old suspicion at the old incarnation is stale.
        view.merge({"a1": [CONFIRMED, 0, 2.0]})
        assert view.incarnation == 1
        assert view.refutations == 1
        # But confirmation at the *current* incarnation forces a bump.
        view.merge({"a1": [CONFIRMED, 1, 3.0]})
        assert view.incarnation == 2
        assert view.refutations == 2

    def test_merge_records_recovery(self):
        view, clock = _view()
        clock.now = 10.0
        view.detector.sweep()
        clock.now = 20.0
        view.detector.sweep()
        assert view.status("root") == CONFIRMED
        clock.now = 25.0
        transitions = view.merge({"root": [ALIVE, 1, 24.0]})
        assert ("root", CONFIRMED, ALIVE) in transitions
        assert view.detector.recoveries == [("root", 25.0)]
        assert "root" in view.alive_members()

    def test_merge_rejects_unknown_status(self):
        view, _ = _view()
        with pytest.raises(ValueError):
            view.merge({"root": ["zombie", 0, 1.0]})

    def test_digest_refreshes_own_entry(self):
        view, clock = _view()
        clock.now = 42.0
        digest = view.digest()
        assert digest["a1"] == [ALIVE, 0, 42.0]
        assert set(digest) == {"root", "a1", "a2"}


# -- components on a live grid --------------------------------------------


def _gossip_system(gossip={"interval": 1.0}, analysis_hosts=4):
    spec = GridTopologySpec(
        devices=[
            DeviceSpec("dev1", "server", "field"),
            DeviceSpec("dev2", "router", "field"),
            DeviceSpec("dev3", "server", "field"),
        ],
        collector_hosts=[HostSpec("col1", "field")],
        analysis_hosts=[HostSpec("inf%d" % (i + 1), "mgmt")
                        for i in range(analysis_hosts)],
        storage_host=HostSpec("stor", "mgmt"),
        interface_host=HostSpec("iface", "mgmt"),
        seed=11,
        dataset_threshold=4,
        policy="round-robin",
        job_timeout=40.0,
        reliability={
            "ack_timeout": 1.0, "backoff": 2.0, "max_attempts": 4,
            "redelivery": True, "redelivery_interval": 2.0,
            "redelivery_max_interval": 8.0,
            "redelivery_give_up_after": None,
        },
        wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=0.0),
        heartbeat_interval=2.0,
        gossip=gossip,
    )
    return GridManagementSystem(spec)


class TestMeshConstruction:
    def test_mesh_wires_every_analyzer_and_the_root(self):
        system = _gossip_system()
        mesh = system.gossip
        assert isinstance(mesh, GossipMesh)
        assert set(mesh.members) == {
            a.name for a in system.analyzers}
        for analyzer in system.analyzers:
            assert analyzer.gossip is mesh.members[analyzer.name]
        assert mesh.root_gossip.agent is system.root

    def test_mesh_parameter_validation(self):
        system = _gossip_system(gossip=False)
        with pytest.raises(ValueError):
            GossipMesh(system.root, system.analyzers, interval=0.0)
        with pytest.raises(ValueError):
            GossipMesh(system.root, [])
        # A round's digest is the root's heartbeat: no slower than it.
        with pytest.raises(ValueError):
            GossipMesh(system.root, system.analyzers, interval=3.0)

    def test_gossip_unset_builds_nothing(self):
        system = _gossip_system(gossip=False)
        assert system.gossip is None
        assert system.root.gossip is None
        for analyzer in system.analyzers:
            assert analyzer.gossip is None
            # Its beacon loop only beats: no view, no inbox, no stand-in.
            assert analyzer.beacons.detector is None
            assert all(b.name not in ("beacon-inbox", "gossip-standin")
                       for b in analyzer.behaviours())

    def test_quiet_mesh_converges_alive(self):
        system = _gossip_system()
        system.sim.run(until=30.0)
        for component in system.gossip.members.values():
            assert component.view.alive_members() == [
                "analyzer-1", "analyzer-2", "analyzer-3", "analyzer-4",
                "pg-root",
            ]
        assert system.gossip.detection_times() == {}
        stats = system.gossip.stats()
        assert stats["digests_sent"] > 0
        assert stats["confirms"] == 0


class TestOneBeaconLoop:
    """Gossip rides the analyzers' one beacon loop, and the root answers
    from its one detector."""

    @staticmethod
    def _count_beacons_to_root(system):
        to_root = Counter()
        send = system.platform.send

        def counting(message):
            if (str(message.receiver) == system.root.name
                    and message.ontology == HEARTBEAT.name):
                assert message.size_units == GOSSIP_SIZE
                assert "digest" in message.content
                to_root[str(message.sender)] += 1
            send(message)

        system.platform.send = counting
        return to_root

    @pytest.mark.parametrize("outage", [False, True])
    def test_one_beacon_to_the_root_per_round(self, outage):
        """Quiet or with the root cut off (when analyzers suspect it):
        each analyzer's round is its only liveness message to the root."""
        system = _gossip_system()
        if outage:
            apply_fault_plan(system, FaultPlan([FaultEvent(
                15.0, FaultEvent.HOST_PARTITION, ["stor", "inf1"],
                clear_after=30.0)]))
        to_root = self._count_beacons_to_root(system)
        system.sim.run(until=90.0)
        if outage:
            assert system.gossip.detection_times()
        for analyzer in system.analyzers:
            loop = analyzer.gossip.loop
            assert loop.ticks > 80
            assert to_root[analyzer.name] == loop.ticks
            assert analyzer.heartbeats_sent == loop.sent

    def test_root_owns_one_failure_detector(self):
        system = _gossip_system()
        root = system.root
        apply_fault_plan(system, FaultPlan([FaultEvent(
            15.0, FaultEvent.HOST_PARTITION, ["stor", "inf1", "inf2"],
            clear_after=30.0)]))
        system.sim.run(until=40.0)
        detectors = [value for owner in (root, root.gossip, root.beacons)
                     for value in vars(owner).values()
                     if isinstance(value, FailureDetector)]
        assert detectors and all(d is root.detector for d in detectors)
        # Its digest reports each analyzer as its eviction detector sees
        # it: the severed two are evicted, and so confirmed.
        digest = root.gossip.payload()["digest"]
        for index in range(1, 5):
            status, _, last_heard = digest["analyzer-%d" % index]
            container = "analysis-%d" % index
            assert status == root.detector.status(container)
            assert last_heard == root.detector.last_heard[container]
        assert [digest["analyzer-%d" % i][0] for i in range(1, 5)] == [
            ALIVE, ALIVE, CONFIRMED, CONFIRMED]
        assert root.containers_evicted == 2


class TestStandInDispatcher:
    def _result(self, job_id):
        return {"job_id": job_id, "findings": [], "records_analyzed": 3}

    @staticmethod
    def _merge(component, digest):
        """Deliver a digest the way the inbox would: merge + root check."""
        component._check_root(component.view.merge(digest))

    def _confirm_root(self, component):
        self._merge(component, {"pg-root": [CONFIRMED, 0, 0.0]})

    def test_intercept_only_when_root_confirmed_and_targeted(self):
        system = _gossip_system()
        component = system.gossip.members["analyzer-2"]
        # Root alive: ship normally.
        assert not component.intercept_result(self._result("j1"), "pg-root")
        self._confirm_root(component)
        # Root confirmed, but the result belongs to a site gateway:
        # never intercepted.
        assert not component.intercept_result(self._result("j1"), "gw-1")
        assert component.intercept_result(self._result("j1"), "pg-root")

    def test_stand_in_buffers_and_counts_duplicates(self):
        system = _gossip_system()
        component = system.gossip.members["analyzer-1"]
        self._confirm_root(component)
        assert component.stand_in() == "analyzer-1"  # smallest alive
        assert component.intercept_result(self._result("j1"), "pg-root")
        assert component.intercept_result(self._result("j2"), "pg-root")
        assert component.intercept_result(self._result("j1"), "pg-root")
        assert component.results_buffered == 2
        assert component.duplicates_absorbed == 1
        assert sorted(component.buffered_results) == ["j1", "j2"]

    def test_non_stand_in_redirects_to_stand_in(self):
        system = _gossip_system()
        sender = system.gossip.members["analyzer-3"]
        self._confirm_root(sender)
        assert sender.stand_in() == "analyzer-1"
        assert sender.intercept_result(self._result("j9"), "pg-root")
        assert sender.results_redirected == 1
        system.sim.run(until=1.0)  # let the redirect arrive
        stand_in = system.gossip.members["analyzer-1"]
        assert stand_in.buffered_results["j9"]["job_id"] == "j9"
        assert stand_in.results_buffered == 1

    def test_flush_on_recovery_and_root_dedup(self):
        system = _gossip_system()
        component = system.gossip.members["analyzer-1"]
        self._confirm_root(component)
        for job_id in ("j1", "j2"):
            assert component.intercept_result(
                self._result(job_id), "pg-root")
        before = system.root.duplicate_results
        # The root's refutation (fresh incarnation) triggers the flush.
        self._merge(component, {"pg-root": [ALIVE, 1, 0.5]})
        assert component.buffered_results == {}
        assert component.results_flushed == 2
        system.sim.run(until=5.0)
        # Neither job id exists at the root: both flushed results are
        # absorbed by the dedup and *counted*, never re-applied.
        assert system.root.duplicate_results == before + 2

    def test_election_recorded_per_view(self):
        system = _gossip_system()
        component = system.gossip.members["analyzer-4"]
        self._confirm_root(component)
        assert component.elections
        assert component.elections[-1][1] == "analyzer-1"
        assert system.gossip.stand_ins()["analyzer-4"] == "analyzer-1"

    def test_every_outage_confirmed_by_own_sweep_elects(self):
        """Two separate root outages, both confirmed by analyzer-3's own
        sweep (not by a merged digest): one election per confirmation,
        so the second outage's stand-in is not a stale pick."""
        system = _gossip_system()
        apply_fault_plan(system, FaultPlan([
            FaultEvent(at, FaultEvent.HOST_PARTITION, ["stor", "inf1"],
                       clear_after=30.0)
            for at in (15.0, 90.0)
        ]))
        system.sim.run(until=200.0)
        component = system.gossip.members["analyzer-3"]
        assert [(round(at, 2), stand_in)
                for at, stand_in in component.elections] == [
            (18.33, "analyzer-2"), (93.33, "analyzer-2")]
        assert [round(at, 2) for member, at in component.view.detector.downs
                if member == "pg-root"] == [18.33, 93.33]


class TestGossipOffByteIdentity:
    def test_figure6_double_run_bytes_identical(self):
        """gossip unset is the exact paper path: two fresh runs of the
        figure-6 driver produce byte-identical reports and exports."""
        from repro.baselines.driver import run_figure6
        from repro.evaluation import export

        def render():
            results = run_figure6(polls_per_type=3, seed=42)
            reports = "\n".join(
                results[label].report.render()
                for label in ("centralized", "multiagent", "grid"))
            payload = json.dumps(
                {label: export.run_result_to_dict(result)
                 for label, result in results.items()},
                sort_keys=True)
            return reports + "\n" + payload

        assert render() == render()
