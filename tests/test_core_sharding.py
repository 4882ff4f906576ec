"""Tests for the consistent-hash sharded classifier/storage grid.

Three layers of guarantees:

* the :mod:`repro.core.sharding` ring itself (balance, minimal remap,
  memo consistency) -- property-based;
* the sharded deployment's *equivalence* to the paper reproduction
  (scatter-gather level-3 correlation finds the same things, and
  ``shards=1`` stays byte-identical);
* the rebalance protocol's no-silent-loss invariant on shard join/leave.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharding import HashRing, moved_keys, stable_hash
from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)

KEYS = ["dev-%d" % index for index in range(2000)]


def _ring(node_count, vnodes):
    return HashRing(
        ["shard-%d" % index for index in range(node_count)], vnodes=vnodes,
    )


class TestStableHash:
    def test_deterministic_across_instances(self):
        assert stable_hash("dev1") == stable_hash("dev1")
        assert stable_hash(b"dev1") == stable_hash("dev1")

    def test_pinned_value(self):
        # Byte-identity discipline: shard ownership must never drift
        # between runs or Python versions (unlike builtin hash()).
        assert stable_hash("dev1") == 0xCEA099A8F5AC3E28


class TestRingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        node_count=st.integers(min_value=2, max_value=10),
        vnodes=st.sampled_from([8, 16, 32, 64]),
    )
    def test_balance_within_2x_ideal(self, node_count, vnodes):
        ring = _ring(node_count, vnodes)
        counts = {}
        for key in KEYS:
            owner = ring.lookup(key)
            counts[owner] = counts.get(owner, 0) + 1
        ideal = len(KEYS) / node_count
        assert max(counts.values()) <= 2.0 * ideal
        assert len(counts) == node_count  # nobody starves entirely

    @settings(max_examples=40, deadline=None)
    @given(
        node_count=st.integers(min_value=2, max_value=10),
        vnodes=st.sampled_from([8, 16, 32, 64]),
    )
    def test_join_remaps_about_one_nth_toward_joiner(self, node_count, vnodes):
        ring = _ring(node_count, vnodes)
        before = ring.owners(KEYS)
        ring.add_node("joiner")
        after = ring.owners(KEYS)
        moved = moved_keys(before, after)
        # Minimal remap: about 1/(n+1) of keys move (bounded well below
        # the ~100% a mod-N scheme would reshuffle) ...
        assert 0 < len(moved) <= 2.5 * len(KEYS) / (node_count + 1)
        # ... and every move lands on the joiner.
        assert all(new == "joiner" for _, new in moved.values())

    @settings(max_examples=40, deadline=None)
    @given(
        node_count=st.integers(min_value=3, max_value=10),
        vnodes=st.sampled_from([8, 16, 32, 64]),
    )
    def test_leave_remaps_only_the_leavers_keys(self, node_count, vnodes):
        ring = _ring(node_count, vnodes)
        before = ring.owners(KEYS)
        ring.remove_node("shard-0")
        after = ring.owners(KEYS)
        moved = moved_keys(before, after)
        assert 0 < len(moved) <= 2.5 * len(KEYS) / node_count
        assert all(old == "shard-0" for old, _ in moved.values())
        # Keys not owned by the leaver never move.
        untouched = [key for key, owner in before.items() if owner != "shard-0"]
        assert all(after[key] == before[key] for key in untouched)

    @settings(max_examples=20, deadline=None)
    @given(
        node_count=st.integers(min_value=2, max_value=6),
        vnodes=st.sampled_from([8, 32]),
    )
    def test_memo_survives_membership_changes(self, node_count, vnodes):
        # The memoized lookup must agree with a cold ring after add/remove.
        ring = _ring(node_count, vnodes)
        for key in KEYS[:200]:
            ring.lookup(key)  # warm the memo
        ring.add_node("joiner")
        ring.remove_node("shard-0")
        cold = HashRing(ring.nodes(), vnodes=vnodes)
        assert ring.owners(KEYS[:200]) == cold.owners(KEYS[:200])

    def test_membership_errors(self):
        ring = _ring(2, 8)
        with pytest.raises(ValueError):
            ring.add_node("shard-0")
        with pytest.raises(ValueError):
            ring.remove_node("ghost")
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        with pytest.raises(LookupError):
            HashRing().lookup("dev1")


# -- sharded deployment ------------------------------------------------------


def _sharded_spec(shards, devices=4, seed=11, **overrides):
    parameters = dict(
        devices=[
            DeviceSpec("dev%d" % index, "server", "site1")
            for index in range(1, devices + 1)
        ],
        collector_hosts=[HostSpec("col1", "site1")],
        analysis_hosts=[HostSpec("inf1", "site1"), HostSpec("inf2", "site1")],
        storage_host=HostSpec("stor", "site1"),
        interface_host=HostSpec("iface", "site1"),
        seed=seed,
        cluster_strategy="by-device",
        shards=shards,
    )
    parameters.update(overrides)
    return GridTopologySpec(**parameters)


def _canonical_findings(system):
    return {
        (finding.kind, finding.severity, finding.device, finding.site)
        for finding in system.interface.all_findings()
    }


class TestScatterGatherEquivalence:
    def _run(self, shards):
        system = GridManagementSystem(_sharded_spec(shards))
        system.devices["dev1"].inject_fault("cpu_runaway")
        system.devices["dev2"].inject_fault("cpu_runaway")
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        assert system.run_until_records(12, timeout=4000)
        return system

    def test_sharded_level3_equals_unsharded(self):
        unsharded = self._run(1)
        sharded = self._run(3)
        assert _canonical_findings(sharded) == _canonical_findings(unsharded)
        # Both must actually reach level-3 correlation (the incident that
        # needs problems from more than one device/shard).
        for system in (unsharded, sharded):
            kinds = {f.kind for f in system.interface.all_findings()}
            assert "site-overload" in kinds
            assert any(
                f.level >= 3 for f in system.interface.all_findings())
        # The sharded run got there via scatter-gather, not a single lane.
        assert sharded.root.scatter_rounds > 0
        assert sharded.root.scatter_fanout_total >= len(sharded.stores) - 1
        assert sum(s.records_stored for s in sharded.stores) == 12
        assert all(s.records_stored > 0 for s in sharded.stores[:1])

    def test_records_route_by_ring_owner(self):
        system = self._run(3)
        for device, dev in system.devices.items():
            owner = system.ring.lookup(device)
            holders = [
                host for host, store in system._store_by_host.items()
                if device in store.devices_held()
            ]
            assert holders == [owner]


class TestShards1ByteIdentity:
    def test_figure6_double_run_bytes_identical(self):
        """shards=1 runs the exact paper path: two runs, identical bytes."""
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

    def test_shards1_builds_no_ring_and_no_mux(self):
        system = GridManagementSystem(_sharded_spec(1))
        assert system.ring is None
        assert system._flush_mux is None
        assert len(system.stores) == 1
        assert system.classifier.external_flush is False
        with pytest.raises(RuntimeError):
            system.add_storage_shard()
        with pytest.raises(RuntimeError):
            system.remove_storage_shard("stor")


class TestRebalance:
    def _system(self):
        system = GridManagementSystem(
            _sharded_spec(2, devices=3, seed=5))
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        assert system.run_until_records(12, timeout=4000)
        return system

    def _conservation(self, system):
        records = sum(store.records_stored for store in system.stores)
        points = sum(
            len(points)
            for store in system.stores
            for points in store._history.values()
        )
        return records, points

    def _assert_ownership(self, system):
        for device in system.devices:
            owner = system.ring.lookup(device)
            holders = [
                host for host, store in system._store_by_host.items()
                if device in store.devices_held()
            ]
            assert holders == [owner], (device, owner, holders)

    def test_join_then_leave_loses_nothing(self):
        system = self._system()
        before = self._conservation(system)

        host, storage_agent, classifier = system.add_storage_shard()
        system.sim.run(until=system.sim.now + 150.0)
        assert self._conservation(system) == before
        assert system.rebalances == 1
        assert system.records_rebalanced > 0
        self._assert_ownership(system)

        system.remove_storage_shard(system.shard_hosts[0].name)
        system.sim.run(until=system.sim.now + 150.0)
        assert self._conservation(system) == before
        assert system.rebalances == 2
        self._assert_ownership(system)

        # New records route to the post-rebalance layout and the pipeline
        # still completes end to end.
        system.assign_goals(system.make_paper_goals(polls_per_type=2))
        assert system.run_until_records(18, timeout=4000)
        assert sum(s.records_stored for s in system.stores) == 18

    def test_remove_guards(self):
        system = GridManagementSystem(_sharded_spec(2, devices=3, seed=5))
        with pytest.raises(ValueError):
            system.remove_storage_shard("ghost")
        system.remove_storage_shard(system.shard_hosts[1].name)
        with pytest.raises(ValueError):
            system.remove_storage_shard(system.shard_hosts[0].name)


def _shard_source(system):
    """The sharded grid's one ``grid=storage`` source with shard health."""
    (source,) = [
        source for source in system.telemetry.metrics_snapshot()["sources"]
        if source["labels"]["grid"] == "storage"
        and "shards" in source["metrics"]
    ]
    return source


class TestShardMetrics:
    def test_shard_metrics_in_snapshot(self):
        system = GridManagementSystem(
            _sharded_spec(2, devices=3, seed=5, telemetry=True))
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        assert system.run_until_records(12, timeout=4000)
        metrics = _shard_source(system)["metrics"]
        assert metrics["records_shard0"] + metrics["records_shard1"] == 12
        assert [metrics["records_shard%d" % index] for index in range(2)] \
            == [store.records_stored for store in system.stores]
        assert metrics["scatter_fanout"] == system.root.last_scatter_fanout
        assert metrics["shards"] == 2
        assert metrics["scatter_rounds"] >= 1

    def test_rebalance_counter(self):
        system = GridManagementSystem(
            _sharded_spec(2, devices=3, seed=5, telemetry=True))
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        assert system.run_until_records(12, timeout=4000)
        system.add_storage_shard()
        system.sim.run(until=system.sim.now + 150.0)
        metrics = _shard_source(system)["metrics"]
        assert metrics["records_rebalanced"] > 0
        assert metrics["records_rebalanced"] == system.records_rebalanced
        assert metrics["rebalances"] == 1
        assert metrics["records_shard2"] > 0
