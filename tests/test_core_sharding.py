"""Tests for the consistent-hash sharded classifier/storage grid.

Two layers of guarantees:

* the :mod:`repro.core.sharding` ring itself (balance, minimal remap on
  a join, memo consistency) -- property-based;
* the sharded deployment's *equivalence* to the paper reproduction
  (scatter-gather level-3 correlation finds the same things, and
  ``shards=1`` stays byte-identical).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharding import HashRing, stable_hash
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
        before = {key: ring.lookup(key) for key in KEYS}
        ring.add_node("joiner")
        moved = {key: ring.lookup(key) for key in KEYS
                 if ring.lookup(key) != before[key]}
        # Minimal remap: about 1/(n+1) of keys move (bounded well below
        # the ~100% a mod-N scheme would reshuffle) ...
        assert 0 < len(moved) <= 2.5 * len(KEYS) / (node_count + 1)
        # ... and every move lands on the joiner.
        assert set(moved.values()) == {"joiner"}

    @settings(max_examples=20, deadline=None)
    @given(
        node_count=st.integers(min_value=2, max_value=6),
        vnodes=st.sampled_from([8, 32]),
    )
    def test_memo_survives_membership_changes(self, node_count, vnodes):
        # The memoized lookup must agree with a cold ring after an add.
        ring = _ring(node_count, vnodes)
        for key in KEYS[:200]:
            ring.lookup(key)  # warm the memo
        ring.add_node("joiner")
        cold = HashRing(
            ["shard-%d" % index for index in range(node_count)] + ["joiner"],
            vnodes=vnodes)
        assert [ring.lookup(key) for key in KEYS[:200]] == \
            [cold.lookup(key) for key in KEYS[:200]]

    def test_membership_errors(self):
        ring = _ring(2, 8)
        with pytest.raises(ValueError):
            ring.add_node("shard-0")
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


def _devices_held(store):
    """Device names with any data (history or dataset records) in a store."""
    devices = {key[0] for key in store._history}
    for clusters in store._datasets.values():
        for records in clusters.values():
            devices.update(record.device for record in records)
    return devices


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
                host.name
                for host, store in zip(system.shard_hosts, system.stores)
                if device in _devices_held(store)
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
        assert not any(behaviour.name == "shard-flush"
                       for behaviour in system.classifier._behaviours)
        assert len(system.stores) == 1
        assert system.classifier.external_flush is False


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
        # Every key is a live counter: one that always reads 0 cannot
        # come back unnoticed.
        assert set(metrics) == {
            "records_shard0", "records_shard1", "shards", "scatter_rounds",
            "scatter_fanout", "scatter_fanout_total",
        }

