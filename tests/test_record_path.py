"""The record path reads no more than analysis needs, and reads it exactly.

* ``ManagementDataStore.baseline`` is the list-based formula: a filtered
  list, ``sum()``, ``len()`` and ``max()``, down to the types of ``mean``
  and ``maximum``.  A faster form must keep these properties.
* ``baselines_for_records(..., admit=...)`` builds only the series the
  alpha gate admits; it must equal the unfiltered list filtered in order
  by the gate's own test.
* A GET reads the MIB template directly, with no per-object view; its
  varbinds must equal the ones read through ``mib.get(oid).read()``.
* ``RngStream.gauss`` is the generator's own bound method, so a device's
  draws are those of ``random.Random(derive_seed(seed, name))``.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel, TaskCost, TaskKind
from repro.core.records import ManagementRecord
from repro.core.storage import ManagementDataStore
from repro.network.topology import Network
from repro.network.transport import Transport
from repro.rules.engine import _passes
from repro.simkernel.rng import RngStream, derive_seed
from repro.simkernel.simulator import Simulator
from repro.snmp.device import PROFILES, ManagedDevice
from repro.snmp.engine import (
    PduType,
    SnmpEngine,
    SnmpError,
    SnmpRequest,
    VarBind,
)
from repro.snmp.manager import SnmpClient
from repro.snmp.mib import MibTree
from repro.snmp.oids import OID

KEY = ("dev", "cpu_load", None)

values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([5, 5.0, -5, -5.0]),
)
points = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10).map(float), values),
    max_size=12,
)
#: None, or a cut-off below, between, at or above the times drawn.
cutoffs = st.one_of(
    st.none(),
    st.sampled_from([-1.0, 0.0, 2.5, 5.0, 7.5, 10.0, 11.0]),
)


#: Storing is free, so ``store_records`` never touches a host.
FREE_STORE = CostModel(overrides={(TaskKind.STORE, None): TaskCost()})


def _store(history):
    """A store whose history is ``{series key: [(time, value)]}``.

    Each point arrives as one record through ``store_records``, the
    store's own write path.
    """
    store = ManagementDataStore(host=None, cost_model=FREE_STORE)
    records = [
        ManagementRecord(device, "s1", "A", "performance",
                         [(metric, instance, value)],
                         time, size_units=1.0, parsed=True)
        for (device, metric, instance), points in history.items()
        for time, value in points
    ]
    assert list(store.store_records(records)) == []  # free: never waits
    return store


def _list_baseline(store, key, exclude_after):
    """The baseline as a filtered list, ``sum()``, ``len()`` and ``max()``."""
    values = [
        value for time, value in store.history(*key)
        if exclude_after is None or time <= exclude_after
    ]
    if not values:
        return None
    return {
        "device": key[0], "metric": key[1], "instance": key[2],
        "mean": sum(values) / len(values),
        "maximum": max(values),
        "count": len(values),
    }


def _typed(baseline):
    if baseline is None:
        return None
    return {name: (type(value), value) for name, value in baseline.items()}


class TestBaseline:
    @settings(max_examples=300, deadline=None)
    @given(points, cutoffs)
    def test_equals_the_list_formula_with_types(self, history, cutoff):
        store = _store({KEY: history})
        assert _typed(store.baseline(*KEY, exclude_after=cutoff)) == \
            _typed(_list_baseline(store, KEY, cutoff))

    def test_the_first_of_tied_maxima_is_kept(self):
        store = _store({KEY: [(1.0, 5), (2.0, 5.0), (3.0, 1)]})
        assert type(store.baseline(*KEY)["maximum"]) is int
        store = _store({KEY: [(1.0, 5.0), (2.0, 5), (3.0, 1)]})
        assert type(store.baseline(*KEY)["maximum"]) is float

    def test_a_series_cut_off_entirely_has_no_baseline(self):
        store = _store({KEY: [(4.0, 1.0), (5.0, 2.0)]})
        assert store.baseline(*KEY, exclude_after=3.0) is None
        assert store.baseline(*KEY, exclude_after=4.0)["count"] == 1


DEVICES = ("d0", "d1", "d2")
METRICS = ("cpu_load", "mem_available", "if_in_rate")
INSTANCES = (None, 1, 2)


def _records(series):
    return [
        ManagementRecord(device, "s1", "A", "performance",
                         [(metric, instance, 1.0)],
                         50.0, size_units=1.0, parsed=True)
        for device, metric, instance in series
    ]


admits = st.dictionaries(
    st.sampled_from(["device", "metric", "instance"]),
    st.frozensets(st.sampled_from(DEVICES + METRICS + INSTANCES)),
    max_size=3,
)
series_lists = st.lists(
    st.tuples(st.sampled_from(DEVICES), st.sampled_from(METRICS),
              st.sampled_from(INSTANCES)),
    max_size=20,
)


class TestGatedBaselines:
    @settings(max_examples=200, deadline=None)
    @given(series_lists, admits, cutoffs)
    def test_equals_the_unfiltered_list_filtered_in_order(
            self, series, admit, cutoff):
        history = {
            (device, metric, instance): [(1.0, 3), (6.0, 4.5)]
            for device in DEVICES for metric in METRICS
            for instance in INSTANCES
        }
        store = _store(history)
        records = _records(series)
        every = store.baselines_for_records(records, exclude_after=cutoff)
        gated = store.baselines_for_records(
            records, exclude_after=cutoff, admit=admit)
        assert gated == [
            baseline for baseline in every
            if _passes(admit, {attr: baseline[attr]
                               for attr in ("device", "metric", "instance")})
        ]

    def test_no_admit_builds_every_series_and_an_empty_one_none(self):
        store = _store({("d0", "cpu_load", None): [(1.0, 3)],
                        ("d1", "cpu_load", None): [(1.0, 4)]})
        records = _records([("d1", "cpu_load", None),
                            ("d0", "cpu_load", None)])
        every = store.baselines_for_records(records)
        assert [baseline["device"] for baseline in every] == ["d1", "d0"]
        assert store.baselines_for_records(records, admit=None) == every
        assert store.baselines_for_records(records, admit={}) == []

    def test_a_literal_off_the_series_key_builds_every_series(self):
        store = _store({("d0", "cpu_load", None): [(1.0, 3)],
                        ("d1", "cpu_load", None): [(1.0, 4)]})
        records = _records([("d1", "cpu_load", None),
                            ("d0", "cpu_load", None)])
        every = store.baselines_for_records(records)
        assert store.baselines_for_records(
            records, admit={"device": frozenset(["d0"]),
                            "maximum": frozenset([3])}) == every


def _device_engine(profile):
    sim = Simulator(seed=11)
    network = Network(sim)
    device = ManagedDevice(
        sim, network.add_host("dev1", "site1", role="device"),
        profile=profile)
    engine = SnmpEngine(device, Transport(network))
    return sim, device, engine


def _get(engine, oids):
    return engine._evaluate(SnmpRequest(
        PduType.GET, [VarBind(oid) for oid in oids], request_id=1,
        reply_to=None))


def _as_rows(varbinds):
    return [(varbind.oid, varbind.name, varbind.value, varbind.error)
            for varbind in varbinds]


UNKNOWN = OID("1.3.6.1.4.1.99999.1.0")


class TestGetFromTheTemplate:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_a_get_equals_the_views(self, profile):
        sim, device, engine = _device_engine(profile)
        device.inject_fault("memory_leak")
        device.inject_fault("interface_down", interface=0)
        sim.run(until=42.0)
        device.catch_up()
        oids = device.mib.oids() + [UNKNOWN]
        expected = []
        for oid in oids:
            obj = device.mib.get(oid)
            if obj is None:
                expected.append((oid, "", None, SnmpError.NO_SUCH_OBJECT))
            else:
                expected.append((obj.oid, obj.name, obj.read(), None))
        assert _as_rows(_get(engine, oids)) == expected

    def test_an_unbound_tree_reads_static_and_callable_scalars(self):
        sim = Simulator(seed=3)
        network = Network(sim)
        transport = Transport(network)
        host = network.add_host("box", "site1", role="device")
        manager = network.add_host("mgr", "site1", role="manager")
        tree = MibTree()
        static = tree.register_scalar("1.3.6.1.2.1.1.5.0", "sysName", "box",
                                      writable=True)
        computed = tree.register_scalar("1.3.6.1.2.1.1.3.0", "sysUpTime",
                                        lambda: int(sim.now * 100))
        device = SimpleNamespace(
            sim=sim, host=host, mib=tree, name="box", catch_up=lambda: None)
        SnmpEngine(device, transport)
        client = SnmpClient(manager, transport, timeout=100.0)
        replies = {}

        def proc():
            replies["get"] = yield from client.get(
                "box", [static.oid, computed.oid, UNKNOWN])
            replies["set"] = yield from client.set(
                "box", {computed.oid: 1, static.oid: "renamed"})
            replies["after"] = yield from client.get("box", [static.oid])

        sim.spawn(proc())
        sim.run(until=200.0)
        got = _as_rows(replies["get"].varbinds)
        assert got[0] == (static.oid, "sysName", "box", None)
        assert got[1][:2] == (computed.oid, "sysUpTime")
        assert got[1][2] > 0 and got[1][3] is None
        assert got[2] == (UNKNOWN, "", None, SnmpError.NO_SUCH_OBJECT)
        assert [varbind.error for varbind in replies["set"].varbinds] == \
            [SnmpError.NOT_WRITABLE, None]
        assert replies["after"].varbinds[0].value == "renamed"

    def test_read_at_hands_out_no_view(self):
        _, device, _ = _device_engine("router")
        mib = device.mib
        for oid in mib.oids():
            obj, value = mib.read_at(oid)
            assert obj is mib.get(oid).entry
            assert value == mib.get(oid).read()
        assert mib.read_at(UNKNOWN) is None


class TestGaussIsTheGeneratorsOwn:
    def test_same_draws_as_a_plain_random(self):
        stream = RngStream(42, "device/dev7")
        reference = random.Random(derive_seed(42, "device/dev7"))
        assert [stream.gauss(1.0, 2.0) for _ in range(50)] == \
            [reference.gauss(1.0, 2.0) for _ in range(50)]
        # bounded_gauss draws from the same generator, in turn
        assert stream.bounded_gauss(0.0, 1.0, -0.5, 0.5) == \
            min(0.5, max(-0.5, reference.gauss(0.0, 1.0)))
        assert stream.gauss(0.0, 1.0) == reference.gauss(0.0, 1.0)
