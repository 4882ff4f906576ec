"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.evaluation.tables import format_table
from repro.rules.facts import Fact, WorkingMemory
from repro.simkernel.events import EventQueue
from repro.simkernel.resources import Resource, ResourceKind
from repro.simkernel.rng import derive_seed
from repro.simkernel.simulator import Simulator
from repro.snmp.mib import MibTree
from repro.snmp.oids import OID


oid_strategy = st.lists(
    st.integers(min_value=0, max_value=99), min_size=1, max_size=8,
).map(tuple)


class TestOIDProperties:
    @given(oid_strategy)
    def test_string_round_trip(self, parts):
        oid = OID(parts)
        assert OID(str(oid)) == oid

    @given(oid_strategy, oid_strategy)
    def test_ordering_matches_tuple_ordering(self, a, b):
        assert (OID(a) < OID(b)) == (a < b)
        assert (OID(a) == OID(b)) == (a == b)

    @given(oid_strategy, st.lists(st.integers(0, 9), min_size=1, max_size=3))
    def test_child_extends_and_prefixes(self, parts, suffix):
        oid = OID(parts)
        child = oid.child(*suffix)
        assert oid.is_prefix_of(child)
        assert child > oid
        assert len(child) == len(oid) + len(suffix)


class TestMibProperties:
    @given(st.sets(oid_strategy, min_size=1, max_size=30))
    def test_getnext_chain_visits_all_in_order(self, oid_parts):
        tree = MibTree()
        for parts in oid_parts:
            tree.register_scalar(OID(parts), "o", 0)
        visited = []
        cursor = tree.get_next(OID((0,))) if OID((0,)) not in tree else None
        # walk from the absolute bottom
        current = tree.get(min(OID(p) for p in oid_parts))
        visited.append(current.oid)
        while True:
            nxt = tree.get_next(visited[-1])
            if nxt is None:
                break
            visited.append(nxt.oid)
        expected = sorted(OID(p) for p in oid_parts)
        assert visited == expected


class TestWorkingMemoryProperties:
    fact_strategy = st.tuples(
        st.sampled_from(["sample", "problem", "baseline"]),
        st.dictionaries(
            st.sampled_from(["device", "metric", "value", "site"]),
            st.one_of(st.integers(-5, 5), st.sampled_from(["a", "b"])),
            max_size=4,
        ),
    )

    @given(st.lists(fact_strategy, max_size=30))
    def test_size_equals_distinct_content(self, raw_facts):
        memory = WorkingMemory()
        distinct = set()
        for fact_type, attrs in raw_facts:
            fact = Fact(fact_type, **attrs)
            distinct.add(fact.content_key())
            memory.assert_fact(fact)
        assert len(memory) == len(distinct)

    @given(st.lists(fact_strategy, min_size=1, max_size=20))
    def test_retract_all_empties_memory(self, raw_facts):
        memory = WorkingMemory()
        stored = [memory.assert_new(t, **a) for t, a in raw_facts]
        for fact in stored:
            memory.retract(fact)
        assert len(memory) == 0
        assert memory.facts() == []


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), max_size=50))
    def test_pops_sorted(self, times):
        queue = EventQueue()
        for time in times:
            queue.push(time, lambda: None)
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event.time)
        assert popped == sorted(times)


class TestResourceProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=100,
                              allow_nan=False), min_size=1, max_size=20),
           st.floats(min_value=0.1, max_value=50, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_ledger_conservation(self, unit_list, capacity):
        """Total accounted units == total requested; busy time = sum/cap."""
        sim = Simulator(seed=1)
        resource = Resource(sim, "r", ResourceKind.CPU, capacity)

        def worker(units):
            yield resource.use(units)

        for units in unit_list:
            sim.spawn(worker(units))
        sim.run()
        assert resource.total_units == sum(unit_list)
        assert resource.busy_time * capacity == \
            sum(unit_list) or abs(
                resource.busy_time * capacity - sum(unit_list)) < 1e-6
        # single server: finish time >= busy time
        assert sim.now >= resource.busy_time - 1e-9


class TestCostModelProperties:
    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_estimate_scaling_preserves_verbatim(self, factor):
        model = CostModel().with_estimates_scaled(factor)
        base = CostModel()
        assert model.request_cost("A") == base.request_cost("A")
        assert model.infer_cost("B") == base.infer_cost("B")
        assert model.cross_cost() == base.cross_cost()
        assert model.store_cost().cpu == base.store_cost().cpu * factor

    @given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_size_identities_hold_for_any_scale(self, factor):
        from repro.core.costs import TaskCost, TaskKind

        model = CostModel().with_override(
            TaskKind.REQUEST, "A", TaskCost(cpu=10, net=5 * factor))
        assert model.poll_request_size + model.poll_response_size == \
            pytest_approx(model.request_cost("A").net)


def pytest_approx(value):
    import pytest

    return pytest.approx(value)


class TestRngProperties:
    @given(st.integers(), st.text(min_size=1, max_size=20))
    def test_derive_seed_deterministic_and_64bit(self, seed, name):
        first = derive_seed(seed, name)
        assert first == derive_seed(seed, name)
        assert 0 <= first < 2 ** 64


class TestTableProperties:
    @given(st.lists(
        st.tuples(
            st.integers(),
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("L", "N", "P", "Zs")),
                max_size=8,
            ),
        ),
        max_size=10,
    ))
    def test_format_table_line_count(self, rows):
        text = format_table(("n", "s"), rows, title="t")
        assert len(text.splitlines()) == 3 + len(rows)
