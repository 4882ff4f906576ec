"""Unit tests for facts, working memory and the condition DSL."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rules.conditions import (
    BETWEEN, CONTAINS, EQ, GE, GT, IN, LE, LT, NE, PRED, Pattern, Var,
)
from repro.rules.facts import Fact, WorkingMemory, _freeze


def sorted_freeze_key(fact):
    """The content key as a sorted tuple of frozen items: the reference
    ``Fact.content_key`` must agree with on which keys are equal."""
    return (fact.type, tuple(sorted(
        (name, _freeze(value)) for name, value in fact.attrs.items())))


_SHARED_NAN = float("nan")
_KEY_VALUES = st.sampled_from([
    1, 1.0, True, 0, 2, "a", None, _SHARED_NAN, float("nan"),
    (1, 2), [1, 2], [2, 1], (1, [2]), ((1, 2),), [[1, 2]],
    frozenset({1}), {1}, {1.0}, {"k": 1}, (("k", 1),), {"k": [1]},
])


class TestFact:
    def test_attribute_access(self):
        fact = Fact("sample", device="d1", value=10)
        assert fact["device"] == "d1"
        assert fact.get("missing", "default") == "default"
        assert "value" in fact

    def test_immutable(self):
        fact = Fact("sample", x=1)
        with pytest.raises(AttributeError):
            fact.type = "other"

    def test_same_content_ignores_identity(self):
        assert Fact("a", x=1).same_content(Fact("a", x=1))
        assert not Fact("a", x=1).same_content(Fact("a", x=2))
        assert not Fact("a", x=1).same_content(Fact("b", x=1))

    def test_content_key_handles_unhashable_values(self):
        fact = Fact("a", items=[1, 2], mapping={"k": [3]}, tags={"x"})
        assert isinstance(hash(fact.content_key()), int)

    @pytest.mark.parametrize("left,right,equal", [
        ((1, 2), [1, 2], True),
        ([1, 2], [2, 1], False),
        (frozenset({1, 2}), {1, 2}, True),
        ({"k": 1}, (("k", 1),), True),
        (1, 1.0, True),
        (1, True, True),
        ((1, [2]), [1, (2,)], True),
        ("a", ["a"], False),
    ])
    def test_content_key_fast_path_agrees_with_freezing(
            self, left, right, equal):
        # A hashable value keys as itself, an unhashable one frozen; the
        # two must meet exactly where the frozen forms are equal.
        first, second = Fact("a", x=left, y=0), Fact("a", x=right, y=0)
        assert (first.content_key() == second.content_key()) is equal
        assert (sorted_freeze_key(first) == sorted_freeze_key(second)) \
            is equal

    @given(st.dictionaries(st.sampled_from("xyz"), _KEY_VALUES, max_size=3),
           st.dictionaries(st.sampled_from("xyz"), _KEY_VALUES, max_size=3))
    def test_content_keys_equal_exactly_when_frozen_items_are(
            self, attrs_a, attrs_b):
        first, second = Fact("t", **attrs_a), Fact("t", **attrs_b)
        assert (first.content_key() == second.content_key()) == (
            sorted_freeze_key(first) == sorted_freeze_key(second))

    def test_owning_takes_the_dict_uncopied(self):
        attrs = {"x": 1}
        fact = Fact.owning("a", attrs)
        assert fact.attrs is attrs and fact.type == "a"
        assert fact.id != Fact.owning("a", {"x": 1}).id
        with pytest.raises(ValueError):
            Fact.owning("", {})

    def test_ids_are_unique(self):
        assert Fact("a").id != Fact("a").id

    def test_empty_type_rejected(self):
        with pytest.raises(ValueError):
            Fact("")


class TestWorkingMemory:
    def test_assert_and_query(self):
        memory = WorkingMemory()
        memory.assert_new("sample", device="d1")
        memory.assert_new("sample", device="d2")
        memory.assert_new("problem", device="d1")
        assert len(memory) == 3
        assert memory.count("sample") == 2
        assert memory.types() == ["problem", "sample"]

    def test_duplicate_content_collapses(self):
        memory = WorkingMemory()
        first = memory.assert_new("sample", device="d1")
        second = memory.assert_new("sample", device="d1")
        assert first is second
        assert len(memory) == 1
        assert memory.assertions == 1

    def test_retract(self):
        memory = WorkingMemory()
        fact = memory.assert_new("sample", device="d1")
        assert memory.retract(fact)
        assert not memory.retract(fact)
        assert len(memory) == 0
        # content can be re-asserted after retraction
        again = memory.assert_new("sample", device="d1")
        assert again is not fact

    def test_retract_type(self):
        memory = WorkingMemory()
        memory.assert_new("sample", device="d1")
        memory.assert_new("sample", device="d2")
        memory.assert_new("problem", device="d1")
        assert memory.retract_type("sample") == 2
        assert memory.count("sample") == 0
        assert memory.count("problem") == 1

    def test_retracting_the_last_fact_drops_its_type(self):
        memory = WorkingMemory()
        fact = memory.assert_new("a", x=1)
        memory.assert_new("b", x=1)
        assert memory.retract(fact)
        assert memory.types() == ["b"]
        assert memory.facts("a") == [] and memory.count("a") == 0
        assert memory.retract_type("b") == 1
        assert memory.types() == []
        assert not memory.retract(fact)  # an absent type is a no-op

    def test_alpha_buckets_by_value_in_assertion_order(self):
        memory = WorkingMemory()
        one = memory.assert_new("a", x=1, n=0)
        two = memory.assert_new("a", x=2, n=1)
        also_one = memory.assert_new("a", x=1.0, n=2)
        memory.assert_new("a", n=3)  # no x: in no bucket
        memory.assert_new("b", x=1)
        index = memory.alpha("a", "x")
        assert index == {1: [one, also_one], 2: [two]}
        assert memory.alpha("a", "x") is index  # one build per version
        assert memory.alpha("c", "x") == {}

    def test_alpha_is_none_for_an_unhashable_value(self):
        memory = WorkingMemory()
        memory.assert_new("a", x=1)
        memory.assert_new("a", x=[1])
        assert memory.alpha("a", "x") is None

    def test_alpha_follows_retracts(self):
        memory = WorkingMemory()
        first = memory.assert_new("a", x=1, n=0)
        second = memory.assert_new("a", x=1, n=1)
        third = memory.assert_new("a", x=2, n=2)
        assert memory.alpha("a", "x") == {1: [first, second], 2: [third]}
        memory.retract(first)
        assert memory.alpha("a", "x") == {1: [second], 2: [third]}
        memory.retract(third)
        assert memory.alpha("a", "x") == {1: [second]}
        memory.retract(second)
        assert memory.alpha("a", "x") == {}
        again = memory.assert_new("a", x=2, n=3)
        assert memory.alpha("a", "x") == {2: [again]}
        memory.retract_type("a")
        assert memory.alpha("a", "x") == {}

    def test_first_with_attribute_filter(self):
        memory = WorkingMemory()
        memory.assert_new("sample", device="d1", value=1)
        memory.assert_new("sample", device="d2", value=2)
        fact = memory.first("sample", device="d2")
        assert fact["value"] == 2
        assert memory.first("sample", device="d9") is None

    def test_clock_stamps_assertions(self):
        times = [5.0]
        memory = WorkingMemory(clock=lambda: times[0])
        fact = memory.assert_new("sample", x=1)
        assert fact.asserted_at == 5.0

    def test_version_increments_on_change(self):
        memory = WorkingMemory()
        v0 = memory.version
        fact = memory.assert_new("a", x=1)
        assert memory.version > v0
        v1 = memory.version
        memory.retract(fact)
        assert memory.version > v1


class TestPredicates:
    @pytest.mark.parametrize("predicate,value,expected", [
        (EQ(5), 5, True), (EQ(5), 6, False),
        (NE(5), 6, True), (NE(5), 5, False),
        (GT(5), 6, True), (GT(5), 5, False), (GT(5), None, False),
        (GE(5), 5, True), (GE(5), 4, False),
        (LT(5), 4, True), (LT(5), 5, False), (LT(5), None, False),
        (LE(5), 5, True), (LE(5), 6, False),
        (BETWEEN(1, 3), 2, True), (BETWEEN(1, 3), 4, False),
        (IN(1, 2, 3), 2, True), (IN(1, 2, 3), 9, False),
        (IN([1, 2]), 1, True),
        (CONTAINS("x"), ["x", "y"], True), (CONTAINS("x"), ["y"], False),
        (CONTAINS("x"), 5, False),
        (PRED(lambda v: v % 2 == 0), 4, True),
        (PRED(lambda v: v % 2 == 0), 5, False),
    ])
    def test_predicate_semantics(self, predicate, value, expected):
        assert predicate.check(value) is expected

    def test_between_bounds_validated(self):
        with pytest.raises(ValueError):
            BETWEEN(3, 1)

    def test_in_with_unhashable_probe(self):
        assert IN(1, 2).check([1]) is False


class TestPattern:
    def test_literal_constraint(self):
        pattern = Pattern("sample", metric="cpu_load")
        assert pattern.match(
            Fact("sample", metric="cpu_load"), {}) is not None
        assert pattern.match(Fact("sample", metric="disk"), {}) is None
        assert pattern.match(Fact("other", metric="cpu_load"), {}) is None

    def test_missing_attribute_fails(self):
        pattern = Pattern("sample", metric="cpu_load")
        assert pattern.match(Fact("sample", value=1), {}) is None

    def test_variable_binding(self):
        pattern = Pattern("sample", device=Var("d"))
        bindings = pattern.match(Fact("sample", device="d1"), {})
        assert bindings == {"d": "d1"}

    def test_variable_consistency_across_bindings(self):
        pattern = Pattern("sample", device=Var("d"))
        assert pattern.match(Fact("sample", device="d1"), {"d": "d1"}) \
            is not None
        assert pattern.match(Fact("sample", device="d2"), {"d": "d1"}) is None

    def test_bind_whole_fact(self):
        pattern = Pattern("sample", bind="f", device="d1")
        fact = Fact("sample", device="d1")
        bindings = pattern.match(fact, {})
        assert bindings["f"] is fact

    def test_input_bindings_not_mutated(self):
        pattern = Pattern("sample", device=Var("d"))
        original = {}
        pattern.match(Fact("sample", device="d1"), original)
        assert original == {}

    def test_predicate_and_var_mix(self):
        pattern = Pattern("sample", value=GT(10), device=Var("d"))
        bindings = pattern.match(Fact("sample", value=50, device="x"), {})
        assert bindings == {"d": "x"}
        assert pattern.match(Fact("sample", value=5, device="x"), {}) is None

    def test_empty_fact_type_rejected(self):
        with pytest.raises(ValueError):
            Pattern("")

    def test_discriminator_is_the_first_hashable_literal(self):
        assert Pattern("a", x=Var("v"), y=GT(1), z="k", w=2) \
            .discriminator == ("z", "k")
        assert Pattern("a", x=[1], y=EQ(1), z=1).discriminator == ("z", 1)
        assert Pattern("a", x=[1], y=Var("v")).discriminator is None
        assert Pattern("a").discriminator is None
