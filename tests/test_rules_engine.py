"""Unit tests for the inference engine and knowledge bases."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rules.conditions import CONTAINS, EQ, GT, IN, NE, Pattern, Var
from repro.rules.engine import InferenceEngine, Rule
from repro.rules.facts import Fact, WorkingMemory
from repro.rules.rulebase import KnowledgeBase
from repro.rules import stdlib


def _mark(tag):
    def action(context):
        context.assert_fact("marker", tag=tag, device=context.get("d", ""))
    return action


def nested_loop_match(memory, rule):
    """The plain nested-loop join: every partial match against every fact
    of the pattern's type.  Oracle for the engine's indexed join."""
    partial = [((), {})]
    for pattern in rule.patterns:
        candidates = memory.facts(pattern.fact_type)
        extended = []
        for facts, bindings in partial:
            for fact in candidates:
                if any(existing is fact for existing in facts):
                    continue  # a fact may satisfy only one pattern slot
                new_bindings = pattern.match(fact, bindings)
                if new_bindings is not None:
                    extended.append((facts + (fact,), new_bindings))
        if not extended:
            return []
        partial = extended
    return partial


class NestedLoopEngine(InferenceEngine):
    def _match_rule(self, rule):
        return nested_loop_match(self.memory, rule)


def _matches(pairs):
    """(fact ids, bindings items) per match; values compare by identity
    first, so a shared NaN object equals itself."""
    return [(tuple(fact.id for fact in facts), list(bindings.items()))
            for facts, bindings in pairs]


def _normal(value):
    """A memory-independent form of a binding value."""
    if isinstance(value, Fact):
        return ("fact", value.asserted_at)
    return (type(value).__name__, repr(value))


def _memory(specs):
    ticks = itertools.count()  # asserted_at = assertion order
    memory = WorkingMemory(clock=lambda: next(ticks))
    for fact_type, attrs in specs:
        memory.assert_new(fact_type, **attrs)
    return memory


_SHARED_NAN = float("nan")
_VALUES = st.one_of(
    st.sampled_from([0, 1, 1.0, True, 2, "a", None, _SHARED_NAN, [1], (1,)]),
    st.builds(float, st.just("nan")),  # a fresh NaN object
)
_ATTRS = st.sampled_from(("x", "y", "z"))
_FACT_SPECS = st.lists(
    st.tuples(st.sampled_from(("a", "b")),
              st.dictionaries(_ATTRS, _VALUES, max_size=3)),
    max_size=12,
)
_CONSTRAINTS = st.one_of(
    _VALUES,
    st.sampled_from([EQ(1), NE(0), IN(1, "a"), CONTAINS(1)]),
    st.sampled_from(("v", "w", "p0", "p1", "p2")).map(Var),
)


@st.composite
def _patterns(draw):
    """1-3 patterns; pattern i may bind its fact as ``p<i>``, which a
    later pattern's ``Var("p<i>")`` then joins on."""
    return [
        Pattern(
            draw(st.sampled_from(("a", "b"))),
            bind=draw(st.sampled_from((None, "p%d" % index))),
            **draw(st.dictionaries(_ATTRS, _CONSTRAINTS, max_size=3))
        )
        for index in range(draw(st.integers(1, 3)))
    ]


class TestEngine:
    def test_single_pattern_fires_per_fact(self):
        memory = WorkingMemory()
        memory.assert_new("sample", device="d1", value=95)
        memory.assert_new("sample", device="d2", value=10)
        rule = Rule("hot", [Pattern("sample", value=GT(90), device=Var("d"))],
                    _mark("hot"))
        engine = InferenceEngine(memory, [rule])
        assert engine.run() == 1
        markers = memory.facts("marker")
        assert len(markers) == 1
        assert markers[0]["device"] == "d1"

    def test_join_across_patterns(self):
        memory = WorkingMemory()
        memory.assert_new("a", device="d1")
        memory.assert_new("b", device="d1")
        memory.assert_new("b", device="d2")
        rule = Rule("join", [
            Pattern("a", device=Var("d")),
            Pattern("b", device=Var("d")),
        ], _mark("joined"))
        engine = InferenceEngine(memory, [rule])
        assert engine.run() == 1

    def test_refractoriness_prevents_refire(self):
        memory = WorkingMemory()
        memory.assert_new("sample", device="d1", value=95)
        rule = Rule("hot", [Pattern("sample", value=GT(90))], _mark("hot"))
        engine = InferenceEngine(memory, [rule])
        assert engine.run() == 1
        assert engine.run() == 0

    def test_chaining_derived_facts_trigger_rules(self):
        memory = WorkingMemory()
        memory.assert_new("sample", device="d1", value=95)

        def derive(context):
            context.assert_fact("alarm", device="d1")

        rules = [
            Rule("first", [Pattern("sample", value=GT(90))], derive),
            Rule("second", [Pattern("alarm", device=Var("d"))], _mark("esc")),
        ]
        engine = InferenceEngine(memory, rules)
        fired = engine.run()
        assert fired == 2
        assert memory.count("marker") == 1

    def test_salience_orders_firing(self):
        memory = WorkingMemory()
        memory.assert_new("sample", x=1)
        order = []
        low = Rule("low", [Pattern("sample")],
                   lambda c: order.append("low"), salience=0)
        high = Rule("high", [Pattern("sample")],
                    lambda c: order.append("high"), salience=10)
        engine = InferenceEngine(memory, [low, high])
        engine.run()
        assert order == ["high", "low"]

    def test_retraction_inside_action(self):
        memory = WorkingMemory()
        fact = memory.assert_new("sample", x=1)

        def consume(context):
            context.retract(fact)

        rule = Rule("eat", [Pattern("sample")], consume)
        engine = InferenceEngine(memory, [rule])
        engine.run()
        assert memory.count("sample") == 0

    def test_one_fact_cannot_fill_two_slots(self):
        memory = WorkingMemory()
        memory.assert_new("problem", kind="high-cpu", device="d1")
        rule = Rule("pair", [
            Pattern("problem", kind="high-cpu", bind="p1"),
            Pattern("problem", kind="high-cpu", bind="p2"),
        ], _mark("pair"))
        engine = InferenceEngine(memory, [rule])
        assert engine.run() == 0

    def test_nonquiescence_guard(self):
        memory = WorkingMemory()
        memory.assert_new("seed", n=0)
        counter = [0]

        def runaway(context):
            counter[0] += 1
            context.assert_fact("seed", n=counter[0])

        rule = Rule("runaway", [Pattern("seed", n=Var("n"))], runaway)
        engine = InferenceEngine(memory, [rule], max_cycles=10)
        with pytest.raises(RuntimeError):
            engine.run()

    def test_duplicate_rule_names_rejected(self):
        memory = WorkingMemory()
        engine = InferenceEngine(memory, [
            Rule("r", [Pattern("a")], lambda c: None),
        ])
        with pytest.raises(ValueError):
            engine.add_rule(Rule("r", [Pattern("b")], lambda c: None))

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule("empty", [], lambda c: None)
        with pytest.raises(ValueError):
            Rule("bad-level", [Pattern("a")], lambda c: None, level=7)


class TestIndexedJoin:
    """The indexed join returns exactly the nested-loop join's matches."""

    def _check(self, memory, patterns):
        rule = Rule("r", patterns, lambda context: None)
        matches = InferenceEngine(memory, [rule])._match_rule(rule)
        assert _matches(matches) == _matches(nested_loop_match(memory, rule))
        return matches

    def test_unhashable_join_value_falls_back_to_scan(self):
        memory = WorkingMemory()
        memory.assert_new("a", x=[1])
        memory.assert_new("b", x=[1])
        memory.assert_new("b", x=[2])
        # Unhashable candidate values (no index is built), then an
        # unhashable bound value (the lookup raises): both scan.
        matches = self._check(memory, [
            Pattern("a", x=Var("v")), Pattern("b", x=Var("v")),
        ])
        assert [facts[1]["x"] for facts, _ in matches] == [[1]]
        memory.assert_new("c", x=1)
        matches = self._check(memory, [
            Pattern("a", x=Var("v")), Pattern("c", x=Var("v")),
        ])
        assert matches == []

    def test_int_joins_equal_float_and_bool(self):
        memory = WorkingMemory()
        memory.assert_new("a", x=1)
        memory.assert_new("b", x=1.0, kind="float")
        memory.assert_new("b", x=2, kind="int")
        memory.assert_new("b", x=True, kind="bool")
        matches = self._check(memory, [
            Pattern("a", x=Var("v")), Pattern("b", x=Var("v")),
        ])
        assert [facts[1]["kind"] for facts, _ in matches] == ["float", "bool"]

    def test_bind_name_joins_on_fact_identity(self):
        memory = WorkingMemory()
        target = memory.assert_new("a", n=1)
        lookalike = Fact("a", n=1)  # same content, never asserted
        memory.assert_new("b", ref=lookalike, tag="other")
        memory.assert_new("b", ref=target, tag="mine")
        matches = self._check(memory, [
            Pattern("a", bind="p"), Pattern("b", ref=Var("p")),
        ])
        assert [facts[1]["tag"] for facts, _ in matches] == ["mine"]
        assert matches[0][1]["p"] is target

    def test_indexed_fact_cannot_fill_two_slots(self):
        memory = WorkingMemory()
        first = memory.assert_new("a", x=1, y=1)
        second = memory.assert_new("a", x=1, y=2)
        matches = self._check(memory, [
            Pattern("a", x=Var("v")), Pattern("a", x=Var("v")),
        ])
        assert [facts for facts, _ in matches] == [
            (first, second), (second, first)]

    @settings(max_examples=300, deadline=None)
    @given(specs=_FACT_SPECS, patterns=_patterns())
    def test_matches_equal_nested_loop(self, specs, patterns):
        self._check(_memory(specs), patterns)

    @settings(max_examples=150, deadline=None)
    @given(specs=_FACT_SPECS,
           rule_patterns=st.lists(_patterns(), min_size=1, max_size=3))
    def test_run_fires_like_nested_loop(self, specs, rule_patterns):
        def derive(index):
            def action(context):
                context.assert_fact("a", x=context.get("v", 0), y=index)
            return action

        outcomes = []
        for engine_class in (InferenceEngine, NestedLoopEngine):
            memory = _memory(specs)
            rules = [Rule("r%d" % index, patterns, derive(index))
                     for index, patterns in enumerate(rule_patterns)]
            engine = engine_class(memory, rules)
            engine.run()
            outcomes.append((
                [(name, [(var, _normal(value))
                         for var, value in bindings.items()])
                 for name, bindings in engine.fired],
                engine.cycles_run,
                [(fact.asserted_at, repr(fact)) for fact in memory.facts()],
            ))
        assert outcomes[0] == outcomes[1]


class TestKnowledgeBase:
    def test_groups_and_levels_filter(self):
        kb = stdlib.standard_knowledge_base()
        perf = kb.rules(groups=("performance",))
        assert all(rule.group == "performance" for rule in perf)
        shallow = kb.rules(max_level=1)
        assert all(rule.level == 1 for rule in shallow)

    def test_learn_tracks_runtime_rules(self):
        kb = KnowledgeBase("kb")
        rule = Rule("learned", [Pattern("a")], lambda c: None)
        kb.learn(rule)
        assert "learned" in kb
        assert kb.learned == ["learned"]
        assert kb.describe()["learned"] == ["learned"]

    def test_duplicate_add_rejected(self):
        kb = KnowledgeBase()
        kb.add(Rule("r", [Pattern("a")], lambda c: None))
        with pytest.raises(ValueError):
            kb.add(Rule("r", [Pattern("b")], lambda c: None))

    def test_remove(self):
        kb = KnowledgeBase()
        kb.add(Rule("r", [Pattern("a")], lambda c: None))
        kb.remove("r")
        assert "r" not in kb
        with pytest.raises(KeyError):
            kb.remove("r")

    def test_merge_skips_duplicates(self):
        kb_a = KnowledgeBase("a")
        kb_b = KnowledgeBase("b")
        kb_a.add(Rule("shared", [Pattern("x")], lambda c: None))
        kb_b.add(Rule("shared", [Pattern("x")], lambda c: None))
        kb_b.add(Rule("unique", [Pattern("y")], lambda c: None))
        skipped = kb_a.merge(kb_b)
        assert skipped == ["shared"]
        assert "unique" in kb_a

    def test_engine_for_builds_filtered_engine(self):
        kb = stdlib.standard_knowledge_base()
        memory = WorkingMemory()
        engine = kb.engine_for(memory, groups=("traffic",))
        assert all(rule.group == "traffic" for rule in engine.rules)


class TestStdlibRules:
    def _memory_with(self, *facts):
        memory = WorkingMemory()
        for fact_type, attrs in facts:
            memory.assert_new(fact_type, **attrs)
        return memory

    def test_high_cpu_detection(self):
        memory = self._memory_with((
            "sample",
            dict(device="d1", site="s", group="performance",
                 metric="cpu_load", value=99.0, time=1.0),
        ))
        engine = InferenceEngine(memory, [stdlib.high_cpu_rule(90)])
        engine.run()
        problems = memory.facts("problem")
        assert len(problems) == 1
        assert problems[0]["kind"] == "high-cpu"
        assert problems[0]["value"] == 99.0

    def test_threshold_not_crossed_no_problem(self):
        memory = self._memory_with((
            "sample",
            dict(device="d1", site="s", group="performance",
                 metric="cpu_load", value=50.0, time=1.0),
        ))
        engine = InferenceEngine(memory, [stdlib.high_cpu_rule(90)])
        engine.run()
        assert memory.count("problem") == 0

    def test_interface_down_detection(self):
        memory = self._memory_with((
            "sample",
            dict(device="r1", site="s", group="traffic",
                 metric="if_oper_status", value=2, instance=3, time=1.0),
        ))
        engine = InferenceEngine(memory, [stdlib.interface_down_rule()])
        engine.run()
        problems = memory.facts("problem")
        assert problems[0]["kind"] == "interface-down"
        assert problems[0]["value"] == 3

    def test_traffic_surge_needs_baseline(self):
        memory = self._memory_with(
            ("sample", dict(device="r1", site="s", group="traffic",
                            metric="if_in_rate", value=100000, time=1.0,
                            instance=1)),
        )
        engine = InferenceEngine(memory, [stdlib.traffic_surge_rule(3.0)])
        engine.run()
        assert memory.count("problem") == 0
        memory.assert_new("baseline", device="r1", metric="if_in_rate",
                          instance=1, mean=1000.0, maximum=2000.0)
        engine.run()
        assert memory.count("problem") == 1

    def test_traffic_surge_below_factor_quiet(self):
        memory = self._memory_with(
            ("sample", dict(device="r1", site="s", group="traffic",
                            metric="if_in_rate", value=2000, time=1.0,
                            instance=1)),
            ("baseline", dict(device="r1", metric="if_in_rate",
                              instance=1, mean=1000.0, maximum=2000.0)),
        )
        engine = InferenceEngine(memory, [stdlib.traffic_surge_rule(3.0)])
        engine.run()
        assert memory.count("problem") == 0

    def test_site_overload_fires_once_per_pair(self):
        memory = self._memory_with(
            ("problem", dict(kind="high-cpu", severity="major", device="d1",
                             site="s", value=95, metric="cpu_load")),
            ("problem", dict(kind="high-cpu", severity="major", device="d2",
                             site="s", value=96, metric="cpu_load")),
        )
        engine = InferenceEngine(memory, [stdlib.site_overload_rule()])
        engine.run()
        incidents = memory.facts("incident")
        assert len(incidents) == 1
        assert incidents[0]["devices"] == ("d1", "d2")

    def test_cascade_failure_requires_distinct_devices(self):
        memory = self._memory_with(
            ("problem", dict(kind="interface-down", severity="critical",
                             device="r1", site="s", value=1,
                             metric="if_oper_status")),
            ("problem", dict(kind="traffic-surge", severity="minor",
                             device="r1", site="s", value=9,
                             metric="if_in_rate")),
        )
        engine = InferenceEngine(memory, [stdlib.cascade_failure_rule()])
        engine.run()
        assert memory.count("incident") == 0

    def test_resource_exhaustion_joins_two_problems(self):
        memory = self._memory_with(
            ("problem", dict(kind="low-disk", severity="major", device="d1",
                             site="s", value=10, metric="disk_free")),
            ("problem", dict(kind="low-memory", severity="minor", device="d1",
                             site="s", value=10, metric="mem_available")),
        )
        engine = InferenceEngine(memory, [stdlib.resource_exhaustion_rule()])
        engine.run()
        assert memory.count("incident") == 1

    def test_standard_kb_inventory(self):
        kb = stdlib.standard_knowledge_base()
        description = kb.describe()
        assert description["rule_count"] == len(kb) == 15
        assert set(description["groups"]) == {
            "performance", "storage", "traffic", "correlation",
        }

    def test_custom_thresholds_respected(self):
        kb = stdlib.standard_knowledge_base(thresholds={"cpu_percent": 10.0})
        memory = self._memory_with((
            "sample",
            dict(device="d1", site="s", group="performance",
                 metric="cpu_load", value=50.0, time=1.0),
        ))
        engine = kb.engine_for(memory, groups=("performance",))
        engine.run()
        assert memory.count("problem") == 1
