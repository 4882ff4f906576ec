"""Forward-chaining inference.

The engine repeatedly matches every rule's patterns against working memory
(joins propagate variable bindings across patterns), collects activations,
orders them by salience (then rule-definition order, then fact recency for
determinism), and fires them -- skipping activations whose exact
(rule, fact-tuple) combination has fired before (refractoriness).  Actions
may assert or retract facts; the engine loops until no new activations
appear or ``max_cycles`` trips.

Matching is an indexed join recomputed from scratch every cycle.  Each
pattern's facts are filtered once per pass (its *alpha list*: the facts
the pattern accepts with no bindings).  A later pattern's alpha list is
bucketed in a dict keyed by the attributes its ``Var``s share with earlier
patterns, so each partial match visits only the facts whose join values
hash equal instead of every fact of the type.  ``Pattern.match`` still
decides every match (the index only prunes candidates), buckets keep
assertion order, and an unhashable join value falls back to scanning the
alpha list -- so the matches come out exactly as a nested-loop join would
produce them.  There is no cross-cycle state (no Rete network): at the
reproduction's scale (thousands of facts, dozens of rules) recomputing is
cheap and keeps the engine easy to audit.
"""

from repro.rules.conditions import Var


class Rule:
    """A production rule.

    Args:
        name: unique rule name within its knowledge base.
        patterns: list of :class:`~repro.rules.conditions.Pattern`; all must
            match (conjunction) with consistent variable bindings.
        action: callable ``action(context)`` run on firing.
        salience: higher fires first within a cycle.
        group: knowledge-area tag ("performance", "traffic", ...); used by
            the grids to give containers different rule subsets.
        level: the paper's analysis level (1 = per-batch, 2 = consolidation
            against history, 3 = cross-device correlation).
    """

    def __init__(self, name, patterns, action, salience=0, group="default", level=1):
        if not patterns:
            raise ValueError("rule %r needs at least one pattern" % name)
        if level not in (1, 2, 3):
            raise ValueError("level must be 1, 2 or 3")
        self.name = name
        self.patterns = list(patterns)
        self.action = action
        self.salience = salience
        self.group = group
        self.level = level

    def __repr__(self):
        return "Rule(%r, group=%s, level=%d, salience=%d)" % (
            self.name, self.group, self.level, self.salience,
        )


class RuleContext:
    """What an action sees when its rule fires."""

    def __init__(self, engine, rule, facts, bindings):
        self.engine = engine
        self.rule = rule
        self.facts = facts
        self.bindings = bindings

    def __getitem__(self, variable_name):
        return self.bindings[variable_name]

    def get(self, variable_name, default=None):
        return self.bindings.get(variable_name, default)

    def assert_fact(self, fact_type, **attrs):
        """Assert a derived fact into working memory."""
        return self.engine.memory.assert_new(fact_type, **attrs)

    def retract(self, fact):
        return self.engine.memory.retract(fact)

    def __repr__(self):
        return "RuleContext(%s)" % self.rule.name


class _Activation:
    __slots__ = ("rule", "rule_index", "facts", "bindings", "key")

    def __init__(self, rule, rule_index, facts, bindings):
        self.rule = rule
        self.rule_index = rule_index
        self.facts = facts
        self.bindings = bindings
        self.key = (rule.name, tuple(fact.id for fact in facts))

    def sort_key(self):
        recency = tuple(-fact.id for fact in self.facts)
        return (-self.rule.salience, self.rule_index, recency)


class InferenceEngine:
    """Runs a rule set to quiescence over a working memory."""

    def __init__(self, memory, rules=(), max_cycles=1000):
        self.memory = memory
        self.rules = list(rules)
        self.max_cycles = max_cycles
        self.fired = []          # list of (rule_name, bindings) in fire order
        self._fired_keys = set()
        self.cycles_run = 0

    def add_rule(self, rule):
        if any(existing.name == rule.name for existing in self.rules):
            raise ValueError("duplicate rule name %r" % rule.name)
        self.rules.append(rule)

    def run(self):
        """Fire rules until quiescent; returns number of firings."""
        fired_before = len(self.fired)
        for _ in range(self.max_cycles):
            self.cycles_run += 1
            activations = self._match_all()
            runnable = [
                activation
                for activation in activations
                if activation.key not in self._fired_keys
            ]
            if not runnable:
                return len(self.fired) - fired_before
            runnable.sort(key=_Activation.sort_key)
            version_before = self.memory.version
            for activation in runnable:
                if activation.key in self._fired_keys:
                    continue
                self._fired_keys.add(activation.key)
                self.fired.append((activation.rule.name, activation.bindings))
                context = RuleContext(
                    self, activation.rule, activation.facts, activation.bindings
                )
                activation.rule.action(context)
                if self.memory.version != version_before:
                    # Memory changed: recompute activations for soundness.
                    break
        raise RuntimeError(
            "inference did not quiesce within %d cycles" % self.max_cycles
        )

    def _match_all(self):
        activations = []
        for rule_index, rule in enumerate(self.rules):
            for facts, bindings in self._match_rule(rule):
                activations.append(_Activation(rule, rule_index, facts, bindings))
        return activations

    def _match_rule(self, rule):
        """Return [(facts_tuple, bindings)] for every full join of the rule,
        in nested-loop order (partial matches outer, facts in assertion
        order inner)."""
        partial = [((), {})]
        for pattern in rule.patterns:
            alpha = [
                fact for fact in self.memory.facts(pattern.fact_type)
                if pattern.match(fact, {}) is not None
            ]
            # Every partial match has bound the same names: each earlier
            # pattern's Vars and bind= name.
            bound = partial[0][1]
            join = [
                (attr, constraint.name)
                for attr, constraint in pattern.constraints.items()
                if isinstance(constraint, Var) and constraint.name in bound
            ]
            index = _bucket(alpha, [attr for attr, _ in join]) if join else None
            extended = []
            for facts, bindings in partial:
                candidates = alpha
                if index is not None:
                    try:
                        candidates = index.get(
                            tuple([bindings[name] for _, name in join]), ())
                    except TypeError:
                        pass  # unhashable bound value: scan the alpha list
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

    def __repr__(self):
        return "InferenceEngine(rules=%d, fired=%d)" % (len(self.rules), len(self.fired))


def _bucket(facts, attrs):
    """Group ``facts`` by their values of ``attrs``, keeping order.

    Returns None when a value is unhashable; the caller then scans.
    """
    index = {}
    try:
        for fact in facts:
            index.setdefault(tuple([fact[attr] for attr in attrs]), []).append(fact)
    except TypeError:
        return None
    return index
