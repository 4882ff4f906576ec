"""Forward-chaining inference.

The engine repeatedly matches every rule's patterns against working memory
(joins propagate variable bindings across patterns), collects activations,
orders them by salience (then rule-definition order, then fact recency for
determinism), and fires them -- skipping activations whose exact
(rule, fact-tuple) combination has fired before (refractoriness).  Actions
may assert or retract facts; the engine loops until no new activations
appear or ``max_cycles`` trips.

Working memory holds only what the rules can read.  The engine derives
one constant test per pattern, its *discriminator*: the first hashable
literal, such as ``metric="cpu_load"`` or ``kind="high-cpu"``.  Facts
offered through :meth:`InferenceEngine.offer` pass a gate built from
those tests.  A fact of a type no pattern names is never built.  Nor is a
fact that fails every discriminator of its type.  A type with a pattern
that has no discriminator admits every fact.  This is the constant-test
half of Rete (Forgy 1982), hashed as in Doorenbos (1995).  Facts that
actions assert skip the gate.  :meth:`InferenceEngine.admits` reads the
gate, so a caller can skip fetching what it would drop.

Matching is an indexed join recomputed from scratch every cycle.  A
pattern takes its candidates from the memory's shared alpha memory
(:meth:`~repro.rules.facts.WorkingMemory.alpha`): the facts of its type
bucketed by its discriminator's attribute, built once per memory version
for every rule of the run.  A pattern without a discriminator, or an
attribute with an unhashable value, scans every fact of the type.  A
later pattern's candidates are bucketed again by the attributes its
``Var``s share with earlier patterns, so each partial match visits only
the facts whose join values hash equal; an unhashable join value falls
back to scanning.  ``Pattern.match`` decides every candidate (the indexes
only prune), and buckets keep assertion order, so the matches come out
exactly as a nested-loop join over all facts would produce them.  There
is no cross-cycle join state (no beta network): at the reproduction's
scale (hundreds of facts, dozens of rules) recomputing the joins is
cheap and keeps the engine easy to audit.
"""

from repro.rules.conditions import Var
from repro.rules.facts import Fact


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
        self._gate = _gate(self.rules)

    def add_rule(self, rule):
        if any(existing.name == rule.name for existing in self.rules):
            raise ValueError("duplicate rule name %r" % rule.name)
        self.rules.append(rule)
        self._gate = _gate(self.rules)

    def admits(self, fact_type):
        """What the gate admits of ``fact_type``: ``{attr: frozenset}`` of
        literals (a fact needs one of them; ``{}`` when no pattern names
        the type, so nothing passes), or None when every fact passes."""
        if fact_type not in self._gate:
            return {}
        tests = self._gate[fact_type]
        if tests is None:
            return None
        return {attr: frozenset(literals) for attr, literals in tests.items()}

    def offer(self, fact_type, attrs):
        """Assert a fact only if some rule's pattern could match it.

        ``attrs`` becomes the fact's own attribute dict.  Returns the
        stored fact, or None when no pattern of the type admits it (the
        fact is then never built).
        """
        if fact_type not in self._gate:
            return None
        tests = self._gate[fact_type]
        if tests is not None and not _passes(tests, attrs):
            return None
        return self.memory.assert_fact(Fact.owning(fact_type, attrs))

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
        memory = self.memory
        partial = [((), {})]
        for pattern in rule.patterns:
            literal = pattern.discriminator
            alpha = None if literal is None else memory.alpha(
                pattern.fact_type, literal[0])
            if alpha is None:
                candidates = memory.facts(pattern.fact_type)
            else:
                candidates = alpha.get(literal[1], ())
            # Every partial match has bound the same names: each earlier
            # pattern's Vars and bind= name.
            bound = partial[0][1]
            join = [
                (attr, constraint.name)
                for attr, constraint in pattern.constraints.items()
                if isinstance(constraint, Var) and constraint.name in bound
            ]
            if join or len(partial) > 1:
                # Facts the pattern accepts with no bindings: tested once,
                # not once per partial match.
                candidates = [fact for fact in candidates
                              if pattern.match(fact, {}) is not None]
            index = _bucket(candidates, [attr for attr, _ in join]) \
                if join else None
            extended = []
            for facts, bindings in partial:
                bucket = candidates
                if index is not None:
                    try:
                        bucket = index.get(
                            tuple([bindings[name] for _, name in join]), ())
                    except TypeError:
                        pass  # unhashable bound value: scan the candidates
                for fact in bucket:
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


def _gate(rules):
    """The alpha gate of a rule set: fact type -> ``{attr: {literals}}``
    (a fact needs one of its type's literals), or None when some pattern
    of the type has no discriminator (every fact is admitted)."""
    gate = {}
    for rule in rules:
        for pattern in rule.patterns:
            literal = pattern.discriminator
            if literal is None:
                gate[pattern.fact_type] = None
                continue
            tests = gate.setdefault(pattern.fact_type, {})
            if tests is not None:
                tests.setdefault(literal[0], set()).add(literal[1])
    return gate


def _passes(tests, attrs):
    """True when ``attrs`` carries one of the gate's literals."""
    for attr, literals in tests.items():
        if attr in attrs:
            try:
                if attrs[attr] in literals:
                    return True
            except TypeError:
                return True  # an unhashable value may still equal a literal
    return False


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
