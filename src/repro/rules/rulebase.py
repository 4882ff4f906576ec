"""Grouped, extensible knowledge bases.

A :class:`KnowledgeBase` organizes rules into *groups* (knowledge areas:
"performance", "storage", "traffic", "correlation").  Containers in the
processing grid hold different group subsets -- this is the paper's
"Container B has knowledge to analyze W" -- and agents can *learn* new
rules at runtime (user feedback through the interface grid adds rules
here).
"""

from repro.rules.engine import InferenceEngine


class KnowledgeBase:
    """A named collection of rules organized by group."""

    def __init__(self, name="kb"):
        self.name = name
        self._rules = {}       # rule name -> Rule
        self._order = []       # insertion-ordered rule names
        self.learned = []      # names of rules added after construction sealed

    def __len__(self):
        return len(self._rules)

    def __contains__(self, rule_name):
        return rule_name in self._rules

    def add(self, rule):
        """Add a rule; names must be unique."""
        if rule.name in self._rules:
            raise ValueError("rule %r already in knowledge base %s" % (
                rule.name, self.name))
        self._rules[rule.name] = rule
        self._order.append(rule.name)
        return rule

    def learn(self, rule):
        """Add a rule at runtime (the paper's agents 'learning new rules')."""
        self.add(rule)
        self.learned.append(rule.name)
        return rule

    def remove(self, rule_name):
        if rule_name not in self._rules:
            raise KeyError("no rule named %r" % rule_name)
        del self._rules[rule_name]
        self._order.remove(rule_name)

    def rule(self, rule_name):
        return self._rules[rule_name]

    def rules(self, groups=None, max_level=None):
        """Rules filtered by group membership and analysis level."""
        selected = []
        for rule_name in self._order:
            rule = self._rules[rule_name]
            if groups is not None and rule.group not in groups:
                continue
            if max_level is not None and rule.level > max_level:
                continue
            selected.append(rule)
        return selected

    def groups(self):
        return sorted({rule.group for rule in self._rules.values()})

    def merge(self, other):
        """Absorb another knowledge base (the paper's 'shared knowledge').

        Rules with duplicate names are skipped (first writer wins) and the
        list of skipped names is returned, so callers can report conflicts.
        """
        skipped = []
        for rule_name in other._order:
            if rule_name in self._rules:
                skipped.append(rule_name)
                continue
            self.add(other._rules[rule_name])
        return skipped

    def engine_for(self, memory, groups=None, max_level=None, max_cycles=1000):
        """Build an :class:`InferenceEngine` over a rule subset."""
        return InferenceEngine(
            memory, self.rules(groups=groups, max_level=max_level),
            max_cycles=max_cycles,
        )

    def describe(self):
        """A serializable inventory (used in reports and tests)."""
        return {
            "name": self.name,
            "rule_count": len(self._rules),
            "groups": {
                group: [rule.name for rule in self.rules(groups=(group,))]
                for group in self.groups()
            },
            "learned": list(self.learned),
        }

    def __repr__(self):
        return "KnowledgeBase(%r, rules=%d, groups=%s)" % (
            self.name, len(self._rules), self.groups(),
        )
