"""Condition DSL for rule patterns.

A :class:`Pattern` matches facts of one type whose attributes satisfy
constraints.  A constraint is a literal (equality), a predicate object
(:func:`GT`, :func:`BETWEEN`, ...), or a :class:`Var` which binds the
attribute's value into the rule's binding environment -- occurrences of the
same variable across patterns must agree, giving joins::

    Pattern("sample", metric="cpu_load", value=GT(90), device=Var("d"))
    Pattern("sample", metric="mem_available", value=LT(1000), device=Var("d"))

matches a high-CPU sample and a low-memory sample from the *same* device.
"""


class Predicate:
    """Base class for attribute predicates."""

    def check(self, value):
        raise NotImplementedError

    def __call__(self, value):
        return self.check(value)


class _Compare(Predicate):
    op_name = "?"

    def __init__(self, bound):
        self.bound = bound

    def __repr__(self):
        return "%s(%r)" % (self.op_name, self.bound)


class _EQ(_Compare):
    op_name = "EQ"

    def check(self, value):
        return value == self.bound


class _NE(_Compare):
    op_name = "NE"

    def check(self, value):
        return value != self.bound


class _GT(_Compare):
    op_name = "GT"

    def check(self, value):
        return value is not None and value > self.bound


class _GE(_Compare):
    op_name = "GE"

    def check(self, value):
        return value is not None and value >= self.bound


class _LT(_Compare):
    op_name = "LT"

    def check(self, value):
        return value is not None and value < self.bound


class _LE(_Compare):
    op_name = "LE"

    def check(self, value):
        return value is not None and value <= self.bound


class _BETWEEN(Predicate):
    def __init__(self, low, high):
        if low > high:
            raise ValueError("BETWEEN bounds out of order")
        self.low = low
        self.high = high

    def check(self, value):
        return value is not None and self.low <= value <= self.high

    def __repr__(self):
        return "BETWEEN(%r, %r)" % (self.low, self.high)


class _IN(Predicate):
    def __init__(self, options):
        self.options = frozenset(options)

    def check(self, value):
        try:
            return value in self.options
        except TypeError:
            return False

    def __repr__(self):
        return "IN(%r)" % sorted(self.options, key=repr)


class _CONTAINS(Predicate):
    def __init__(self, member):
        self.member = member

    def check(self, value):
        try:
            return self.member in value
        except TypeError:
            return False

    def __repr__(self):
        return "CONTAINS(%r)" % (self.member,)


class _PRED(Predicate):
    def __init__(self, function, label="custom"):
        self.function = function
        self.label = label

    def check(self, value):
        return bool(self.function(value))

    def __repr__(self):
        return "PRED(%s)" % self.label


def EQ(bound):
    return _EQ(bound)


def NE(bound):
    return _NE(bound)


def GT(bound):
    return _GT(bound)


def GE(bound):
    return _GE(bound)


def LT(bound):
    return _LT(bound)


def LE(bound):
    return _LE(bound)


def BETWEEN(low, high):
    return _BETWEEN(low, high)


def IN(*options):
    if len(options) == 1 and isinstance(options[0], (list, tuple, set, frozenset)):
        options = tuple(options[0])
    return _IN(options)


def CONTAINS(member):
    return _CONTAINS(member)


def PRED(function, label="custom"):
    return _PRED(function, label)


class Var:
    """A binding variable; same name must bind consistently across patterns."""

    __slots__ = ("name",)

    def __init__(self, name):
        if not name:
            raise ValueError("variable name must be non-empty")
        self.name = name

    def __repr__(self):
        return "Var(%r)" % self.name


class Pattern:
    """A single-fact condition.

    Args:
        fact_type: type of fact this pattern matches.
        bind: optional variable name to bind the whole matched fact.
        **constraints: attribute name -> literal / Predicate / Var.
    """

    def __init__(self, fact_type, bind=None, **constraints):
        if not fact_type:
            raise ValueError("fact_type must be non-empty")
        self.fact_type = fact_type
        self.bind = bind
        self.constraints = constraints

    def match(self, fact, bindings):
        """Match one fact under existing bindings.

        Returns an extended bindings dict, or None on mismatch.  The input
        dict is never mutated.
        """
        if fact.type != self.fact_type:
            return None
        new_bindings = None
        for name, constraint in self.constraints.items():
            if name not in fact:
                return None
            value = fact[name]
            if isinstance(constraint, Var):
                current = (new_bindings or bindings).get(constraint.name, _MISSING)
                if current is _MISSING:
                    if new_bindings is None:
                        new_bindings = dict(bindings)
                    new_bindings[constraint.name] = value
                elif current != value:
                    return None
            elif isinstance(constraint, Predicate):
                if not constraint.check(value):
                    return None
            else:
                if value != constraint:
                    return None
        result = new_bindings if new_bindings is not None else dict(bindings)
        if self.bind is not None:
            result[self.bind] = fact
        return result

    def __repr__(self):
        inner = ", ".join(
            "%s=%r" % (name, constraint)
            for name, constraint in sorted(self.constraints.items())
        )
        return "Pattern(%s: %s)" % (self.fact_type, inner)


_MISSING = object()
