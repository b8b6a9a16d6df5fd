"""Values, patterns, guards and constraints for selective receives.

The analysis only needs a decidable ``match(value, constraint)`` predicate;
this module provides one concrete instantiation: finite first-order terms
(integers, atoms, tuples, lists, pid and tag literals), linear patterns with
variables and wildcard, and guards built from comparisons over the pattern
variables. Everything here is immutable and side-effect free: each node is a
``Record``, whose fields are set once, by the constructor ``Record`` gives
its class: the fields' values in order, by position only.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Callable, Optional, Union


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

# A record whose class defines its own __init__ sets each field through
# this, past Record.__setattr__
set_field = object.__setattr__


def _constructor(cls: type, fields: tuple[str, ...]) -> Callable[..., None]:
    """The ``__init__`` of a record class that defines none: it takes one
    value per field, in order and by position only, and sets each through
    its slot's member descriptor. There is one closure per field count."""
    match tuple(getattr(cls, f).__set__ for f in fields):
        case ():
            def __init__(self, /) -> None:
                pass
        case (s0,):
            def __init__(self, v0, /) -> None:
                s0(self, v0)
        case (s0, s1):
            def __init__(self, v0, v1, /) -> None:
                s0(self, v0)
                s1(self, v1)
        case (s0, s1, s2):
            def __init__(self, v0, v1, v2, /) -> None:
                s0(self, v0)
                s1(self, v1)
                s2(self, v2)
        case (s0, s1, s2, s3):
            def __init__(self, v0, v1, v2, v3, /) -> None:
                s0(self, v0)
                s1(self, v1)
                s2(self, v2)
                s3(self, v3)
        case (s0, s1, s2, s3, s4):
            def __init__(self, v0, v1, v2, v3, v4, /) -> None:
                s0(self, v0)
                s1(self, v1)
                s2(self, v2)
                s3(self, v3)
                s4(self, v4)
        case _:
            raise TypeError(f"{cls.__name__} has {len(fields)} fields: a record has at most 5")
    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return __init__


class Record:
    """An immutable value with named fields: a subclass lists them, in
    order, as its ``__slots__``, which also give its ``__match_args__``.

    Records are equal iff they are of the same class with equal fields, and
    equal records hash alike; ``repr`` is ``Name(field=value, ...)``; copy
    and pickle rebuild a record through its class; assigning or deleting a
    field raises AttributeError. Nothing is compiled when a class is built:
    its ``==`` and ``hash`` close over the class and one ``attrgetter`` of
    its fields, as fast as methods compiled per class; ``!=`` is Python's
    default, the inverse of ``==``.

    A class that defines no ``__init__`` is given one, ``_constructor``'s
    closure for its number of fields (at most 5): the values in order, by
    position only. A class that validates, has a default or normalizes its
    values defines its own and sets each field through ``set_field``.
    One closure per field count, not a loop over the fields: the simulator
    and the explorer build records in their inner loops, and with a loop
    explore-gencoll's ``wall_s`` was 6 % longer (33.6 against 31.7 ms
    median, 6 alternating runs, Python 3.11). Parsing builds one record per
    2.6 tokens of the races-fifo trace; its ``setup_s`` moved under 1 %.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__match_args__ = tuple(f for f in cls.__slots__ if f != "__dict__")
        key = attrgetter(*fields) if fields else type  # no fields: the class alone

        def __eq__(self: Record, other: object) -> bool:
            return key(self) == key(other) if other.__class__ is cls else NotImplemented

        def __hash__(self: Record) -> int:
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        if "__init__" not in vars(cls):
            cls.__init__ = _constructor(cls, fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# ---------------------------------------------------------------------------
# Term / pattern nodes
# ---------------------------------------------------------------------------


class Int(Record):
    __slots__ = ("value",)


class Atom(Record):
    __slots__ = ("name",)


class Tup(Record):
    __slots__ = ("items",)  # tuple[Pattern, ...]


class Lst(Record):
    __slots__ = ("items",)  # tuple[Pattern, ...]


class PidLit(Record):
    """A pid appearing inside a message value; never equal to an atom."""

    __slots__ = ("pid",)


class TagLit(Record):
    """A message tag appearing inside a value; never equal to an atom."""

    __slots__ = ("tag",)


class Var(Record):
    __slots__ = ("name",)


class Wildcard(Record):
    __slots__ = ()


# A Term is a ground Pattern (no Var / Wildcard nodes).
Pattern = Union[Int, Atom, Tup, Lst, PidLit, TagLit, Var, Wildcard]
Term = Union[Int, Atom, Tup, Lst, PidLit, TagLit]

Substitution = dict[str, Term]


def is_ground(t: Pattern) -> bool:
    if isinstance(t, (Var, Wildcard)):
        return False
    if isinstance(t, (Tup, Lst)):
        return all(is_ground(x) for x in t.items)
    return True


def pattern_vars(p: Pattern) -> list[str]:
    """Variable names in left-to-right order (with repetitions, if any)."""
    if isinstance(p, Var):
        return [p.name]
    if isinstance(p, (Tup, Lst)):
        out: list[str] = []
        for x in p.items:
            out.extend(pattern_vars(x))
        return out
    return []


def is_linear(p: Pattern) -> bool:
    vs = pattern_vars(p)
    return len(vs) == len(set(vs))


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

CMP_OPS = ("==", "/=", "<", ">", "=<", ">=")


class GTrue(Record):
    __slots__ = ()


class Cmp(Record):
    # op is one of CMP_OPS; lhs a Var, Int or Atom; rhs a Pattern
    __slots__ = ("op", "lhs", "rhs")


class GChain(Record):
    """``first op g op g ...``: the grammar's ``guard`` production, read left
    to right at one precedence level. Each pair in ``rest`` is an op
    (``"and"`` or ``"or"``) and the guard it joins to the value so far.

    ``first`` is never a chain (``(A and B) or C`` is ``A and B or C``), and
    an operand in ``rest`` is a chain only where the text parenthesized it,
    so a guard nests no deeper than its parentheses.
    """

    __slots__ = ("first", "rest")  # Guard, tuple[tuple[str, Guard], ...]


Guard = Union[GTrue, Cmp, GChain]


def guard_vars(g: Guard) -> set[str]:
    if isinstance(g, Cmp):
        return set(pattern_vars(g.lhs) + pattern_vars(g.rhs))
    if isinstance(g, GChain):
        return guard_vars(g.first).union(*(guard_vars(x) for _, x in g.rest))
    return set()


def eval_guard(g: Guard, subst: Substitution) -> bool:
    """Total guard evaluation; never raises on a complete substitution.

    Ordering comparisons are only defined between two integers; any other
    operand combination evaluates to False. Equality is structural.
    """
    if isinstance(g, GTrue):
        return True
    if isinstance(g, GChain):
        value = eval_guard(g.first, subst)
        for op, x in g.rest:
            # `false and x` stays false, `true or x` stays true; else x decides
            if value == (op == "and"):
                value = eval_guard(x, subst)
        return value
    assert isinstance(g, Cmp)
    lhs = _resolve(g.lhs, subst)
    rhs = _resolve(g.rhs, subst)
    if g.op == "==":
        return lhs == rhs
    if g.op == "/=":
        return lhs != rhs
    if isinstance(lhs, Int) and isinstance(rhs, Int):
        if g.op == "<":
            return lhs.value < rhs.value
        if g.op == ">":
            return lhs.value > rhs.value
        if g.op == "=<":
            return lhs.value <= rhs.value
        if g.op == ">=":
            return lhs.value >= rhs.value
    return False


def _resolve(operand: Pattern, subst: Substitution) -> Term:
    if isinstance(operand, Var):
        return subst[operand.name]
    assert is_ground(operand)
    return operand  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


class Clause(Record):
    __slots__ = ("pattern", "guard")


class Constraint(Record):
    # __dict__ keeps text and sort_key, which are not fields
    __slots__ = ("cs_id", "clauses", "__dict__")

    def __init__(self, cs_id: str, clauses: tuple[Clause, ...]) -> None:
        set_field(self, "cs_id", cs_id)
        set_field(self, "clauses", clauses)
        if not self.clauses:
            raise ValueError(f"constraint {self.cs_id} has no clauses")
        for cl in self.clauses:
            if not is_linear(cl.pattern):
                raise ValueError(
                    f"constraint {self.cs_id}: non-linear pattern (repeated variable)"
                )
            extra = guard_vars(cl.guard) - set(pattern_vars(cl.pattern))
            if extra:
                raise ValueError(
                    f"constraint {self.cs_id}: guard uses unbound variable(s) "
                    + ", ".join(sorted(extra))
                )

    @cached_property  # kept in __dict__, not a field: ==, hash and repr skip it
    def text(self) -> str:
        """The canonical text, ``cs_id: clause; clause``, rendered once."""
        return f"{self.cs_id}: " + "; ".join(render_clause(cl) for cl in self.clauses)

    @cached_property
    def sort_key(self) -> tuple:
        """The id's key in canonical order (``parsing.name_order``)."""
        from .parsing import name_order  # parsing imports this module
        return name_order(self.cs_id)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def match_pattern(p: Pattern, v: Term) -> Optional[Substitution]:
    """The unique substitution s with p[s] = v, or None."""
    if isinstance(p, Wildcard):
        return {}
    if isinstance(p, Var):
        return {p.name: v}
    if isinstance(p, Tup) and isinstance(v, Tup) or isinstance(p, Lst) and isinstance(v, Lst):
        if len(p.items) != len(v.items):
            return None
        subst: Substitution = {}
        for pi, vi in zip(p.items, v.items):
            si = match_pattern(pi, vi)
            if si is None:
                return None
            subst.update(si)  # patterns are linear, no clashes possible
        return subst
    return {} if p == v else None


def first_match(v: Term, cs: Constraint) -> Optional[tuple[int, Substitution]]:
    """The first clause whose pattern matches v and whose guard holds: its
    index, with the substitution that binds its pattern to v."""
    for i, cl in enumerate(cs.clauses):
        subst = match_pattern(cl.pattern, v)
        if subst is not None and eval_guard(cl.guard, subst):
            return i, subst
    return None


def match(v: Term, cs: Constraint) -> bool:
    return first_match(v, cs) is not None


# ---------------------------------------------------------------------------
# Rendering (canonical textual form)
# ---------------------------------------------------------------------------


def render_term(t: Pattern) -> str:
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Tup):
        return "{" + ",".join(render_term(x) for x in t.items) + "}"
    if isinstance(t, Lst):
        return "[" + ",".join(render_term(x) for x in t.items) + "]"
    if isinstance(t, PidLit):
        return f"<{t.pid}>"
    if isinstance(t, TagLit):
        return f"#{t.tag}"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Wildcard):
        return "_"
    raise TypeError(f"not a term: {t!r}")


def render_guard(g: Guard) -> str:
    if isinstance(g, GTrue):
        return "true"
    if isinstance(g, Cmp):
        return f"{render_term(g.lhs)} {g.op} {render_term(g.rhs)}"
    # Only an operand in `rest` can be a chain, and only that one takes
    # parentheses: the guard renders with as many as the text it came from.
    parts = [render_guard(g.first)]
    for op, x in g.rest:
        text = render_guard(x)
        parts.append(f"{op} ({text})" if isinstance(x, GChain) else f"{op} {text}")
    return " ".join(parts)


def render_clause(cl: Clause, body: str = ".") -> str:
    head = render_term(cl.pattern)
    if not isinstance(cl.guard, GTrue):
        head += " when " + render_guard(cl.guard)
    return f"{head} -> {body}"

