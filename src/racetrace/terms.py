"""Values, patterns, guards and constraints for selective receives.

The analysis only needs a decidable ``match(value, constraint)`` predicate;
this module provides one concrete instantiation: finite first-order terms
(integers, atoms, tuples, lists, pid and tag literals), linear patterns with
variables and wildcard, and guards built from comparisons over the pattern
variables. Everything here is immutable and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Term / pattern nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Int:
    value: int


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Tup:
    items: tuple["Pattern", ...]


@dataclass(frozen=True)
class Lst:
    items: tuple["Pattern", ...]


@dataclass(frozen=True)
class PidLit:
    """A pid appearing inside a message value; never equal to an atom."""

    pid: str


@dataclass(frozen=True)
class TagLit:
    """A message tag appearing inside a value; never equal to an atom."""

    tag: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Wildcard:
    pass


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


@dataclass(frozen=True)
class GTrue:
    pass


@dataclass(frozen=True)
class Cmp:
    op: str  # one of CMP_OPS
    lhs: Pattern  # Var, Int or Atom
    rhs: Pattern


@dataclass(frozen=True)
class GChain:
    """``first op g op g ...``: the grammar's ``guard`` production, read left
    to right at one precedence level. Each pair in ``rest`` is an op
    (``"and"`` or ``"or"``) and the guard it joins to the value so far.

    ``first`` is never a chain (``(A and B) or C`` is ``A and B or C``), and
    an operand in ``rest`` is a chain only where the text parenthesized it,
    so a guard nests no deeper than its parentheses.
    """

    first: "Guard"
    rest: tuple[tuple[str, "Guard"], ...]


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


@dataclass(frozen=True)
class Clause:
    pattern: Pattern
    guard: Guard


@dataclass(frozen=True)
class Constraint:
    cs_id: str
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
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

