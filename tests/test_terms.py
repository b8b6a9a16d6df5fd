from hypothesis import given
from hypothesis import strategies as st

from racetrace import (
    Atom,
    Clause,
    Cmp,
    Constraint,
    GChain,
    GTrue,
    Int,
    Lst,
    PidLit,
    TagLit,
    Tup,
    Var,
    Wildcard,
    eval_guard,
    match,
    match_pattern,
)
from racetrace.terms import first_match

CS1 = Constraint(
    "cs1",
    (
        Clause(Tup((Atom("val"), Var("M"))), Cmp(">", Var("M"), Int(0))),
        Clause(Atom("error"), GTrue()),
    ),
)


def val(n):
    return Tup((Atom("val"), Int(n)))


def test_match_pattern_binds_variable():
    assert match_pattern(Tup((Atom("val"), Var("M"))), val(1)) == {"M": Int(1)}


def test_match_pattern_wildcard():
    assert match_pattern(Wildcard(), val(7)) == {}
    assert match_pattern(Wildcard(), Atom("x")) == {}


def test_match_pattern_constructor_mismatch():
    assert match_pattern(Atom("error"), val(0)) is None
    assert match_pattern(Tup((Var("A"),)), Tup((Int(1), Int(2)))) is None
    assert match_pattern(Lst((Var("A"),)), Tup((Int(1),))) is None


def test_match_against_guarded_constraint():
    assert match(val(1), CS1)
    assert not match(val(0), CS1)
    assert match(Atom("error"), CS1)


def test_matching_clause_picks_first():
    assert first_match(val(2), CS1) == (0, {"M": Int(2)})
    assert first_match(Atom("error"), CS1) == (1, {})
    assert first_match(val(0), CS1) is None


def test_literals_distinct_from_atoms():
    assert PidLit("p1") != Atom("p1")
    assert TagLit("l1") != Atom("l1")
    assert match_pattern(Atom("p1"), PidLit("p1")) is None


def test_mixed_kind_ordering_is_false():
    assert not eval_guard(Cmp("<", Atom("a"), Int(1)), {})
    assert not eval_guard(Cmp(">=", Var("X"), Int(0)), {"X": Atom("a")})
    assert eval_guard(Cmp("==", Atom("a"), Atom("a")), {})
    assert eval_guard(Cmp("/=", Atom("a"), Int(1)), {})


def test_guard_connectives():
    # M > 0 and (M == 2 or true)
    g = GChain(
        Cmp(">", Var("M"), Int(0)),
        (("and", GChain(Cmp("==", Var("M"), Int(2)), (("or", GTrue()),))),),
    )
    assert eval_guard(g, {"M": Int(2)})
    assert not eval_guard(g, {"M": Int(0)})
    # M > 0 and M == 2 or true: left to right, so the trailing `or` decides
    flat = GChain(
        Cmp(">", Var("M"), Int(0)), (("and", Cmp("==", Var("M"), Int(2))), ("or", GTrue()))
    )
    assert eval_guard(flat, {"M": Int(0)})


def test_constraint_rejects_nonlinear_pattern():
    try:
        Constraint("c", (Clause(Tup((Var("A"), Var("A"))), GTrue()),))
    except ValueError:
        pass
    else:
        raise AssertionError("non-linear pattern accepted")


def test_constraint_rejects_unbound_guard_var():
    try:
        Constraint("c", (Clause(Var("A"), Cmp(">", Var("B"), Int(0))),))
    except ValueError:
        pass
    else:
        raise AssertionError("guard over unbound variable accepted")


def test_constraint_requires_a_clause():
    try:
        Constraint("c", ())
    except ValueError:
        pass
    else:
        raise AssertionError("empty constraint accepted")


terms_st = st.recursive(
    st.one_of(
        st.integers(-5, 5).map(Int),
        st.sampled_from(["ok", "error", "val"]).map(Atom),
        st.just(PidLit("p1")),
        st.just(TagLit("l1")),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda xs: Tup(tuple(xs))),
        st.lists(inner, max_size=3).map(lambda xs: Lst(tuple(xs))),
    ),
    max_leaves=6,
)


@given(terms_st)
def test_match_coincides_with_matching_clause(v):
    # the first clause whose pattern matches and whose guard holds
    matching = [
        (i, subst)
        for i, cl in enumerate(CS1.clauses)
        if (subst := match_pattern(cl.pattern, v)) is not None and eval_guard(cl.guard, subst)
    ]
    assert first_match(v, CS1) == (matching[0] if matching else None)
    assert match(v, CS1) == bool(matching)


@given(terms_st)
def test_guard_evaluation_is_total(v):
    for op in ("==", "/=", "<", ">", "=<", ">="):
        assert eval_guard(Cmp(op, Var("X"), Int(0)), {"X": v}) in (True, False)


@given(terms_st)
def test_self_match_yields_empty_substitution(v):
    assert match_pattern(v, v) == {}
