import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrace import (
    ParseError,
    Rec,
    match,
    name_sort_key,
    parse_trace,
    serialize_trace,
    validate_trace,
)
from racetrace.parsing import (
    MAX_NESTING,
    TokenStream,
    parse_constraint,
    parse_pattern,
    sorted_names,
)
from racetrace.terms import (
    Atom,
    Cmp,
    GChain,
    GTrue,
    Int,
    Lst,
    PidLit,
    TagLit,
    Tup,
    Var,
    Wildcard,
    render_term,
)


def pat(text):
    return parse_pattern(TokenStream(text))


def test_terms_and_patterns():
    assert pat("42") == Int(42)
    assert pat("-3") == Int(-3)
    assert pat("ok") == Atom("ok")
    assert pat("M") == Var("M")
    assert pat("_") == Wildcard()
    assert pat("_tail") == Var("_tail")
    assert pat("{val,1}") == Tup((Atom("val"), Int(1)))
    assert pat("[1,2]") == Lst((Int(1), Int(2)))
    assert pat("{}") == Tup(())
    assert pat("<p1.2>") == PidLit("p1.2")
    assert pat("#l1") == TagLit("l1")


def test_render_parse_roundtrip():
    for text in ("{val,1}", "[{a,1},b]", "<p1.2.1>", "#p3.1", "{}", "[[],{x}]"):
        assert render_term(pat(text)) == text


def test_comments_are_skipped():
    assert pat("% note\n{val,1}") == Tup((Atom("val"), Int(1)))


def test_constraint_parsing_and_rendering():
    text = "cs1: {val,M} when M > 0 -> .; error -> ."
    cs = parse_constraint(TokenStream(text))
    assert cs.cs_id == "cs1"
    assert len(cs.clauses) == 2
    assert cs.clauses[0].guard == Cmp(">", Var("M"), Int(0))
    assert cs.text == text


def test_a_constraint_keeps_its_text_and_sort_key_outside_its_fields():
    text = "cs1: {val,M} when M > 0 -> .; error -> ."
    cs = parse_constraint(TokenStream(text))
    assert (cs.text, cs.sort_key) == (text, (name_sort_key("cs1"), "cs1"))
    assert vars(cs)["text"] is cs.text  # rendered once and kept
    fresh = parse_constraint(TokenStream(text))
    assert "text" not in vars(fresh) and "sort_key" not in vars(fresh)
    assert cs.__match_args__ == ("cs_id", "clauses")  # the record's fields
    assert cs == fresh and hash(cs) == hash(fresh) and repr(cs) == repr(fresh)
    assert {cs: 1}[fresh] == 1


def test_constraints_block_lists_ids_in_canonical_order():
    # c01 and c1 tie under name_sort_key and are ordered by their text;
    # c2 sorts before c10, and the block does not follow the receives
    text = (
        "trace { initial: p1\n"
        "  p1: spawn(p2), rec(l1, c10), rec(l2, c1), rec(l3, c2), rec(l4, c01)\n"
        "  p2: send(l1, {val,1}, p1), send(l2, {val,2}, p1), send(l3, {val,3}, p1), "
        "send(l4, {val,4}, p1) }\n"
        "constraints { c01: {val,M} when M > 0 and M < 5 or M == 9 -> .; error -> .\n"
        "  c1: {val,_} -> .\n"
        "  c2: {val,M} when M >= 2 -> .\n"
        "  c10: {val,X} when X >= 1 -> . }\n"
    )
    t = parse_trace(text)
    ids = [a.cs.cs_id for a in t.procs["p1"] if isinstance(a, Rec)]
    assert ids == ["c10", "c1", "c2", "c01"]
    block = serialize_trace(t).split("constraints { ", 1)[1]
    listed = [line.split(":", 1)[0].strip() for line in block.splitlines()]
    assert listed == sorted_names(ids) == ["c01", "c1", "c2", "c10"]
    assert serialize_trace(t) == text
    assert validate_trace(t) is None


def test_when_true_parses_and_renders_as_no_guard():
    cs = parse_constraint(TokenStream("c: {val,M} when true -> ."))
    assert cs.clauses[0].guard == GTrue()
    assert cs.text == "c: {val,M} -> ."


def guard(text):
    return parse_constraint(TokenStream(f"c: X when {text} -> .")).clauses[0].guard


def test_constraint_guard_connectives():
    text = "c: {val,M} when M > 0 and M < 5 or M == 9 -> ."
    cs = parse_constraint(TokenStream(text))
    # one chain, read left to right: ((M>0 and M<5) or M==9)
    m = Var("M")
    assert cs.clauses[0].guard == GChain(
        Cmp(">", m, Int(0)), (("and", Cmp("<", m, Int(5))), ("or", Cmp("==", m, Int(9))))
    )
    # only a connective on the right keeps its parentheses
    assert cs.text == text
    grouped = parse_constraint(
        TokenStream("c: {val,M} when (M > 0 and M < 5) or (M == 9 or M == 7) -> .")
    )
    assert grouped.text == (
        "c: {val,M} when M > 0 and M < 5 or (M == 9 or M == 7) -> ."
    )
    # a parenthesized chain in first place is spliced in; elsewhere it stays
    # one operand, so these are the equality classes the guard text has
    assert guard("(X > 0 and X < 5) or X == 9") == guard("X > 0 and X < 5 or X == 9")
    assert guard("((X > 0 and X < 5)) or X == 9") == guard("X > 0 and X < 5 or X == 9")
    assert guard("X > 0 and (X < 5 and X == 9)") != guard("X > 0 and X < 5 and X == 9")
    assert guard("(X > 0)") == Cmp(">", Var("X"), Int(0))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        pat("{val,")
    assert err.value.line == 1
    assert err.value.col >= 6


def nested(depth, leaf):
    """`leaf` inside `depth` tuples and lists, alternating."""
    opens = "".join("{["[k % 2] for k in range(depth))
    return opens + leaf + "".join("}]"[k % 2] for k in reversed(range(depth)))


def test_term_at_the_nesting_limit_parses_matches_and_renders():
    text = nested(MAX_NESTING, "a")
    term = pat(text)
    assert render_term(term) == text
    cs = parse_constraint(TokenStream(f"c: {nested(MAX_NESTING, 'X')} -> ."))
    assert match(term, cs)
    trace = (
        f"trace {{ initial: p1\n  p1: send(l1, {text}, p1), rec(l1, c) }}\n"
        f"constraints {{ c: {nested(MAX_NESTING, 'X')} -> . }}\n"
    )
    t = parse_trace(trace)
    assert validate_trace(t) is None
    assert serialize_trace(t) == trace


def test_term_past_the_nesting_limit_is_a_parse_error():
    for text in (
        nested(MAX_NESTING + 1, "a"),
        nested(MAX_NESTING, "{}"),
        nested(MAX_NESTING, "[X]"),
    ):
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}") as err:
            pat(text)
        # at the opening bracket past the limit
        assert (err.value.line, err.value.col) == (1, MAX_NESTING + 1)


OPEN_GUARD = "(X > 0 and "


def parenthesized(depth):
    """A guard whose `and`s nest inside `depth` parentheses."""
    return OPEN_GUARD * depth + "X > 0" + ")" * depth


def test_guard_at_the_nesting_limit_parses_evaluates_and_renders():
    text = f"c: X when X > 0 and {parenthesized(MAX_NESTING)} -> ."
    cs = parse_constraint(TokenStream(text))
    assert cs.text == text
    assert match(Int(1), cs) and not match(Int(0), cs)
    trace = (
        "trace { initial: p1\n  p1: send(l1, 1, p1), rec(l1, c) }\n"
        f"constraints {{ {text} }}\n"
    )
    t = parse_trace(trace)
    assert validate_trace(t) is None
    assert serialize_trace(t) == trace


def test_guard_past_the_nesting_limit_is_a_parse_error():
    text = f"c: X when {parenthesized(MAX_NESTING + 1)} -> ."
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} parentheses") as err:
        parse_constraint(TokenStream(text))
    # at the parenthesis past the limit
    assert (err.value.line, err.value.col) == (
        1, text.index("(") + 1 + len(OPEN_GUARD) * MAX_NESTING
    )


@pytest.mark.parametrize(
    "ops, length",
    [
        pytest.param(ops, length, id="-".join(ops) + ("" if length == 150 else f"-{length}"))
        for length in (150, 3000)
        for ops in (("and",), ("or",), ("and", "or"))
    ],
)
def test_long_guard_chain_round_trips(ops, length):
    chain = "M > 0"
    for i in range(1, length):
        chain += f" {ops[i % len(ops)]} M > {i}"
    text = (
        "trace { initial: p1\n  p1: send(l1, 1, p1), rec(l1, cs1) }\n"
        f"constraints {{ cs1: M when {chain} -> . }}\n"
    )
    t = parse_trace(text)
    assert serialize_trace(t) == text
    assert parse_trace(serialize_trace(t)) == t
    # a chain is one flat node: `==`, `hash` and `repr` do not recurse per term
    cs, again = (parsed.procs["p1"][1].cs for parsed in (t, parse_trace(text)))
    assert cs == again and hash(cs) == hash(again)
    assert repr(cs).startswith("Constraint(cs_id='cs1', clauses=(Clause(")


def test_true_inside_a_guard_chain_round_trips():
    text = (
        "trace { initial: p1\n  p1: send(l1, {val,2}, p1), rec(l1, cs1) }\n"
        "constraints { cs1: {val,X} when X > 1 and true -> . }\n"
    )
    assert serialize_trace(parse_trace(text)) == text


def test_nonlinear_pattern_rejected_in_constraint():
    with pytest.raises(ParseError):
        parse_constraint(TokenStream("c: {A,A} -> ."))


def test_name_sort_key_is_numeric():
    names = ["p1.10", "p1.2", "p2", "p1", "l10", "l2"]
    assert sorted(names, key=name_sort_key) == ["l2", "l10", "p1", "p1.2", "p1.10", "p2"]
    assert name_sort_key("l01") == name_sort_key("l1")
    # past Python's 4 300-digit limit on int() of a digit string
    assert name_sort_key("l" + "9" * 5000) < name_sort_key("l1" + "0" * 5000)
    assert name_sort_key("l" + "0" * 5000 + "1") == name_sort_key("l1")


def test_sorted_names_breaks_sort_key_ties_by_text():
    assert sorted_names(["l1", "l10", "l01", "l2"]) == ["l01", "l1", "l2", "l10"]
    assert sorted_names(["l01", "l1"]) == sorted_names(["l1", "l01"])


def _int_sort_key(name):
    """The key ``name_sort_key`` must agree with: ``int()`` of the digits
    that end each part, -1 for a part without."""
    key = []
    for part in name.split("."):
        alpha = part.rstrip("0123456789")
        digits = part[len(alpha):]
        key.append((alpha, int(digits) if digits else -1))
    return tuple(key)


# a part is letters, then leading zeros, then digits, each possibly empty
_parts = st.tuples(st.sampled_from(["", "l", "p", "cs"]), st.sampled_from(["", "0", "00"]),
                   st.text("0123456789", max_size=3)).map("".join)
_names = st.lists(_parts, min_size=1, max_size=3).map(".".join)


@settings(max_examples=300, deadline=None)
@given(_names, _names)
def test_name_sort_key_orders_like_int_of_the_digits(a, b):
    key_a, key_b = name_sort_key(a), name_sort_key(b)
    ref_a, ref_b = _int_sort_key(a), _int_sort_key(b)
    assert (key_a < key_b) == (ref_a < ref_b)
    assert (key_a == key_b) == (ref_a == ref_b)


def _nested_sort_key(name):
    """The key as one tuple per part, which ``name_sort_key`` flattens: the
    reference it must order alike."""
    key = []
    for part in name.split("."):
        alpha = part.rstrip("0123456789")
        digits = part[len(alpha):]
        number = digits.lstrip("0")
        key.append((alpha, len(number) if digits else -1, number))
    return tuple(key)


@settings(max_examples=200, deadline=None)
@given(st.lists(_names, max_size=8))
def test_flat_sort_key_orders_like_one_tuple_per_part(names):
    assert sorted(names, key=name_sort_key) == sorted(names, key=_nested_sort_key)
    for a, b in zip(names, names[1:]):
        key_a, key_b = name_sort_key(a), name_sort_key(b)
        ref_a, ref_b = _nested_sort_key(a), _nested_sort_key(b)
        assert (key_a < key_b) == (ref_a < ref_b)
        assert (key_a == key_b) == (ref_a == ref_b)


def test_sorting_deep_names_keeps_one_key_tuple_per_name():
    # 1 000 pids p1.2, p1.2.1, p1.2.1.1, ... of up to 1 000 parts, like a
    # spawn chain's: a tuple per part made the sort peak at 34.5 MiB
    names = ["p1.2" + ".1" * k for k in range(1000)]
    tracemalloc.start()
    try:
        assert sorted_names(reversed(names)) == names
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
