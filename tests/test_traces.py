import itertools
import sys
import tracemalloc

import pytest
from hypothesis import given, settings

from racetrace import (
    Event,
    Interleaving,
    Rec,
    Send,
    Spawn,
    Trace,
    Violation,
    enumerate_linearizations,
    is_subtrace,
    linearize,
    parse_interleaving,
    parse_program,
    parse_trace,
    run_random,
    serialize_interleaving,
    serialize_trace,
    tr,
    validate_interleaving,
    validate_trace,
)
from racetrace import parsing
from racetrace import traces as traces_module
from racetrace.parsing import ParseError
from racetrace.terms import Atom, Constraint, Int, Tup, match, render_term

import reference_writers
from conftest import fixture_text
from strategies import CS_ANY, CS_POS, interleavings, traces
from test_explorer import NEVER_STOPPING


def val(n):
    return Tup((Atom("val"), Int(n)))


# ---------------------------------------------------------------------------
# Interleaving validation
# ---------------------------------------------------------------------------


def test_fixture_interleavings_valid(s_a, s_b):
    assert validate_interleaving(s_a) is None
    assert validate_interleaving(s_b) is None


def test_oldest_matching_message_rule(s_bad):
    bad = validate_interleaving(s_bad)
    assert bad is not None and bad.condition == "3"


def test_receive_without_send_is_condition_2():
    s = Interleaving("p1", (Event("p1", Rec("l1", CS_ANY)),))
    bad = validate_interleaving(s)
    assert bad is not None and bad.condition == "2"


def test_act_before_spawn_is_condition_1():
    s = Interleaving("p1", (Event("p2", Send("l1", val(1), "p1")),))
    bad = validate_interleaving(s)
    assert bad is not None and bad.condition == "1"
    # spawned only after it acted: still reported where it first acts
    late = Interleaving(
        "p1", (Event("p2", Send("l1", val(1), "p1")), Event("p1", Spawn("p2")))
    )
    assert str(validate_interleaving(late)) == (
        "condition 1 violated at event 0: pid p2 acts before being spawned"
    )


def test_duplicate_tag_is_condition_4():
    s = Interleaving(
        "p1",
        (
            Event("p1", Send("l1", val(1), "p1")),
            Event("p1", Send("l1", val(1), "p1")),
        ),
    )
    bad = validate_interleaving(s)
    assert bad is not None and bad.condition == "4"


def test_a_second_receive_of_a_tag_is_condition_4():
    s = Interleaving(
        "p1",
        (
            Event("p1", Send("l1", val(1), "p1")),
            Event("p1", Rec("l1", CS_ANY)),
            Event("p1", Rec("l1", CS_ANY)),
        ),
    )
    assert str(validate_interleaving(s)) == "condition 4 violated at event 2: tag l1 received twice"


def test_a_receive_of_a_message_sent_elsewhere_is_condition_2():
    s = Interleaving(
        "p1",
        (
            Event("p1", Spawn("p2")),
            Event("p1", Send("l1", val(1), "p1")),
            Event("p2", Rec("l1", CS_ANY)),
        ),
    )
    assert str(validate_interleaving(s)) == "condition 2 violated at event 2: tag l1 was sent to p1"


def test_self_spawn_is_a_second_spawn_in_an_interleaving_only():
    # the spawning pid is alive, so it already counts as spawned
    for events, message in (
        ((Event("p1", Spawn("p1")),), "event 0: pid p1 spawned twice"),
        ((Event("p1", Spawn("p2")), Event("p2", Spawn("p2"))), "event 1: pid p2 spawned twice"),
    ):
        bad = validate_interleaving(Interleaving("p1", events))
        assert str(bad) == f"condition 4 violated at {message}"
    # a trace is checked in event order, where p2 comes before its spawner p3
    t = Trace("p1", {"p1": (Spawn("p3"),), "p3": (Spawn("p2"),), "p2": (Spawn("p2"),)})
    assert str(validate_trace(t)) == "condition a violated at p2[0]: pid p2 spawns itself"


def test_non_matching_receive_is_condition_2():
    s = Interleaving(
        "p1",
        (
            Event("p1", Send("l1", val(0), "p1")),
            Event("p1", Rec("l1", CS_POS)),
        ),
    )
    bad = validate_interleaving(s)
    assert bad is not None and bad.condition == "2"


def test_blocking_send_from_other_sender_also_violates_condition_3():
    # the competing matching message comes from a different process, yet it
    # is older in the target's mailbox, so consuming the later one is invalid
    s = Interleaving(
        "p1",
        (
            Event("p1", Spawn("p2")),
            Event("p2", Send("l1", val(1), "p1")),
            Event("p1", Send("l2", val(2), "p1")),
            Event("p1", Rec("l2", CS_ANY)),
        ),
    )
    bad = validate_interleaving(s)
    assert bad is not None and bad.condition == "3"


def _two_pass_validate_interleaving(s):
    """The two-pass statement of conditions 1-4: conditions 1, 2 and 4 in
    one pass, then condition 3 by rescanning, for each receive, every event
    before its message's send."""
    events = s.events
    spawned = {}
    sends = {}
    received = {}
    for j, ev in enumerate(events):
        a = ev.action
        if ev.pid != s.initial and ev.pid not in spawned:
            return Violation("1", f"event {j}", f"pid {ev.pid} acts before being spawned")
        if isinstance(a, Spawn):
            if a.child in spawned or a.child == s.initial:
                return Violation("4", f"event {j}", f"pid {a.child} spawned twice")
            spawned[a.child] = j
        elif isinstance(a, Send):
            if a.tag in sends:
                return Violation("4", f"event {j}", f"tag {a.tag} sent twice")
            sends[a.tag] = (j, ev)
        elif isinstance(a, Rec):
            if a.tag in received:
                return Violation("4", f"event {j}", f"tag {a.tag} received twice")
            if a.tag not in sends:
                return Violation("2", f"event {j}", f"no prior send of tag {a.tag}")
            send = sends[a.tag][1].action
            if send.target != ev.pid:
                return Violation("2", f"event {j}", f"tag {a.tag} was sent to {send.target}")
            if not match(send.value, a.cs):
                return Violation(
                    "2",
                    f"event {j}",
                    f"value {render_term(send.value)} does not match {a.cs.cs_id}",
                )
            received[a.tag] = j
    for tag, j in received.items():
        rec_ev = events[j]
        send_idx, _ = sends[tag]
        for i in range(send_idx):
            other = events[i].action
            if not isinstance(other, Send) or other.target != rec_ev.pid:
                continue
            if other.tag == tag or not match(other.value, rec_ev.action.cs):
                continue
            other_rec = received.get(other.tag)
            if other_rec is None or other_rec > j:
                return Violation(
                    "3",
                    f"event {j}",
                    f"message {other.tag} was sent before {tag}, matches "
                    f"{rec_ev.action.cs.cs_id} and is not received earlier",
                )
    return None


def _with_swaps(s):
    """s, then s with each pair of its events swapped: often invalid."""
    yield s
    events = list(s.events)
    for i, j in itertools.combinations(range(len(events)), 2):
        swapped = list(events)
        swapped[i], swapped[j] = events[j], events[i]
        yield Interleaving(s.initial, tuple(swapped))


@settings(max_examples=80, deadline=None)
@given(interleavings(max_events=8), traces(max_events=8))
def test_one_pass_validation_equals_two_pass_reference(s, t):
    for base in (s, linearize(t)):
        for m in _with_swaps(base):
            assert validate_interleaving(m) == _two_pass_validate_interleaving(m), m


def test_a_later_condition_2_violation_is_reported_before_condition_3():
    # event 2 takes l2 past the older matching l1 (condition 3); event 3
    # receives a tag never sent (condition 2), which is reported instead
    events = (
        Event("p1", Send("l1", val(1), "p1")),
        Event("p1", Send("l2", val(2), "p1")),
        Event("p1", Rec("l2", CS_ANY)),
    )
    assert validate_interleaving(Interleaving("p1", events)).condition == "3"
    both = Interleaving("p1", events + (Event("p1", Rec("l9", CS_ANY)),))
    assert str(validate_interleaving(both)) == (
        "condition 2 violated at event 3: no prior send of tag l9"
    )


# ---------------------------------------------------------------------------
# tr / sched
# ---------------------------------------------------------------------------


def test_tr_matches_fixture(s_a, tau_a):
    assert tr(s_a) == tau_a


def test_tr_adds_idle_spawned_process():
    s = Interleaving("p1", (Event("p1", Spawn("p2")),))
    t = tr(s)
    assert t.procs == {"p1": (Spawn("p2"),), "p2": ()}


def test_tr_of_equivalent_interleavings_agree(s_a, s_b):
    assert tr(s_a) == tr(s_b)


def test_in_sched(s_a, s_b, tau_a, run_trace):
    # s is in sched(t) iff tr(s) == t; the brute-force list of sched(t) agrees
    schedules = enumerate_linearizations(tau_a)
    assert tr(s_a) == tr(s_b) == tau_a
    assert s_a in schedules and s_b in schedules
    assert tr(s_a) != run_trace


# ---------------------------------------------------------------------------
# Trace validation
# ---------------------------------------------------------------------------


def test_fixture_traces_valid(tau_a, run_trace):
    assert validate_trace(tau_a) is None
    assert validate_trace(run_trace) is None


def test_empty_trace_is_valid():
    assert validate_trace(Trace("p1", {"p1": ()})) is None


@pytest.mark.parametrize(
    "t, message",
    [
        (
            parse_trace("trace { initial: p1\n  p1: spawn(p2), spawn(p2)\n  p2: ε }\n"),
            "condition a violated at p1[1]: pid p2 spawned twice",
        ),
        (
            parse_trace("trace { initial: p1\n  p1: spawn(p2) }\n"),
            "condition a violated at p1[0]: spawned pid p2 has no entry",
        ),
        (Trace("p1", {}), "condition a violated at p1: initial pid has no entry"),
    ],
    ids=["spawned-twice", "spawned-without-entry", "initial-without-entry"],
)
def test_spawn_closure_violations_are_condition_a(t, message):
    assert str(validate_trace(t)) == message


def test_receive_of_unmatching_value_rejected(tau_a):
    cs1 = tau_a.procs["p2"][0].cs
    procs = dict(tau_a.procs)
    procs["p2"] = (Rec("l2", cs1),)  # {val,0} fails the M > 0 guard
    bad = validate_trace(Trace("p1", procs))
    assert bad is not None and bad.condition == "b"


def test_unspawned_pid_rejected(tau_a):
    procs = dict(tau_a.procs)
    procs["p9"] = (Send("l9", val(1), "p1"),)
    bad = validate_trace(Trace("p1", procs))
    assert bad is not None and bad.condition == "a"


def test_same_sender_overtaking_rejected():
    # one sender, two matching messages, only the later one received
    procs = {
        "p1": (Spawn("p2"), Send("l1", val(1), "p2"), Send("l2", val(2), "p2")),
        "p2": (Rec("l2", CS_ANY),),
    }
    bad = validate_trace(Trace("p1", procs))
    assert bad is not None and bad.condition == "c"


def test_cross_process_forced_order_rejected():
    # p2 must consume l1 before l2 can be consumed, but l2's receive comes
    # first: every linearization is cyclic even though (a)-(c) hold
    procs = {
        "p1": (Spawn("p2"), Spawn("p3"), Send("l1", val(1), "p2")),
        "p2": (Rec("l2", CS_ANY), Rec("l1", CS_ANY)),
        "p3": (Send("l2", val(2), "p2"),),
    }
    assert validate_trace(Trace("p1", procs)) is None  # l2 may arrive first

    # now a genuinely impossible mapping: the first receive pins l3 before
    # l1 (l1 matches its guard and is consumed later), the second receive
    # pins l1 before l0 (l0 matches and is never consumed), and program
    # order pins l0 before l3 -- a cycle no linearization can satisfy,
    # although each per-sender condition holds in isolation
    procs = {
        "p1": (
            Spawn("p2"),
            Spawn("p3"),
            Send("l0", val(0), "p2"),
            Send("l3", val(2), "p2"),
        ),
        "p2": (Rec("l3", CS_POS), Rec("l1", CS_ANY)),
        "p3": (Send("l1", val(1), "p2"),),
    }
    bad = validate_trace(Trace("p1", procs))
    assert bad is not None and bad.condition == "d"


def test_validate_trace_equals_witness_search_on_fixtures(tau_a):
    assert _has_witness(tau_a)


def _merges(procs):
    seqs = {p: list(s) for p, s in procs.items() if s}
    order = list(seqs)
    counts = [len(seqs[p]) for p in order]
    total = sum(counts)
    slots = itertools.permutations(
        [p for p, c in zip(order, counts) for _ in range(c)]
    )
    seen = set()
    for assignment in slots:
        if assignment in seen:
            continue
        seen.add(assignment)
        taken = {p: 0 for p in order}
        events = []
        for p in assignment:
            events.append(Event(p, seqs[p][taken[p]]))
            taken[p] += 1
        assert len(events) == total
        yield Interleaving("p1", tuple(events))


def _has_witness(t):
    return any(
        validate_interleaving(s) is None and tr(s) == t for s in _merges(t.procs)
    )


@settings(max_examples=60, deadline=None)
@given(traces(max_events=6))
def test_validate_trace_equals_witness_search(t):
    assert (validate_trace(t) is None) == _has_witness(t)


@settings(max_examples=60, deadline=None)
@given(traces(max_events=6))
def test_mutated_trace_decided_like_witness_search(t):
    # swapping two adjacent actions inside one process may or may not keep
    # the mapping a trace; the direct check must agree with brute force
    for pid, seq in t.procs.items():
        if len(seq) < 2:
            continue
        mutated = dict(t.procs)
        mutated[pid] = seq[1:2] + seq[0:1] + seq[2:]
        m = Trace("p1", mutated)
        assert (validate_trace(m) is None) == _has_witness(m)
        break


# ---------------------------------------------------------------------------
# subtrace
# ---------------------------------------------------------------------------


def test_subtrace_on_running_example(run_trace):
    cut = {
        "p1": run_trace.procs["p1"][:4],
        "p2": run_trace.procs["p2"],
        "p3": run_trace.procs["p3"][:2],
        "p4": run_trace.procs["p4"][:1],
        "p5": run_trace.procs["p5"],
    }
    sub = Trace("p1", cut)
    assert validate_trace(sub) is None
    assert is_subtrace(sub, run_trace)
    assert not is_subtrace(run_trace, sub)


def test_subtrace_reflexive(tau_a):
    assert is_subtrace(tau_a, tau_a)


def test_subtrace_rejects_initial_mismatch(tau_a):
    with pytest.raises(ValueError):
        is_subtrace(Trace("p2", {"p2": ()}), tau_a)


@settings(max_examples=40, deadline=None)
@given(traces(max_events=6), traces(max_events=6))
def test_subtrace_partial_order(t1, t2):
    assert is_subtrace(t1, t1)
    if is_subtrace(t1, t2) and is_subtrace(t2, t1):
        # antisymmetry up to empty entries for spawned-but-idle processes
        for p in set(t1.procs) | set(t2.procs):
            assert t1.procs.get(p, ()) == t2.procs.get(p, ())


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_serialize_parse_identity_on_fixture_files():
    for name in ("fix_tau_a.trace", "fix_run.trace", "variant_run_l2_l6.trace"):
        text = fixture_text(name)
        assert serialize_trace(parse_trace(text)) == text


def test_serializing_one_constraint_id_with_two_clause_lists_is_an_error():
    # a parsed trace cannot bind an id twice; a hand-built one can. Each
    # constraint keeps its text once a key renders it, and the kept text
    # stands in for no definition: both bindings are still compared
    other = Constraint(CS_ANY.cs_id, CS_POS.clauses)
    sends = (Send("l1", val(1), "p1"), Send("l2", val(2), "p1"))
    for cs in (CS_ANY, other):
        alone = serialize_trace(Trace("p1", {"p1": sends + (Rec("l1", cs),)}))
        assert alone.endswith(f"constraints {{ {cs.text} }}\n")
    for first, second in ((CS_ANY, other), (other, CS_ANY)):
        t = Trace("p1", {"p1": sends + (Rec("l1", first), Rec("l2", second))})
        with pytest.raises(ValueError, match=r"^constraint id csa bound to two definitions$"):
            serialize_trace(t)
    # an equal copy is the same definition
    copy = Constraint(CS_ANY.cs_id, CS_ANY.clauses)
    t = Trace("p1", {"p1": sends + (Rec("l1", CS_ANY), Rec("l2", copy))})
    assert serialize_trace(t).endswith(f"constraints {{ {CS_ANY.text} }}\n")


def test_epsilon_marks_idle_processes():
    t = Trace("p1", {"p1": (Spawn("p2"),), "p2": ()})
    text = serialize_trace(t)
    assert "p2: ε" in text
    assert parse_trace(text) == t


def test_key_does_not_depend_on_the_order_of_pids_whose_sort_keys_tie():
    # q01 and q1 tie under name_sort_key; the canonical order puts q01 first
    spawns = (Spawn("q01"), Spawn("q1"))
    a = Trace("p1", {"p1": spawns, "q01": (Send("l1", val(1), "p1"),), "q1": ()})
    b = Trace("p1", {"p1": spawns, "q1": (), "q01": a.procs["q01"]})
    assert a == b
    assert list(a.procs) == list(b.procs) == ["p1", "q01", "q1"]
    assert a.key() == b.key()
    assert parse_trace(b.key()) == a


def test_a_trace_lists_its_pids_in_canonical_order_from_construction(monkeypatch):
    # p01 and p1 tie under name_sort_key, and p1.2 sorts before p1.10: every
    # order of the entries builds the same listing, and what reads it keys
    # no pid again
    entries = {
        "p1": (Spawn("p01"), Spawn("p1.2"), Spawn("p1.10")),
        "p01": (Send("l1", val(1), "p1.10"),),
        "p1.2": (),
        "p1.10": (Send("l2", val(2), "p01"),),
    }
    keyed = Trace("p1", entries).key()
    for order in itertools.permutations(entries):
        t = Trace("p1", {p: entries[p] for p in order})
        assert list(t.procs) == ["p01", "p1", "p1.2", "p1.10"]
        assert t.key() == keyed

    calls = []
    key = parsing.name_sort_key

    def counting(name):
        calls.append(name)
        return key(name)

    monkeypatch.setattr(parsing, "name_sort_key", counting)
    index = traces_module.TraceIndex(t)
    assert [pid for pid, _, _ in index.events] == ["p01", "p1", "p1", "p1", "p1.10"]
    assert serialize_trace(t) == keyed
    assert calls == []


def test_unknown_constraint_id_rejected():
    with pytest.raises(ParseError) as err:
        parse_trace(
            "trace { initial: p1\n  p1: rec(l1, cs9) }\n"
            "constraints { cs1: {val,M} -> . }\n"
        )
    assert str(err.value) == "2:15: unknown constraint id 'cs9'"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_trace,
            "trace { initial: p1\n  p1: ε\n  p1: ε }\n",
            "3:3: duplicate process entry 'p1'",
        ),
        (
            parse_interleaving,
            "interleaving { initial: p1\n  p1: spawn(p2)\n  p2: ε }\n",
            "3:3: interleaving lines carry exactly one action (process p2)",
        ),
        (
            # a brace missing inside a message is reported where it is
            # missing, not as an unknown id for a receive before it
            parse_trace,
            "trace { initial: p1\n"
            "  p1: send(l1, {val,1}, p1), rec(l1, cs1), send(l2, {val,2, p1) }\n"
            "constraints { cs1: {val,M} -> . }\n",
            "2:63: expected '}', found ')'",
        ),
        (
            parse_trace,
            "trace { initial: p1\n  p1: send(l1, {val,1}, p1), rec(l1, cs1) }\n",
            "2:38: unknown constraint id 'cs1'",
        ),
    ],
    ids=["duplicate-entry", "itl-line", "missing-brace", "no-constraints-block"],
)
def test_document_errors_are_reported_where_they_are(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_each_document_reads_its_constraints_block_once(monkeypatch):
    calls = []
    original = traces_module.parse_constraint_block

    def counting(ts):
        calls.append(ts)
        return original(ts)

    monkeypatch.setattr(traces_module, "parse_constraint_block", counting)
    parse_trace(fixture_text("fix_run.trace"))
    assert len(calls) == 1
    parse_interleaving(fixture_text("fix_s_a.itl"))
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(traces(max_events=8))
def test_trace_roundtrip(t):
    text = serialize_trace(t)
    assert text == reference_writers.serialize_trace(t)
    assert parse_trace(text) == t


@settings(max_examples=60, deadline=None)
@given(interleavings(max_events=6))
def test_interleaving_roundtrip(s):
    text = serialize_interleaving(s)
    assert text == reference_writers.serialize_interleaving(s)
    assert parse_interleaving(text) == s


def test_the_writers_hold_little_more_than_the_document():
    # 3 436 600 characters, whose names reach 752 parts; writing the head,
    # lines, closing and constraints as separate strings and concatenating
    # them peaked at 2.51 (trace) and 3.04 (interleaving) times the text
    t = run_random(parse_program(NEVER_STOPPING), 0, 3000)[0]
    s = linearize(t)
    for write, document, bound in ((serialize_trace, t, 1.8), (serialize_interleaving, s, 2.5)):
        tracemalloc.start()
        try:
            text = write(document)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * sys.getsizeof(text), (write.__name__, peak / sys.getsizeof(text))
