import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings

from racetrace import (
    Event,
    EventId,
    Interleaving,
    Rec,
    Send,
    Spawn,
    SwapBudgetExhausted,
    Trace,
    causally_equivalent,
    enumerate_linearizations,
    hb_graph,
    linearize,
    parse_trace,
    swap_equiv_oracle,
    tr,
    validate_interleaving,
)
from racetrace.oracles import _directly_related, hb_relation
from racetrace.terms import Atom, Int, Tup

from conftest import fixture_text
from strategies import CS_ANY, interleavings, traces


def val(n):
    return Tup((Atom("val"), Int(n)))


def _eid(t, pid, action_tag, kind):
    for p, i, a in t.events():
        if p == pid and isinstance(a, kind) and a.tag == action_tag:
            return EventId(p, i)
    raise AssertionError(f"no {kind.__name__} of {action_tag} in {pid}")


# ---------------------------------------------------------------------------
# hb graph
# ---------------------------------------------------------------------------


def test_running_example_reachability(run_trace):
    g = hb_graph(run_trace)
    r2 = _eid(run_trace, "p3", "l2", Rec)
    s5 = _eid(run_trace, "p3", "l5", Send)
    r5 = _eid(run_trace, "p1", "l5", Rec)
    s7 = _eid(run_trace, "p1", "l7", Send)
    s6 = _eid(run_trace, "p4", "l6", Send)
    assert g.reach(r2, s5) and g.reach(s5, r5) and g.reach(r5, s7)
    assert g.reach(r2, s7)
    assert not g.reach(r2, s6)


def test_reach_is_irreflexive(run_trace, tau_a):
    for t in (run_trace, tau_a):
        g = hb_graph(t)
        for e in g.nodes:
            assert not g.reach(e, e)


def test_independent_sends(tau_a, run_trace):
    # independent: neither event happened before the other
    for t, s1, s2 in (
        (tau_a, _eid(tau_a, "p1", "l1", Send), _eid(tau_a, "p3", "l2", Send)),
        (run_trace, _eid(run_trace, "p2", "l2", Send), _eid(run_trace, "p3", "l3", Send)),
    ):
        g = hb_graph(t)
        assert not g.reach(s1, s2) and not g.reach(s2, s1)


def test_same_process_never_independent(tau_a):
    g = hb_graph(tau_a)
    assert g.reach(EventId("p1", 0), EventId("p1", 2))


def test_unknown_event_rejected(tau_a):
    # either argument unknown, as the source or as the target of reach
    g = hb_graph(tau_a)
    for unknown in (EventId("p9", 0), EventId("p1", 99), EventId("p1", -1)):
        for src, dst in ((EventId("p1", 0), unknown), (unknown, EventId("p1", 0))):
            with pytest.raises(KeyError):
                g.reach(src, dst)


@settings(max_examples=60, deadline=None)
@given(traces(max_events=7))
def test_hb_is_strict_partial_order(t):
    g = hb_graph(t)
    pairs = set(g.pairs())
    for e in g.nodes:
        assert (e, e) not in pairs  # irreflexive
    for a, b in pairs:
        assert (b, a) not in pairs  # asymmetric
    for a, b in pairs:
        for c, d in pairs:
            if b == c:
                assert (a, d) in pairs  # transitive


# a spawned process without events, and a message its sender receives next
SELF_SEND_AND_EMPTY_CHILD = parse_trace(
    "trace { initial: p1\n  p1: spawn(p2), send(l1, {val,1}, p1), rec(l1, csa)\n  p2: ε }\n"
    "constraints { csa: {val,M} -> . }\n"
)


@settings(max_examples=60, deadline=None)
@given(traces(max_events=7))
@example(parse_trace(fixture_text("fix_run.trace")))
@example(SELF_SEND_AND_EMPTY_CHILD)
def test_hb_edges_and_pairs_are_listed_once_in_event_order(t):
    g = hb_graph(t)
    number = {e: k for k, e in enumerate(g.nodes)}
    expected, sent = {}, {}
    for pid, i, a in t.events():
        if i + 1 < len(t.procs[pid]):
            expected[EventId(pid, i), EventId(pid, i + 1)] = "program"
        if isinstance(a, Spawn) and t.procs[a.child]:
            expected[EventId(pid, i), EventId(a.child, 0)] = "spawn"
        if isinstance(a, Send):
            sent[a.tag] = EventId(pid, i)
    for pid, i, a in t.events():
        if isinstance(a, Rec):  # a self-send received next is a message edge
            expected[sent[a.tag], EventId(pid, i)] = f"message {a.tag}"

    def by_number(pair):
        return number[pair[0]], number[pair[1]]

    edges = [((src, dst), kind) for src, dst, kind in g.edges()]
    assert edges == sorted(expected.items(), key=lambda edge: by_number(edge[0]))
    pairs = list(g.pairs())
    assert pairs == sorted(set(g.pairs()), key=by_number)


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------


def test_linearize_postconditions(tau_a, run_trace):
    for t in (tau_a, run_trace):
        s = linearize(t)
        assert validate_interleaving(s) is None
        assert tr(s) == t


def test_linearize_run_has_18_events(run_trace):
    assert len(linearize(run_trace).events) == 18


def test_linearize_single_process():
    t = Trace("p1", {"p1": (Send("l1", val(1), "p1"), Rec("l1", CS_ANY))})
    assert [e.action for e in linearize(t).events] == list(t.procs["p1"])


@settings(max_examples=100, deadline=None)
@given(traces())
@example(parse_trace(fixture_text("fix_run.trace")))
@example(parse_trace(fixture_text("fix_tau_a.trace")))
@example(parse_trace(fixture_text("variant_run_l2_l6.trace")))
def test_linearize_is_the_first_enumerated_linearization(t):
    # the enumerator tries ready events in ascending order, so its first
    # schedule is the smallest-first order, found by its own backtracking
    assert linearize(t) == enumerate_linearizations(t)[0]


def test_enumerate_linearizations_count(tau_a):
    schedules = enumerate_linearizations(tau_a)
    assert len(schedules) == 5
    assert len({s.events for s in schedules}) == 5
    for s in schedules:
        assert validate_interleaving(s) is None
        assert tr(s) == tau_a


def test_enumerate_equals_permutation_brute_force(tau_a):
    events = linearize(tau_a).events
    brute = {
        perm
        for perm in itertools.permutations(events)
        if validate_interleaving(Interleaving("p1", perm)) is None
        and tr(Interleaving("p1", perm)) == tau_a
    }
    assert {s.events for s in enumerate_linearizations(tau_a)} == brute


def test_enumerate_cap_is_loud(run_trace):
    with pytest.raises(ValueError):
        enumerate_linearizations(run_trace, cap=2)


def test_independent_sends_enumerate_all_linear_extensions():
    t = Trace(
        "p1",
        {
            "p1": (Spawn("p2"), Spawn("p3")),
            "p2": (Send("l1", val(1), "p1"),),
            "p3": (Send("l2", val(2), "p1"),),
        },
    )
    # order generated by: spawn(p2) < spawn(p3), spawn(p2) < l1, spawn(p3) < l2
    # extensions: (l1 l2), (l2 l1) after both spawns, plus l1 between the spawns
    assert len(enumerate_linearizations(t)) == 3


# ---------------------------------------------------------------------------
# causal equivalence
# ---------------------------------------------------------------------------


def test_fig2_interleavings_equivalent(s_a, s_b):
    assert causally_equivalent(s_a, s_b)
    assert causally_equivalent(s_a, s_a)
    assert swap_equiv_oracle(s_a, s_b)


def test_swap_search_gives_up_when_its_budget_runs_out(s_a, s_b):
    with pytest.raises(SwapBudgetExhausted, match="^undecided after expanding 1 states$"):
        swap_equiv_oracle(s_a, s_b, budget=1)
    assert swap_equiv_oracle(s_a, s_b, budget=2)


def test_changing_the_received_message_breaks_equivalence(s_a):
    # same program shape, but p2 consumes l3 instead of l1: to stay valid,
    # l3 must land in p2's mailbox before the receive and before l1 (which
    # also matches and would otherwise be older)
    cs1 = s_a.events[3].action.cs
    other = Interleaving(
        "p1",
        (
            s_a.events[0],  # p1: spawn(p2)
            s_a.events[1],  # p1: spawn(p3)
            s_a.events[4],  # p3: send(l2, {val,0}, p2)
            s_a.events[5],  # p3: send(l3, {val,2}, p2)
            Event("p2", Rec("l3", cs1)),
            s_a.events[2],  # p1: send(l1, {val,1}, p2)
        ),
    )
    assert validate_interleaving(other) is None
    assert not causally_equivalent(s_a, other)
    assert not swap_equiv_oracle(s_a, other)


def test_different_event_sets_never_equivalent(s_a, s_b):
    shorter = Interleaving("p1", s_a.events[:5])
    assert not causally_equivalent(shorter, s_b)
    assert not swap_equiv_oracle(shorter, s_b)


@settings(max_examples=40, deadline=None)
@given(interleavings(max_events=6))
def test_equivalence_criteria_agree_on_permutations(s):
    # every permutation with the same events: tr-equality, hb-relation
    # equality and swap reachability coincide
    if len(s.events) > 5:
        s = Interleaving("p1", s.events[:5])
    if validate_interleaving(s) is not None:
        return
    base_tr = None
    try:
        base_tr = tr(s)
    except ValueError:
        return
    for perm in itertools.permutations(s.events):
        other = Interleaving("p1", perm)
        if validate_interleaving(other) is not None:
            continue
        by_tr = causally_equivalent(s, other)
        assert by_tr == (hb_relation(s) == hb_relation(other))
        assert by_tr == swap_equiv_oracle(s, other)


@settings(max_examples=30, deadline=None)
@given(traces(max_events=6))
def test_linearizations_equivalent_and_other_traces_not(t):
    schedules = enumerate_linearizations(t, cap=2000)
    for s1, s2 in itertools.combinations(schedules, 2):
        assert causally_equivalent(s1, s2)
    if not schedules:
        return
    base = schedules[0]
    for perm in itertools.permutations(base.events):
        other = Interleaving("p1", perm)
        if validate_interleaving(other) is not None:
            continue
        if tr(other) != t:
            assert not causally_equivalent(base, other)


@settings(max_examples=60, deadline=None)
@given(interleavings(max_events=7))
def test_swap_validity_dichotomy(s):
    # swapping adjacent independent events stays valid, except possibly for
    # two sends addressed to the same target: with delivery at send time the
    # swap reorders that mailbox whether or not the senders coincide
    for i in range(len(s.events) - 1):
        e1, e2 = s.events[i], s.events[i + 1]
        if _directly_related(e1, e2):
            continue
        swapped = Interleaving("p1", s.events[:i] + (e2, e1) + s.events[i + 2 :])
        if validate_interleaving(swapped) is not None:
            assert (
                isinstance(e1.action, Send)
                and isinstance(e2.action, Send)
                and e1.action.target == e2.action.target
            )


@settings(max_examples=40, deadline=None)
@given(interleavings(max_events=7))
def test_tr_of_valid_interleaving_is_valid_trace(s):
    from racetrace import validate_trace

    assert validate_interleaving(s) is None  # by construction
    assert validate_trace(tr(s)) is None
    assert s in enumerate_linearizations(tr(s))
