from typing import Callable

import pytest
from hypothesis import example, given, settings

from racetrace import (
    Rec,
    Send,
    Spawn,
    Trace,
    all_races,
    declarative_race_oracle,
    explore,
    orphans,
    parse_program,
    parse_trace,
    race_set,
    run_random,
    serialize_trace,
    validate_trace,
    variant,
)
from racetrace import races as races_module
from racetrace.causality import EventId, linearize
from racetrace.parsing import name_sort_key
from racetrace.races import (
    CandidateCheck, RaceReport, _kept_succ, race_report, racers_at, variant_order,
)
from racetrace.terms import Atom, Int, Tup, match
from racetrace.traces import Pid, TraceIndex, valid_index

from conftest import GENCOLL4, fixture_text, workloads
from strategies import CS_ANY, CS_POS, programs, traces
from test_golden import REASONS_TRACE
from test_index import _fanin, _fifo_chain


def val(n):
    return Tup((Atom("val"), Int(n)))


# ---------------------------------------------------------------------------
# Race sets
# ---------------------------------------------------------------------------


def test_race_sets_of_running_example(run_trace):
    expected = {
        "l1": {"l2"},
        "l2": {"l6", "l8"},
        "l3": set(),
        "l4": {"l6"},
        "l5": set(),
        "l6": {"l7", "l8"},
    }
    for tag, racers in expected.items():
        assert race_set(run_trace, tag).racers == racers, tag


def test_all_races_covers_every_receive(run_trace):
    reports = all_races(run_trace)
    assert {r.subject for r in reports} == {"l1", "l2", "l3", "l4", "l5", "l6"}
    assert all(r.racers == race_set(run_trace, r.subject).racers for r in reports)


def test_race_set_small_example(tau_a):
    report = race_set(tau_a, "l1")
    assert report.racers == {"l3"}
    by_tag = {c.tag: c for c in report.candidates}
    # l2 carries {val,0}, which fails the M > 0 guard
    assert not by_tag["l2"].matches
    assert by_tag["l2"].reason() == "value does not match"
    assert by_tag["l3"].in_race_set and by_tag["l3"].reason() == "races"


def test_candidate_explanations(run_trace):
    by_tag = {c.tag: c for c in race_set(run_trace, "l2").candidates}
    # l1 was consumed by the earlier receive on the same process
    assert by_tag["l1"].already_received
    assert by_tag["l1"].reason() == "received earlier"
    # l7 is sent by p1 only after it hears back from p3: causally excluded
    assert by_tag["l7"].hb_excluded
    assert by_tag["l7"].reason() == "receive happened before send"
    # l4 carries {val,0}: fails the M > 0 guard
    assert not by_tag["l4"].matches
    # l8 is not blocked by l4 (l4 does not match the constraint)
    assert by_tag["l8"].in_race_set and by_tag["l8"].blocked_by is None


def test_a_candidate_row_is_an_immutable_named_tuple(run_trace):
    fields = ("l8", "p5", True, False, False, None, False, True)
    row = CandidateCheck(*fields)
    assert row in race_set(run_trace, "l2").candidates
    with pytest.raises(AttributeError):
        row.in_race_set = False
    keywords = CandidateCheck(
        tag="l8", sender="p5", matches=True, already_received=False, hb_excluded=False,
        blocked_by=None, infeasible=False, in_race_set=True,
    )
    assert keywords == row and hash(keywords) == hash(row)
    assert len({row, keywords}) == 1
    # it iterates, and equals the plain tuple of its fields
    assert tuple(row) == fields and row == fields
    assert repr(row) == (
        "CandidateCheck(tag='l8', sender='p5', matches=True, already_received=False, "
        "hb_excluded=False, blocked_by=None, infeasible=False, in_race_set=True)"
    )
    assert all(f"{name}=" in repr(row) for name in CandidateCheck._fields)
    assert row.reason() == "races"


def test_blocked_by_earlier_send():
    # p3 sends two matching messages; only the older one can race
    t = Trace(
        "p1",
        {
            "p1": (Spawn("p2"), Spawn("p3"), Send("l1", val(1), "p2")),
            "p2": (Rec("l1", CS_ANY),),
            "p3": (Send("l2", val(2), "p2"), Send("l3", val(3), "p2")),
        },
    )
    report = race_set(t, "l1")
    assert report.racers == {"l2"}
    by_tag = {c.tag: c for c in report.candidates}
    assert by_tag["l3"].blocked_by == "l2"
    assert by_tag["l3"].reason() == "blocked by earlier send l2"


def test_unknown_receive_tag_rejected(tau_a):
    with pytest.raises(ValueError, match="no receive"):
        race_set(tau_a, "l9")


def test_race_set_requires_valid_trace():
    t = Trace("p1", {"p1": (Rec("l1", CS_ANY),)})
    with pytest.raises(ValueError, match="invalid trace"):
        race_set(t, "l1")


def test_candidate_forced_out_by_cross_sender_ordering():
    # l1 matches the second receive and passes every per-sender check, yet it
    # cannot be consumed there: the first receive pins l3 (and, through p1's
    # program order, l0) ahead of l1 in every valid reordering
    t = Trace(
        "p1",
        {
            "p1": (
                Spawn("p2"),
                Spawn("p3"),
                Send("l0", val(0), "p2"),
                Send("l3", val(2), "p2"),
            ),
            "p2": (Rec("l3", CS_POS), Rec("l0", CS_ANY)),
            "p3": (Send("l1", val(1), "p2"),),
        },
    )
    assert validate_trace(t) is None
    report = race_set(t, "l0")
    by_tag = {c.tag: c for c in report.candidates}
    assert by_tag["l1"].matches
    assert not by_tag["l1"].already_received
    assert not by_tag["l1"].hb_excluded
    assert by_tag["l1"].blocked_by is None
    assert by_tag["l1"].infeasible and not by_tag["l1"].in_race_set
    assert by_tag["l1"].reason() == (
        "forced behind another matching message in every reordering"
    )
    assert not declarative_race_oracle(t, "l0", "l1")
    # the same message does race with the first receive
    assert race_set(t, "l3").racers == {"l1"}
    assert declarative_race_oracle(t, "l3", "l1")


# ---------------------------------------------------------------------------
# Declarative oracle agreement
# ---------------------------------------------------------------------------


def test_oracle_agrees_on_fixtures(tau_a, run_trace):
    for t in (tau_a, run_trace):
        for report in all_races(t):
            for check in report.candidates:
                assert check.in_race_set == declarative_race_oracle(
                    t, report.subject, check.tag
                ), (report.subject, check.tag)


# the receiver spawns a child after the receive: subtraces that cut the
# spawn must drop the child's entry, or the oracle misses the race
SPAWN_AFTER_RECEIVE = Trace(
    "p1",
    {
        "p1": (Spawn("p1.1"), Spawn("p1.2"), Send("p1.1", val(0), "p1.1")),
        "p1.1": (Send("p1.1.1", val(0), "p1.1"), Rec("p1.1.1", CS_ANY), Spawn("p1.1.1")),
        "p1.2": (),
        "p1.1.1": (),
    },
)


@settings(max_examples=50, deadline=None)
@given(traces(max_events=6))
@example(SPAWN_AFTER_RECEIVE)
def test_oracle_agrees_on_generated_traces(t):
    sends = {a.tag for _, _, a in t.events() if isinstance(a, Send)}
    for report in all_races(t):
        racers_by_check = {c.tag for c in report.candidates if c.in_race_set}
        assert racers_by_check == report.racers
        for other in sends - {report.subject}:
            assert (other in report.racers) == declarative_race_oracle(
                t, report.subject, other
            ), (report.subject, other)


# ---------------------------------------------------------------------------
# The validity gate against building and validating the variant
# ---------------------------------------------------------------------------


# p1 receives its own message p1.1 and then spawns p1.3; p1.1 sends p1.1.1
# to p1 and then p1.1.2 to p1.3. The variant consuming p1.1.1 erases the
# spawn of p1.3 but keeps p1.1's send to it, so it is not a valid trace
DANGLING_SEND = Trace(
    "p1",
    {
        "p1": (
            Spawn("p1.1"),
            Spawn("p1.2"),
            Send("p1.1", val(0), "p1"),
            Send("p1.2", val(0), "p1"),
            Rec("p1.1", CS_ANY),
            Spawn("p1.3"),
            Spawn("p1.4"),
            Send("p1.3", val(0), "p1"),
        ),
        "p1.1": (Send("p1.1.1", val(0), "p1"), Send("p1.1.2", val(0), "p1.3")),
        "p1.2": (),
        "p1.3": (),
        "p1.4": (),
    },
)


# Three traces for the validity gate's one traversal per receive, where an
# event is reached along more than one path. At p2's receive of l2, the waiting l1 reaches p3's
# receive of l4 along two paths (through p3's program order, and through p5):
# l1 is still feasible, and races
DIAMOND = Trace(
    "p1",
    {
        "p1": (Spawn("p2"), Spawn("p3"), Spawn("p4"), Spawn("p5")),
        "p2": (Rec("l2", CS_ANY),),
        "p3": (Send("l1", val(1), "p2"), Send("l3", val(1), "p5"), Rec("l4", CS_ANY)),
        "p4": (Send("l2", val(1), "p2"),),
        "p5": (Rec("l3", CS_ANY), Send("l4", val(1), "p3")),
    },
)
# At p2's receive of l1, both l1 (through l2, then the ordering edges
# l2 -> l4 -> l5 of the earlier receives) and l3 (through l4) reach l5, so
# l5 is forced behind them and infeasible; l3 races
TWO_CHAINS = Trace(
    "p1",
    {
        "p1": (Spawn("p2"), Spawn("p3"), Spawn("p4"), Spawn("p5")),
        "p2": (Rec("l2", CS_POS), Rec("l4", CS_POS), Rec("l1", CS_ANY)),
        "p3": (Send("l1", val(0), "p2"), Send("l2", val(1), "p2")),
        "p4": (Send("l3", val(0), "p2"), Send("l4", val(1), "p2")),
        "p5": (Send("l5", val(1), "p2"),),
    },
)
# At p2's receive of l1, the waiting l3 is reached by l1 (through p3's
# receive of l2), and reaches the waiting l5 itself (through l4 and the
# ordering edge of p2's first receive): both are infeasible. l3's sender
# comes first, so a traversal that starts from the last sender's message
# reaches l3 before it starts from l3, and must still read l3's edges
WAITING_REACHES_WAITING = Trace(
    "p1",
    {
        "p1": (Spawn("p2"), Spawn("p3"), Spawn("p4"), Spawn("p5")),
        "p2": (Rec("l4", CS_POS), Rec("l1", CS_ANY)),
        "p3": (Rec("l2", CS_ANY), Send("l3", val(0), "p2"), Send("l4", val(1), "p2")),
        "p4": (Send("l1", val(0), "p2"), Send("l2", val(0), "p3")),
        "p5": (Send("l5", val(1), "p2"),),
    },
)


def test_gate_on_diamonds_and_chains():
    assert race_set(DIAMOND, "l2").racers == {"l1"}
    assert race_set(TWO_CHAINS, "l1").racers == {"l3"}
    assert race_set(WAITING_REACHES_WAITING, "l1").racers == set()
    for t, subject, tag in (
        (TWO_CHAINS, "l1", "l5"),
        (WAITING_REACHES_WAITING, "l1", "l3"),
        (WAITING_REACHES_WAITING, "l1", "l5"),
    ):
        check = {c.tag: c for c in race_set(t, subject).candidates}[tag]
        assert _survives(check) and check.infeasible, (subject, tag)


def _survives(c):
    return c.matches and not c.already_received and not c.hb_excluded and c.blocked_by is None


def rdep(suffix: tuple, procs: dict) -> dict:
    """Erase every action depending on the removed receive: the paper's
    inductive definition, in worklist form. Process the removed actions one
    at a time; a removed spawn erases the whole child, a removed send whose
    message was consumed truncates the consumer before that receive and
    queues the removed tail."""
    work = list(suffix)
    while work:
        action = work.pop(0)
        if isinstance(action, Rec):
            continue
        if isinstance(action, Spawn):
            child_actions = procs.pop(action.child, ())
            work = work + list(child_actions)
            continue
        assert isinstance(action, Send)
        target_seq = procs.get(action.target, ())
        cut = next(
            (
                k
                for k, a in enumerate(target_seq)
                if isinstance(a, Rec) and a.tag == action.tag
            ),
            None,
        )
        if cut is None:
            continue
        removed = target_seq[cut + 1 :]
        procs[action.target] = target_seq[:cut]
        work = work + list(removed)
    return procs


def reference_variant(t, pid, idx, racer):
    """Replace the receive at pid[idx] with rec(racer) and erase its
    dependents with ``rdep``."""
    procs = dict(t.procs)
    suffix = procs[pid][idx + 1 :]
    procs[pid] = procs[pid][:idx] + (Rec(racer, procs[pid][idx].cs),)
    return Trace(t.initial, rdep(suffix, procs))


def _survivors(t):
    """(index, receive event, report, check) for every candidate of every
    receive of t that survives the cheap checks."""
    index = valid_index(t)
    for r, (_, _, a) in enumerate(index.events):
        if isinstance(a, Rec):
            report = race_report(index, r)
            for check in filter(_survives, report.candidates):
                yield index, r, report, check


@settings(max_examples=150, deadline=None)
@given(traces(max_events=10))
@example(DANGLING_SEND)
def test_index_built_variant_equals_rdep(t):
    for report in all_races(t):
        pid, idx = report.receive
        for racer in report.racers:
            built = variant(t, report.subject, racer)
            reference = reference_variant(t, pid, idx, racer)
            assert built == reference, (report.subject, racer)
            assert list(built.procs) == list(reference.procs), (report.subject, racer)


@settings(max_examples=150, deadline=None)
@given(traces(max_events=10))
@example(DANGLING_SEND)
@example(DIAMOND)
@example(TWO_CHAINS)
@example(WAITING_REACHES_WAITING)
def test_gate_equals_validating_the_built_variant(t):
    for index, r, report, check in _survivors(t):
        pid, idx = report.receive
        reference = reference_variant(t, pid, idx, check.tag)
        assert check.infeasible == (validate_trace(reference) is not None), (
            report.subject, check.tag,
        )
        # the variant keeps exactly the events the cut does not mark, and
        # drops exactly the processes whose spawn it marks
        gone = index.cut(r)
        dead = _dead(index, gone)
        kept = {(p, i) for v, (p, i, _) in enumerate(index.events) if not gone[v]}
        assert kept == {
            (p, i) for p, seq in reference.procs.items() for i in range(len(seq))
        } - {(pid, idx)}
        assert dead == set(t.procs) - set(reference.procs)


@settings(max_examples=150, deadline=None)
@given(traces(max_events=10))
@example(DANGLING_SEND)
@example(REASONS_TRACE)
@example(parse_trace(fixture_text("fix_run.trace")))
@example(parse_trace(fixture_text("fix_tau_a.trace")))
@example(parse_trace(fixture_text("variant_run_l2_l6.trace")))
def test_variant_order_is_the_variants_linearization(t):
    for index, r, report, check in _survivors(t):
        pid, idx = report.receive
        built = reference_variant(t, pid, idx, check.tag)
        if check.in_race_set:
            expected = linearize(built).events
            assert variant_order(index, r, check.tag) == expected, check.tag
        elif validate_trace(built).condition == "d":
            with pytest.raises(ValueError, match="is cyclic"):
                variant_order(index, r, check.tag)


def _gencoll_run(n):
    return run_random(parse_program(workloads.gencoll_program(n, 1)), seed=1)[0]


@pytest.mark.parametrize(
    "t, racers",
    [
        # the collector's k-th of n receives races with the n - k messages
        # still waiting
        (_gencoll_run(30), 30 * 29 // 2),
        (
            parse_trace(workloads.fanin_trace(8, 3, 1)),
            sum(len(racers) for _, racers in workloads.fanin_expected_races(8, 3, 1)),
        ),
    ],
    ids=["gencoll30", "fanin8x3"],
)
def test_variants_at_scale_read_one_cut(t, racers):
    # the generated traces above hold at most 10 events; here a variant
    # keeps up to 61 events of up to 32 processes, and both readings of the
    # cut, the projection ``variant`` and the order ``variant_order``, must
    # agree with the references
    index = valid_index(t)
    count = 0
    for r, (pid, idx, a) in enumerate(index.events):
        if not isinstance(a, Rec):
            continue
        for y in racers_at(index, r):
            built = variant(index, a.tag, y)
            reference = reference_variant(t, pid, idx, y)
            assert built == reference, (a.tag, y)
            assert list(built.procs) == list(reference.procs), (a.tag, y)
            assert linearize(built).events == variant_order(index, r, y), (a.tag, y)
            count += 1
    assert count == racers


def test_gate_rejects_a_variant_with_a_dangling_send():
    check = {c.tag: c for c in race_set(DANGLING_SEND, "p1.1").candidates}["p1.1.1"]
    assert _survives(check) and check.infeasible and not check.in_race_set


@pytest.mark.xfail(
    strict=True,
    reason="the variant erases every event the receive happened before, so it "
    "keeps p1.1's send to p1.3 and loses p1.3's spawn; the declarative "
    "definition may cut that send instead and finds the race",
)
def test_oracle_agrees_on_a_dangling_send():
    assert declarative_race_oracle(DANGLING_SEND, "p1.1", "p1.1.1") == (
        "p1.1.1" in race_set(DANGLING_SEND, "p1.1").racers
    )


# ---------------------------------------------------------------------------
# The full candidate scan, the reference of race_report
# ---------------------------------------------------------------------------


def _dead(index: TraceIndex, gone: bytearray) -> set[Pid]:
    """The processes whose spawn the cut `gone` marks."""
    return {child for child, v in index.spawn_at.items() if gone[v]}


def _reference_gate(
    index: TraceIndex, oldest: dict[Pid, int], gone: bytearray, dead: set[Pid]
) -> Callable[[int], bool]:
    """The validity gate as one forward traversal per candidate s, from the
    other messages still waiting at r, looking for s: how the gate decided
    before it answered every candidate at r with one traversal."""
    if any(
        not gone[v]
        for child in dead
        for sends in index.sends_to.get(child, {}).values()
        for v in sends
    ):
        return lambda s: True
    waiting = [w for w in oldest.values() if not gone[w]]
    kept: list[list[int] | None] = [None] * len(index.events)

    def infeasible(s: int) -> bool:
        seen = bytearray(len(index.events))
        stack = [w for w in waiting if w != s]
        for w in stack:
            seen[w] = 1
        while stack:
            v = stack.pop()
            if kept[v] is None:
                kept[v] = _kept_succ(index, gone, v)
            for u in kept[v]:
                if u == s:
                    return True
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
        return False

    return infeasible


def _reference_race_report(index: TraceIndex, r: int) -> RaceReport:
    """Every send addressed to r's process checked in turn, and the
    reference gate asked about each that survives the cheap checks: how race
    sets were decided before ``race_report`` read them off
    ``oldest_waiting``."""
    pid, idx, rec = index.events[r]
    oldest = index.oldest_waiting(r)
    after = index.after(r)
    gate: Callable[[int], bool] | None = None  # built for the first survivor
    checks: list[CandidateCheck] = []
    for q, sends in index.sends_to.get(pid, {}).items():
        first = oldest.get(q)
        blocker = None if first is None else index.events[first][2].tag
        for s in sends:
            send = index.events[s][2]
            if send.tag == rec.tag:
                continue
            matches = match(send.value, rec.cs)
            c = index.rec_at.get(send.tag)
            already = c is not None and c < r and index.events[c][0] == pid
            hb_excluded = bool(after[s])
            blocked_by = blocker if first is not None and first < s else None
            survives = matches and not already and not hb_excluded and blocked_by is None
            if survives and gate is None:
                gone = index.cut(r)
                gate = _reference_gate(index, oldest, gone, _dead(index, gone))
            infeasible = survives and gate(s)
            checks.append(
                CandidateCheck(
                    send.tag, q, matches, already, hb_excluded, blocked_by,
                    infeasible, survives and not infeasible,
                )
            )
    checks.sort(key=lambda c: (name_sort_key(c.tag), c.tag))
    racers = {c.tag for c in checks if c.in_race_set}
    return RaceReport(EventId(pid, idx), rec.tag, racers, checks)


def _assert_reports_equal_the_full_scan(t):
    index = valid_index(t)
    for r, (_, _, a) in enumerate(index.events):
        if isinstance(a, Rec):
            reference = _reference_race_report(index, r)
            assert race_report(index, r) == reference, index.loc(r)
            assert racers_at(index, r) == reference.racers, index.loc(r)


# two senders whose tags interleave in table order (sorted_names): each
# sender's later sends, blocked by its oldest waiting message, are every
# other row of the table
INTERLEAVED_SENDERS = Trace(
    "p1",
    {
        "p1": (Spawn("p1.1"), Spawn("p1.2"), Spawn("p1.3")),
        "p1.1": tuple(Rec(f"m{k}", CS_ANY) for k in (1, 2, 4, 3, 5, 6)),
        "p1.2": tuple(Send(f"m{k}", val(k), "p1.1") for k in (1, 3, 5)),
        "p1.3": tuple(Send(f"m{k}", val(k), "p1.1") for k in (2, 4, 6)),
    },
)


@pytest.mark.parametrize(
    "t",
    [_fifo_chain(30), _fanin(5, 3), INTERLEAVED_SENDERS],
    ids=["fifo_chain", "fanin", "interleaved_senders"],
)
def test_wide_race_tables_equal_the_full_scan(t):
    # explain builds each row from columns, and sets a sender's blocked,
    # infeasible and in-race entries by position
    _assert_reports_equal_the_full_scan(t)
    rows = [row for rep in all_races(t) for row in rep.candidates]
    assert rows and all(type(row) is CandidateCheck and len(row) == 8 for row in rows)


@settings(max_examples=300, deadline=None)
@given(traces(max_events=12))
@example(DANGLING_SEND)
@example(REASONS_TRACE)
@example(parse_trace(fixture_text("fix_run.trace")))
@example(parse_trace(fixture_text("fix_tau_a.trace")))
@example(parse_trace(fixture_text("variant_run_l2_l6.trace")))
@example(DIAMOND)
@example(TWO_CHAINS)
@example(WAITING_REACHES_WAITING)
def test_race_report_equals_the_full_scan(t):
    _assert_reports_equal_the_full_scan(t)


@pytest.mark.parametrize(
    "text",
    [fixture_text(f"prog{c}.prog") for c in "abcd"] + [GENCOLL4],
    ids=["proga", "progb", "progc", "progd", "gencoll4"],
)
def test_race_report_equals_the_full_scan_on_explored_traces(text):
    for entry in explore(parse_program(text)).traces.values():
        _assert_reports_equal_the_full_scan(entry.trace)


@settings(max_examples=40, deadline=None)
@given(programs())
def test_race_report_equals_the_full_scan_on_generated_programs(text):
    for entry in explore(parse_program(text)).traces.values():
        _assert_reports_equal_the_full_scan(entry.trace)


# ---------------------------------------------------------------------------
# Orphans
# ---------------------------------------------------------------------------


def test_orphans(tau_a, run_trace):
    assert orphans(tau_a) == {"l2", "l3"}
    assert orphans(run_trace) == {"l7", "l8"}


@settings(max_examples=40, deadline=None)
@given(traces(max_events=7))
def test_orphans_partition_sends(t):
    sent = {a.tag for _, _, a in t.events() if isinstance(a, Send)}
    received = {a.tag for _, _, a in t.events() if isinstance(a, Rec)}
    assert orphans(t) == sent - received
    assert orphans(t) <= sent


# ---------------------------------------------------------------------------
# Race variants
# ---------------------------------------------------------------------------


def test_variant_matches_golden(run_trace):
    v = variant(run_trace, "l2", "l6")
    golden = fixture_text("variant_run_l2_l6.trace")
    assert serialize_trace(v) == golden
    assert v == parse_trace(golden)


def test_variant_small_example(tau_a):
    v = variant(tau_a, "l1", "l3")
    assert v.procs["p2"] == (Rec("l3", tau_a.procs["p2"][0].cs),)
    # nothing follows the receive, so the rest of the trace is untouched
    assert v.procs["p1"] == tau_a.procs["p1"]
    assert v.procs["p3"] == tau_a.procs["p3"]
    assert validate_trace(v) is None


def test_variant_erases_dependent_spawn_chain():
    # the removed send fed p3's receive; everything after that receive goes,
    # including the spawn of p4 and therefore all of p4
    t = Trace(
        "p1",
        {
            "p1": (Spawn("p2"), Spawn("p3"), Send("l1", val(1), "p3")),
            "p2": (Send("l2", val(2), "p3"), Send("l3", val(3), "p3")),
            "p3": (
                Rec("l1", CS_ANY),
                Rec("l2", CS_ANY),
                Spawn("p4"),
                Rec("l3", CS_ANY),
            ),
            "p4": (Send("l4", val(4), "p1"),),
        },
    )
    assert validate_trace(t) is None
    v = variant(t, "l1", "l2")
    assert v.procs["p3"] == (Rec("l2", CS_ANY),)
    assert "p4" not in v.procs
    assert validate_trace(v) is None


def test_variant_rejects_non_racer(run_trace, tau_a):
    with pytest.raises(ValueError, match="not in the race set"):
        variant(run_trace, "l2", "l4")  # value fails the guard
    with pytest.raises(ValueError, match="received earlier"):
        variant(run_trace, "l2", "l1")
    with pytest.raises(ValueError, match="not in the race set"):
        variant(tau_a, "l1", "l9")  # no such send at all


def test_refused_variant_runs_the_gate_once(run_trace, monkeypatch):
    # the refusal explains itself with the racer set it already decided
    calls = []
    gate = races_module._variant_gate

    def counting(*args):
        calls.append(args[1])
        return gate(*args)

    monkeypatch.setattr(races_module, "_variant_gate", counting)
    with pytest.raises(ValueError, match=r"^l1 is not in the race set of l2 \(received earlier\)$"):
        variant(run_trace, "l2", "l1")
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(traces(max_events=7))
def test_variants_are_valid_and_consume_the_racer(t):
    for report in all_races(t):
        pid, idx = report.receive
        for racer in report.racers:
            v = variant(t, report.subject, racer)
            assert validate_trace(v) is None
            rec = v.procs[pid][idx]
            assert isinstance(rec, Rec) and rec.tag == racer
            # the prefix before the rewritten receive is untouched
            assert v.procs[pid][:idx] == t.procs[pid][:idx]
