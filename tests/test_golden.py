"""Golden diagnostics: exact violation texts, candidate tables and CLI output.

These pin the user-visible wording and ordering of diagnostics, so that a
change to how validation or race analysis is computed cannot silently change
what it reports.
"""

import pytest

from racetrace import (
    Rec,
    Send,
    Spawn,
    Trace,
    Violation,
    all_races,
    parse_trace,
    validate_trace,
)
from racetrace.cli import main
from racetrace.terms import Atom, Int, Tup

from conftest import FIXTURES, fixture_text
from strategies import CS_ANY, CS_POS


def val(n):
    return Tup((Atom("val"), Int(n)))


# pids whose string order (p1.10 < p1.3 < p1.9) differs from their canonical
# order (p1.3 < p1.9 < p1.10): the cycle reported depends on visiting
# successors in event-number order, which numbers pids canonically
PID_ORDER_CYCLE = """trace { initial: p1
  p1: spawn(p1.10), spawn(p1.9), spawn(p1.3)
  p1.1.1: rec(p1.3.1, csa), send(p1.1.1.1, {val,0}, p1.10)
  p1.3: rec(p1.1.1, csa), rec(p1.1.2, csa), send(p1.3.1, {val,1}, p1.1.1)
  p1.9: ε
  p1.10: spawn(p1.1.1), rec(p1.1.1.1, csa), send(p1.1.1, {val,2}, p1.3), send(p1.1.2, {val,1}, p1.3) }
constraints { csa: {val,M} -> . }
"""

VIOLATIONS = [
    (
        {
            "p1": (Spawn("p2"), Send("l1", val(1), "p2"), Send("l1", val(2), "p2")),
            "p2": (),
        },
        Violation("a", "p1[2]", "tag l1 sent twice"),
    ),
    (
        {"p1": (Spawn("p2"), Send("l1", val(0), "p2")), "p2": (Rec("l1", CS_POS),)},
        Violation("b", "p2[0]", "value {val,0} does not match csp"),
    ),
    (
        {
            "p1": (Spawn("p2"), Send("l1", val(1), "p2"), Send("l2", val(2), "p2")),
            "p2": (Rec("l2", CS_ANY),),
        },
        Violation("c", "p2[0]", "sender p1 sent matching l1 before l2, not received earlier"),
    ),
    (
        {
            "p1": (Spawn("p2"), Spawn("p3"), Send("l0", val(0), "p2"), Send("l3", val(2), "p2")),
            "p2": (Rec("l3", CS_POS), Rec("l1", CS_ANY)),
            "p3": (Send("l1", val(1), "p2"),),
        },
        Violation(
            "d", "p1[2] -> p1[3] -> p3[0] -> p1[2]", "no linearization can order these events"
        ),
    ),
    (
        parse_trace(PID_ORDER_CYCLE).procs,
        Violation(
            "d",
            "p1.3[0] -> p1.3[1] -> p1.3[2] -> p1.1.1[0] -> p1.1.1[1] -> p1.10[1] "
            "-> p1.10[2] -> p1.3[0]",
            "no linearization can order these events",
        ),
    ),
]


@pytest.mark.parametrize(
    "procs, expected", VIOLATIONS, ids=["a", "b", "c", "d", "d-pid-order"]
)
def test_violation_is_exact(procs, expected):
    bad = validate_trace(Trace("p1", procs))
    assert bad == expected
    assert str(bad) == f"condition {expected.condition} violated at {expected.where}: " + (
        expected.detail
    )


# One trace whose candidates hit every CandidateCheck.reason() kind.
REASONS_TRACE = Trace(
    "p1",
    {
        "p1": (Spawn("p2"), Spawn("p3"), Send("l0", val(0), "p2"), Send("l3", val(2), "p2")),
        "p2": (Rec("l3", CS_POS), Rec("l0", CS_ANY), Send("l7", val(7), "p3")),
        "p3": (
            Send("l1", val(1), "p2"),
            Send("l5", val(5), "p2"),
            Rec("l7", CS_ANY),
            Send("l6", val(6), "p2"),
        ),
    },
)

# (tag, sender, matches, already_received, hb_excluded, blocked_by,
#  infeasible, in_race_set, reason) per candidate, per receive
REASONS = {
    "l3": [
        ("l0", "p1", False, False, False, None, False, False, "value does not match"),
        ("l1", "p3", True, False, False, None, False, True, "races"),
        ("l5", "p3", True, False, False, "l1", False, False, "blocked by earlier send l1"),
        ("l6", "p3", True, False, True, "l1", False, False, "receive happened before send"),
    ],
    "l0": [
        ("l1", "p3", True, False, False, None, True, False,
         "forced behind another matching message in every reordering"),
        ("l3", "p1", True, True, False, "l0", False, False, "received earlier"),
        ("l5", "p3", True, False, False, "l1", False, False, "blocked by earlier send l1"),
        ("l6", "p3", True, False, True, "l1", False, False, "receive happened before send"),
    ],
    "l7": [],
}


def test_every_reason_kind_is_exact():
    assert validate_trace(REASONS_TRACE) is None
    reports = all_races(REASONS_TRACE)
    assert [(r.subject, tuple(r.receive)) for r in reports] == [
        ("l3", ("p2", 0)), ("l0", ("p2", 1)), ("l7", ("p3", 2))
    ]
    for report in reports:
        table = [
            (c.tag, c.sender, c.matches, c.already_received, c.hb_excluded,
             c.blocked_by, c.infeasible, c.in_race_set, c.reason())
            for c in report.candidates
        ]
        assert table == REASONS[report.subject], report.subject
        assert report.racers == {c[0] for c in table if c[7]}


def test_hb_pairs_output_is_exact(capsys):
    code = main(["hb", "--pairs", str(FIXTURES / "fix_run.trace")])
    assert code == 0
    assert capsys.readouterr().out == fixture_text("hb_pairs_run.txt")


def test_races_explain_output_is_exact(capsys):
    code = main(["races", "--explain", str(FIXTURES / "fix_run.trace")])
    assert code == 0
    assert capsys.readouterr().out == fixture_text("races_explain_run.txt")


def test_races_explain_json_output_is_exact(capsys):
    code = main(["--json", "races", "--explain", str(FIXTURES / "fix_run.trace")])
    assert code == 0
    assert capsys.readouterr().out == fixture_text("races_explain_run.json")
