"""TraceIndex against the slow references, validation call counts, and scale."""

import sys

import pytest
from hypothesis import given, settings

from racetrace import (
    EventId,
    Rec,
    Send,
    SimulationError,
    Spawn,
    Trace,
    all_races,
    enumerate_linearizations,
    explore,
    hb_graph,
    initial_state,
    linearize,
    orphans,
    parse_program,
    parse_trace,
    race_set,
    replay_prefix,
    run_deterministic,
    run_random,
    step,
    validate_trace,
    variant,
)
from racetrace import traces as traces_module
from racetrace.causality import hb_graph_unchecked
from racetrace.terms import Atom, Int, Tup
from racetrace.traces import TraceIndex

from conftest import fixture_text
from strategies import CS_ANY, traces
from test_golden import REASONS_TRACE


def val(n):
    return Tup((Atom("val"), Int(n)))


def _swap_mutations(t):
    """t itself, then t with two adjacent actions of one process swapped,
    once per process with at least two actions: often invalid."""
    yield t
    for pid, seq in t.procs.items():
        for i in range(len(seq) - 1):
            procs = dict(t.procs)
            procs[pid] = seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2 :]
            yield Trace(t.initial, procs)


# ---------------------------------------------------------------------------
# The index against HbGraph.reach and HbGraph.find_cycle
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(traces(max_events=7))
def test_index_hb_answer_equals_reach(t):
    for m in _swap_mutations(t):
        index = TraceIndex(m)
        graph = hb_graph_unchecked(m)
        ids = [EventId(pid, i) for pid, i, _ in index.events]
        for r, (_, _, a) in enumerate(index.events):
            if not isinstance(a, Rec):
                continue
            after = index.after(r)
            for v, dst in enumerate(ids):
                assert bool(after[v]) == graph.reach(ids[r], dst), (m, ids[r], dst)


@settings(max_examples=60, deadline=None)
@given(traces(max_events=7))
def test_pruned_ordering_edges_report_the_full_graphs_cycle(t):
    # validation searches hb edges plus only the oldest waiting message per
    # sender; HbGraph.find_cycle searches every ordering constraint. Once
    # (a)-(c) hold, both must report the same cycle, or none.
    for m in _swap_mutations(t):
        bad = validate_trace(m)
        if bad is not None and bad.condition != "d":
            continue
        cycle = hb_graph_unchecked(m).find_cycle()
        if cycle is None:
            assert bad is None
        else:
            assert bad is not None
            assert bad.where == " -> ".join(f"{p}[{i}]" for p, i in cycle)


# ---------------------------------------------------------------------------
# Each public entry point validates its input once
# ---------------------------------------------------------------------------


@pytest.fixture
def validated(monkeypatch):
    """The traces passed to validate_trace, wherever racetrace calls it."""
    seen = []
    original = traces_module.validate_trace

    def counting(t):
        seen.append(t.trace if isinstance(t, TraceIndex) else t)
        return original(t)

    for name, module in list(sys.modules.items()):
        if name == "racetrace" or name.startswith("racetrace."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return seen


def _gates(reports):
    return sum(c.in_race_set or c.infeasible for rep in reports for c in rep.candidates)


@pytest.mark.parametrize(
    "t", [parse_trace(fixture_text("fix_run.trace")), REASONS_TRACE], ids=["run", "reasons"]
)
def test_race_analysis_validates_once(t, validated):
    # the validity gates run on the index of t: none validates a variant
    reports = all_races(t)
    assert _gates(reports) > 0
    assert validated == [t]

    for rep in reports:
        validated.clear()
        report = race_set(t, rep.subject)
        assert validated == [t]
        for racer in report.sorted_racers():
            validated.clear()
            variant(t, rep.subject, racer)
            assert validated == [t]


def test_orphans_hb_graph_and_replay_validate_once(run_trace, proga, validated):
    for call in (lambda: orphans(run_trace), lambda: hb_graph(run_trace)):
        validated.clear()
        call()
        assert validated == [run_trace]
    prefix, _ = run_random(proga, seed=0)
    validated.clear()
    replay_prefix(proga, prefix)
    assert validated == [prefix]


def test_explore_indexes_and_validates_each_trace_once(gencoll4, validated, monkeypatch):
    indexed = []
    init = TraceIndex.__init__

    def counting_init(self, t):
        indexed.append(t)
        init(self, t)

    monkeypatch.setattr(TraceIndex, "__init__", counting_init)
    report = explore(gencoll4, seed=0)
    assert len(report.traces) == 24 and not report.bounded
    for t in report.traces.values():
        assert sum(v is t for v in validated) == 1
    # no variant is indexed or validated: the gate admitted it on its
    # parent's index, and its replay order is read off the same index
    assert report.variants_enqueued > 0
    assert len(validated) == len(report.traces)
    assert indexed == validated
    # every racer counted is enqueued once, found pending, or asleep
    assert report.sleeping > 0
    assert sum(report.race_counts.values()) == (
        report.variants_enqueued + report.duplicate_variants + report.sleeping
    )


# A program whose main process ends in a send to a non-pid, after it has
# sent its child a message
BAD_TARGET = """program { main f
  def f() { P = spawn g(); send {val,1} to P; X = foo; send {val,2} to X }
  def g() { receive { {val,N} -> N } } }
"""
BAD_TARGET_PREFIX = """trace { initial: p1
  p1: spawn(p1.1), send(p1.1, {val,1}, p1.1)
  p1.1: %s }
constraints { cs1: {val,N} -> . }
"""


def test_only_the_stepped_process_is_evaluated():
    program = parse_program(BAD_TARGET)
    for run in (
        lambda: explore(program),
        lambda: run_random(program, 0),
        lambda: run_deterministic(initial_state(program)),
    ):
        with pytest.raises(SimulationError, match="not a pid"):
            run()

    # replaying p1.1's receive does not evaluate p1's pending send
    sys, _ = replay_prefix(program, parse_trace(BAD_TARGET_PREFIX % "rec(p1.1, cs1)"))
    with pytest.raises(SimulationError, match="not a pid"):
        run_deterministic(sys)

    sys, _ = replay_prefix(program, parse_trace(BAD_TARGET_PREFIX % "ε"))
    with pytest.raises(SimulationError, match="not a pid"):
        step(sys, "p1")
    with pytest.raises(SimulationError, match="pid p9 is not enabled"):
        step(sys, "p9")
    assert step(sys, "p1.1") == Rec("p1.1", sys.program.defs["g"].body[0].cs)


# ---------------------------------------------------------------------------
# Scale: no recursion limit, no quadratic rescans
# ---------------------------------------------------------------------------


def _fifo_chain(n):
    """p1 sends n matching messages to p1.1, which receives them all."""
    return Trace(
        "p1",
        {
            "p1": (Spawn("p1.1"),)
            + tuple(Send(f"l{k}", val(k), "p1.1") for k in range(1, n + 1)),
            "p1.1": tuple(Rec(f"l{k}", CS_ANY) for k in range(1, n + 1)),
        },
    )


def _ping_pong(rounds):
    """p1 and p1.1 take turns: a fully ordered trace, one linearization."""
    p1, p2 = [Spawn("p1.1")], []
    for k in range(1, rounds + 1):
        p1 += [Send(f"a{k}", val(k), "p1.1"), Rec(f"b{k}", CS_ANY)]
        p2 += [Rec(f"a{k}", CS_ANY), Send(f"b{k}", val(k), "p1")]
    return Trace("p1", {"p1": tuple(p1), "p1.1": tuple(p2)})


def test_2001_event_fifo_chain():
    t = _fifo_chain(1000)
    assert validate_trace(t) is None
    assert len(linearize(t).events) == 2001
    # the chain has many linearizations: cap=1 finds the first 2001 events
    # deep, then stops at the second
    with pytest.raises(ValueError, match="more than 1 linearizations"):
        enumerate_linearizations(t, cap=1)


def test_2001_event_chain_with_one_linearization():
    t = _ping_pong(500)
    assert validate_trace(t) is None
    (only,) = enumerate_linearizations(t, cap=1)
    assert len(only.events) == 2001
    assert only == linearize(t)
