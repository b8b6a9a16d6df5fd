"""TraceIndex against the slow references, validation call counts, and scale."""

import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings

from racetrace import (
    EventId,
    Rec,
    Send,
    SimulationError,
    Spawn,
    Trace,
    all_races,
    enabled,
    enumerate_linearizations,
    explore,
    hb_graph,
    initial_state,
    linearize,
    orphans,
    parse_interleaving,
    parse_program,
    parse_trace,
    race_set,
    replay_prefix,
    run_deterministic,
    run_random,
    serialize_trace,
    step,
    validate_interleaving,
    validate_trace,
    variant,
)
from racetrace import parsing as parsing_module
from racetrace import races as races_module
from racetrace import simulator as simulator_module
from racetrace import terms as terms_module
from racetrace import traces as traces_module
from racetrace.causality import hb_graph_unchecked
from racetrace.cli import main
from racetrace.races import racers_at
from racetrace.terms import Atom, Int, Tup, match
from racetrace.traces import TraceIndex, first_cycle, valid_index

from conftest import FIXTURES, fixture_text, workloads
from families import gencoll
from strategies import CS_ANY, traces
from test_causality import SELF_SEND_AND_EMPTY_CHILD
from test_explore_golden import RUNS, _program
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
# The index against references read off the trace's process sequences
# ---------------------------------------------------------------------------


def _direct_hb(t):
    """t's direct happened-before edges, read off t.procs: program order,
    spawn before the child's first action, send before its receive."""
    sent = {
        a.tag: EventId(pid, i) for pid, i, a in t.events() if isinstance(a, Send)
    }
    edges = {EventId(pid, i): set() for pid, i, _ in t.events()}
    for pid, i, a in t.events():
        e = EventId(pid, i)
        if i + 1 < len(t.procs[pid]):
            edges[e].add(EventId(pid, i + 1))
        if isinstance(a, Spawn) and t.procs.get(a.child):
            edges[e].add(EventId(a.child, 0))
        if isinstance(a, Rec) and a.tag in sent:
            edges[sent[a.tag]].add(e)
    return edges, sent


def _hb_closure(t):
    """Happened-before as event pairs: the direct edges, closed by
    Warshall's algorithm."""
    edges, _ = _direct_hb(t)
    pairs = {(a, b) for a, succ in edges.items() for b in succ}
    for k in edges:
        into = [a for a, b in pairs if b == k]
        out = [b for a, b in pairs if a == k]
        pairs.update((a, b) for a in into for b in out)
    return pairs


def _full_order_cycle(t):
    """The first cycle of a depth-first search over hb edges plus an
    ordering edge from each receive's own send to every other message its
    process could take then (not only the oldest per sender), in the
    order validation searches: roots and successors in event order."""
    edges, sent = _direct_hb(t)
    for pid, i, a in t.events():
        if not isinstance(a, Rec) or a.tag not in sent:
            continue
        consumed = {b.tag for b in t.procs[pid][:i] if isinstance(b, Rec)}
        for q, j, b in t.events():
            if (
                isinstance(b, Send)
                and b.target == pid
                and b.tag not in consumed | {a.tag}
                and match(b.value, a.cs)
            ):
                edges[sent[a.tag]].add(EventId(q, j))
    ids = list(edges)
    number = {e: k for k, e in enumerate(ids)}
    cycle = first_cycle([sorted(number[d] for d in edges[e]) for e in ids])
    return None if cycle is None else [ids[k] for k in cycle]


@settings(max_examples=60, deadline=None)
@given(traces(max_events=7))
@example(SELF_SEND_AND_EMPTY_CHILD)
def test_index_hb_answer_equals_reach(t):
    for m in _swap_mutations(t):
        index = TraceIndex(m)
        ids = [EventId(pid, i) for pid, i, _ in index.events]
        # each direct edge once: a self-send received next has one edge
        direct, _ = _direct_hb(m)
        assert [[ids[w] for w in sorted(succ)] for succ in index.hb_succ] == [
            sorted(direct[e], key=ids.index) for e in ids
        ], m
        after = {
            (ids[v], ids[w])
            for v in range(len(ids))
            for w, hit in enumerate(index.after(v))
            if hit
        }
        closure = _hb_closure(m)
        assert after == closure, m
        assert set(hb_graph_unchecked(m).pairs()) == closure, m


@settings(max_examples=60, deadline=None)
@given(traces(max_events=7))
@example(parse_trace(fixture_text("fix_run.trace")))
def test_pruned_ordering_edges_report_the_full_graphs_cycle(t):
    # validation searches hb edges plus only the oldest waiting message per
    # sender; the reference searches every waiting message. Once (a)-(c)
    # hold, both must report the same cycle, or none. Small generated
    # traces seldom close a cycle through an ordering edge alone; swapping
    # two receives of the running example does.
    for m in _swap_mutations(t):
        bad = validate_trace(m)
        if bad is not None and bad.condition != "d":
            continue
        cycle = _full_order_cycle(m)
        assert hb_graph_unchecked(m).find_cycle() == cycle
        if cycle is None:
            assert bad is None
        else:
            assert bad is not None
            assert bad.where == " -> ".join(f"{p}[{i}]" for p, i in cycle)


@settings(max_examples=200, deadline=None)
@given(traces(max_events=12))
@example(parse_trace(fixture_text("fix_run.trace")))
@example(parse_trace(fixture_text("fix_tau_a.trace")))
@example(parse_trace(fixture_text("variant_run_l2_l6.trace")))
@example(REASONS_TRACE)
def test_matches_is_terms_match(t):
    # receives of csa and csb share answers, csp's guard keeps its own; the
    # running example's cs1/cs2 and cs3/cs4 have equal clauses too
    index = TraceIndex(t)
    for r, (_, _, rec) in enumerate(index.events):
        for s, (_, _, send) in enumerate(index.events):
            if isinstance(rec, Rec) and isinstance(send, Send):
                assert index.matches(s, r) == match(send.value, rec.cs), (s, r)


def _reference_oldest_waiting(index, r):
    """oldest_waiting by a scan of each sender's sends from its first, for
    every receive afresh. A send counts as consumed before r if its tag's
    first receive is in r's process and before r."""
    oldest = {}
    pid, _, rec = index.events[r]
    for q, sends in index.sends_to.get(pid, {}).items():
        for s in sends:
            send = index.events[s][2]
            c = index.rec_at.get(send.tag)
            consumed = c is not None and c < r and index.events[c][0] == pid
            if not consumed and match(send.value, rec.cs):
                oldest[q] = s
                break
    return oldest


@settings(max_examples=200, deadline=None)
@given(traces(max_events=12))
@example(parse_trace(fixture_text("fix_run.trace")))
def test_oldest_waiting_equals_a_rescan_per_receive(t):
    # invalid mutations included; a process's last receive is asked first
    for m in _swap_mutations(t):
        index = TraceIndex(m)
        for r in reversed(range(len(index.events))):
            if isinstance(index.events[r][2], Rec):
                assert index.oldest_waiting(r) == _reference_oldest_waiting(index, r), m


# ---------------------------------------------------------------------------
# Each public entry point validates its input once
# ---------------------------------------------------------------------------


def _record_calls(monkeypatch, original, arg=lambda a: a):
    """The first arguments passed to `original`, wherever racetrace calls
    it, each as arg(argument): a function or class bound in a racetrace
    module, or a method of a class bound there (its first argument is
    self)."""
    seen = []

    def counting(first, *rest):
        seen.append(arg(first))
        return original(first, *rest)

    _replace_everywhere(monkeypatch, original, counting)
    return seen


def _record_tables(monkeypatch):
    """The candidate tables ``races.explain`` returns, wherever racetrace
    calls it. It builds its rows with ``tuple.__new__``, not by calling
    ``CandidateCheck``, so no patch of the class would see them."""
    tables = []
    explain = races_module.explain

    def recording(*args):
        tables.append(explain(*args))
        return tables[-1]

    _replace_everywhere(monkeypatch, explain, recording)
    return tables


def _replace_everywhere(monkeypatch, original, replacement):
    """Bind replacement wherever a racetrace module, or a class bound in
    one, binds original."""
    for name, module in list(sys.modules.items()):
        if name == "racetrace" or name.startswith("racetrace."):
            classes = [v for v in vars(module).values() if isinstance(v, type)]
            for owner in [module, *classes]:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        monkeypatch.setattr(owner, attr, replacement)


@pytest.fixture
def validated(monkeypatch):
    """The traces passed to validate_trace, wherever racetrace calls it."""
    return _record_calls(
        monkeypatch,
        traces_module.validate_trace,
        lambda t: t.trace if isinstance(t, TraceIndex) else t,
    )


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
        for racer in report.racers:
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
    for entry in report.traces.values():
        assert sum(v is entry.trace for v in validated) == 1
    # no variant is indexed or validated: the gate admitted it on its
    # parent's index, and its replay order is read off the same index
    assert report.variants_enqueued > 0
    assert len(validated) == len(report.traces)
    assert indexed == validated
    # every racer counted is enqueued once, a duplicate at r', or asleep
    assert report.sleeping > 0
    assert sum(entry.races for entry in report.traces.values()) == (
        report.variants_enqueued + report.duplicate_variants + report.sleeping
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["hb", "fix_run.trace"],
        ["races", "fix_run.trace"],
        ["variant", "fix_run.trace", "--receive", "l2", "--with", "l6"],
        ["orphans", "fix_run.trace"],
        ["replay", "proga.prog", "--prefix", "fix_tau_a.trace"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_trace_command_validates_its_input_once(argv, validated, capsys):
    # the command validates the trace and hands the index to the analysis
    paths = [str(FIXTURES / a) if a.endswith((".trace", ".prog")) else a for a in argv]
    assert main(paths) == 0
    capsys.readouterr()
    trace_file = next(a for a in argv if a.endswith(".trace"))
    assert validated == [parse_trace(fixture_text(trace_file))]


def test_equiv_validates_each_input_once(monkeypatch, capsys):
    seen = _record_calls(monkeypatch, traces_module.validate_interleaving)
    names = ["fix_s_a.itl", "fix_s_b.itl"]
    assert main(["equiv", *(str(FIXTURES / n) for n in names)]) == 0
    capsys.readouterr()
    assert seen == [parse_interleaving(fixture_text(n)) for n in names]


def test_an_index_is_validated_until_it_passes(run_trace, validated):
    bad = Trace("p1", {"p1": (Rec("l1", CS_ANY),)})
    index = TraceIndex(bad)
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid trace: condition b"):
            valid_index(index)
    with pytest.raises(ValueError, match="invalid trace: condition b"):
        race_set(TraceIndex(bad), "l1")
    assert len(validated) == 3

    # an index that passed is taken as it is
    validated.clear()
    index = valid_index(run_trace)
    assert valid_index(index) is index
    assert [r.racers for r in all_races(index)] == [r.racers for r in all_races(run_trace)]
    assert validated == [run_trace, run_trace]


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


def test_each_step_evaluates_a_process_once(monkeypatch, progc):
    # replay_order evaluates the program's action once, checks it against
    # the log and, in the simulator's own names, applies the equal logged
    # action: one evaluation per event
    t, _ = run_random(progc, 2)
    order = linearize(t).events
    evaluated = _record_calls(monkeypatch, simulator_module._next_action)
    sys = initial_state(progc)
    simulator_module.replay_order(sys, order)
    assert sys.trace() == t
    assert len(evaluated) == len(order)
    assert all(a is b for pid, seq in sys.trace().procs.items() for a, b in zip(seq, t.procs[pid]))

    # a scheduler evaluates each process once when the run starts, and
    # after each step only the processes that step touched: the one that
    # stepped, a spawned child, and a send's target unless it is enabled
    # (their order is pinned against the reference scheduler in
    # test_simulator). The message arrived last, so it can change only a
    # blocked receive. Stepping the same picks by hand gives the count:
    # three of this run's sends find their target enabled
    pick, sys = random.Random(5).randrange, initial_state(progc)
    touched, skipped = Counter(list(sys.procs)), 0
    while nexts := enabled(sys):
        pid, a = nexts[pick(len(nexts))]
        step(sys, pid)
        touched[pid] += 1
        if isinstance(a, Spawn):
            touched[a.child] += 1
        elif isinstance(a, Send) and a.target in dict(nexts):
            skipped += 1
        elif isinstance(a, Send):
            touched[a.target] += 1
    pids = []
    counting = simulator_module._next_action
    monkeypatch.setattr(
        simulator_module,
        "_next_action",
        lambda sys, pid, *since: pids.append(pid) or counting(sys, pid, *since),
    )
    t, _ = run_random(progc, 5)
    assert t == sys.trace()
    assert Counter(pids) == touched
    # evaluating every process at every step made 34 calls here, and
    # evaluating every send's target again 17
    assert (len(pids), skipped) == (14, 3)


def test_explore_replays_from_the_initial_state(monkeypatch):
    # every variant is replayed from initial_state: no state is copied
    clones = _record_calls(monkeypatch, simulator_module.SysState.clone)
    assert len(explore(parse_program(gencoll(4)), seed=1).traces) == 24
    assert clones == []


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
    s = linearize(t)
    assert len(s.events) == 2001
    assert validate_interleaving(s) is None
    # the chain has many linearizations: cap=1 finds the first 2001 events
    # deep, then stops at the second
    with pytest.raises(ValueError, match="more than 1 linearizations"):
        enumerate_linearizations(t, cap=1)


def test_race_tables_match_each_message_once_per_clause_list(monkeypatch):
    # a match per (receive, send) pair and a sort per receive made 40 200
    # match and 39 802 name_sort_key calls here
    t = _fifo_chain(200)
    matched = _record_calls(monkeypatch, terms_module.match)
    sort_keys = _record_calls(monkeypatch, parsing_module.name_sort_key)
    reports = all_races(t)
    assert sum(len(rep.candidates) for rep in reports) == 200 * 199
    assert len(matched) <= 200  # 200 sends, one clause list
    assert len(sort_keys) <= 401  # the events


def test_hb_pairs_sorts_each_pid_once(monkeypatch, tmp_path, capsys):
    # the CLI sorted the edges and the 80 200 pairs by name_sort_key of both
    # ends: 121 802 calls here
    t = _fifo_chain(200)
    path = tmp_path / "fifo.trace"
    path.write_text(serialize_trace(t))
    pairs = len(set(hb_graph(t).pairs()))
    sort_keys = _record_calls(monkeypatch, parsing_module.name_sort_key)
    assert main(["hb", "--pairs", str(path)]) == 0
    assert capsys.readouterr().out.count(" ~> ") == pairs
    assert len(sort_keys) <= 2 * len(t.procs)


def test_races_sorts_each_pid_and_tag_once(monkeypatch, tmp_path, capsys):
    # each report sorted its racers by name_sort_key: 45 452 calls here
    t, _ = run_random(parse_program(gencoll(300)), 1)
    sends = sum(isinstance(a, Send) for seq in t.procs.values() for a in seq)
    path = tmp_path / "gencoll.trace"
    path.write_text(serialize_trace(t))
    sort_keys = _record_calls(monkeypatch, parsing_module.name_sort_key)
    assert main(["races", str(path)]) == 0
    assert capsys.readouterr().out.count(" rec(") == 300
    assert len(sort_keys) <= 2 * (len(t.procs) + sends)


def test_races_without_explain_builds_no_candidate_row(monkeypatch, tmp_path, capsys):
    # plain races and races --message built every receive's candidate table
    # to print only its racers: 9 900 rows per plain run here
    t, _ = run_random(parse_program(gencoll(100)), 1)
    path = tmp_path / "gencoll.trace"
    path.write_text(serialize_trace(t))
    tables = _record_tables(monkeypatch)
    tag = next(a.tag for a in t.procs["p1.1"])
    for args in (["races"], ["races", "--message", tag], ["--json", "races"]):
        assert main([*args, str(path)]) == 0
    assert capsys.readouterr().out.count("p1.") > 100
    assert tables == []
    assert main(["races", "--explain", "--message", tag, str(path)]) == 0
    assert [len(rows) for rows in tables] == [99]


def test_race_tables_read_one_match_column_per_clause_list(monkeypatch):
    # a TraceIndex.matches call per table row made 40 200 here; validation,
    # oldest_waiting and the receiver's one match column make about 200 each
    t = _fifo_chain(200)
    asked = _record_calls(monkeypatch, TraceIndex.matches)
    reports = all_races(t)
    assert sum(len(rep.candidates) for rep in reports) == 200 * 199
    assert len(asked) <= 600


def _blocked_collector(n):
    """main spawns a collector, n generators that each send it {a,N}, and
    a last process that sends it {b,0}; the collector waits for {b,X}, then
    takes the n a's."""
    spawns = "".join(f"; spawn gen(C, {k})" for k in range(1, n + 1))
    receives = "; ".join(["receive { {b,X} -> X }"] + ["receive { {a,X} -> X }"] * n)
    return parse_program(
        "program { main main\n"
        f"  def main() {{ C = spawn collector(){spawns}; spawn last(C) }}\n"
        "  def gen(C, N) { send {a,N} to C }\n"
        "  def last(C) { send {b,0} to C }\n"
        f"  def collector() {{ {receives} }} }}\n"
    )


def test_a_blocked_receive_matches_each_arrival_once(monkeypatch):
    # the smallest-pid scheduler sends the n a's while the collector waits
    # for {b,X}: one match per arrival, one for b, then one per a taken
    # after the first receive. Matching the whole mailbox at each arrival
    # made n(n+1)/2 + 2n + 1 matches: 126 251 at n = 500
    for n in (250, 500):
        matched = _record_calls(monkeypatch, terms_module.first_match)
        t, outcome = run_deterministic(initial_state(_blocked_collector(n)))
        assert (str(outcome), len(t.events())) == ("completed", 3 * n + 4)
        assert [a.tag for a in t.procs["p1.1"][:2]] == [f"p1.{n + 2}.1", "p1.2.1"]
        assert len(matched) == 2 * n + 1
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# Race decisions without their explanation
# ---------------------------------------------------------------------------


def _one_sender(n):
    """main sends n {val,i} to one receiver, which makes n receives: one
    trace, and no race at any receive."""
    sends = "".join(f"; send {{val,{i}}} to C" for i in range(1, n + 1))
    receives = "; ".join("receive { {val,X} -> X }" for _ in range(n))
    return (
        f"program {{ main main\n  def main() {{ C = spawn collector(){sends} }}\n"
        f"  def collector() {{ {receives} }} }}\n"
    )


def test_explore_and_variant_build_no_candidate_table(monkeypatch, progb, run_trace):
    # explore built 1 300 rows at n=5 when it read race reports
    tables = _record_tables(monkeypatch)
    assert len(explore(parse_program(gencoll(5)), seed=1).traces) == 120
    assert len(explore(progb).traces) == 4
    assert variant(run_trace, "l2", "l6").procs["p3"][2].tag == "l6"
    assert tables == []
    # a refusal still words its reason from the table
    with pytest.raises(ValueError, match=r"l1 is not in the race set of l2 \(received earlier\)"):
        variant(run_trace, "l2", "l1")
    assert len(tables) == 1 and tables[0]


def _fanin(k, m):
    """k senders each send m {val,i} to p1.1, which receives them round by
    round: every receive but the last races."""
    senders = [f"p1.{j}" for j in range(2, k + 2)]
    procs = {"p1": tuple(Spawn(f"p1.{j}") for j in range(1, k + 2))}
    procs["p1.1"] = tuple(Rec(f"{q}.{i}", CS_ANY) for i in range(1, m + 1) for q in senders)
    for q in senders:
        procs[q] = tuple(Send(f"{q}.{i}", val(i), "p1.1") for i in range(1, m + 1))
    return Trace("p1", procs)


def test_race_tables_walk_once_per_receive(monkeypatch):
    # the table reads the cut the race decision marked, and walks from a
    # receive itself only where the decision did not (the last one here)
    walks = _record_calls(monkeypatch, TraceIndex.after)
    reports = all_races(_fanin(3, 2))
    assert [len(rep.racers) for rep in reports] == [2, 2, 2, 2, 1, 0]
    assert len(walks) == len(reports)


def test_the_validity_gate_reads_each_edge_list_once_per_receive(monkeypatch):
    # one traversal per candidate read kept edge lists 31 730 times here:
    # each of a receive's up to 19 candidates walked from the other waiting
    # messages
    reads = []

    class CountedReads(list):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    kept_succ = races_module._kept_succ
    monkeypatch.setattr(races_module, "_kept_succ", lambda *a: CountedReads(kept_succ(*a)))
    k, m = 20, 3
    index = valid_index(_fanin(k, m))
    receives = [r for r, (_, _, a) in enumerate(index.events) if isinstance(a, Rec)]
    assert (len(index.events), len(receives)) == (141, 60)
    senders = [f"p1.{j}" for j in range(2, k + 2)]
    consumed = dict.fromkeys(senders, 0)
    for r in receives:
        reads.clear()
        racers = racers_at(index, r)
        assert len(reads) <= len(index.events), index.loc(r)
        # every other sender's oldest unconsumed message races
        q = index.events[r][2].tag.rsplit(".", 1)[0]
        assert racers == {
            f"{p}.{consumed[p] + 1}" for p in senders if p != q and consumed[p] < m
        }, index.loc(r)
        consumed[q] += 1


def test_each_receive_is_walked_once_per_index(monkeypatch, run_trace):
    # explore's shared-prefix test, the race decision and each variant order
    # read one cut per receive; when each walked its own, gencoll n=5 made
    # 718 walks, up to 5 from one receive of one index
    walks = []
    after = TraceIndex.after

    def counting(index, v):
        walks.append((index, v))  # holds the index, so no id is reused
        return after(index, v)

    monkeypatch.setattr(TraceIndex, "after", counting)
    assert len(explore(parse_program(workloads.gencoll_program(5, 1)), seed=1).traces) == 120
    assert len(walks) == 480
    for name, seed, max_traces in RUNS:
        explore(_program(name), seed=seed, max_traces=max_traces)
    progd = parse_program(fixture_text("progd.prog"))
    for seed in range(6):
        explore(progd, seed=seed)
    variant(run_trace, "l2", "l6")
    assert Counter((id(index), v) for index, v in walks).most_common(1)[0][1] == 1


def test_explore_without_races_walks_from_no_receive(monkeypatch):
    # with the candidate table, every receive walked after(r): quadratic
    walks = _record_calls(monkeypatch, TraceIndex.after)
    report = explore(parse_program(_one_sender(500)))
    assert len(report.traces) == 1 and report.variants_enqueued == 0
    assert walks == []


def test_2001_event_chain_with_one_linearization():
    t = _ping_pong(500)
    assert validate_trace(t) is None
    (only,) = enumerate_linearizations(t, cap=1)
    assert len(only.events) == 2001
    assert only == linearize(t)
