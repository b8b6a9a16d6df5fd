import functools

import pytest
from hypothesis import example, given, settings

from racetrace import (
    DivergenceError,
    ExploredTrace,
    Interleaving,
    Origin,
    Rec,
    Trace,
    distinctness_check,
    enumerate_executions,
    explore,
    parse_program,
    replay_prefix,
    run_deterministic,
    serialize_trace,
    tr,
    validate_trace,
    variant,
)
from racetrace import explorer as explorer_module
from racetrace import parsing, terms
from racetrace.races import racers_at, variant_order
from racetrace.terms import Clause, Constraint, GTrue, Wildcard
from racetrace.traces import valid_index

from conftest import GENCOLL4, fixture_text, workloads
from families import gencoll
from strategies import programs
from test_explore_golden import RUNS, _program, _run_id
from test_index import _record_calls
from test_races import reference_variant


def test_explorer_reaches_every_execution(proga, progb, progc):
    for program, expected in ((proga, 2), (progb, 4), (progc, 5)):
        report = explore(program, seed=0)
        full = set(enumerate_executions(program)[0])
        assert set(report.traces) == full
        assert len(report.traces) == expected
        assert not report.bounded
        assert report.divergences == 0
        assert report.step_limited == 0


@pytest.mark.parametrize("seed", [1, 2, 17, 123])
def test_explorer_covers_all_traces_from_any_seed(progc, seed):
    full = set(enumerate_executions(progc)[0])
    assert set(explore(progc, seed=seed).traces) == full


def _assert_orders_key_variants(report):
    """A variant order stands for its variant trace: over every racer of
    every explored trace, equal variant traces must be equal orders (equal
    orders are equal traces, as the trace is projected from the order), so
    orders that differ are variants that differ. Returns how many variants
    repeat."""
    by_key = {}
    pairs = 0
    for entry in report.traces.values():
        t = entry.trace
        index = valid_index(t)
        for r, (_, _, a) in enumerate(index.events):
            if not isinstance(a, Rec):
                continue
            for racer in racers_at(index, r):
                order = variant_order(index, r, racer)
                key = serialize_trace(tr(Interleaving(t.initial, order)))
                assert by_key.setdefault(key, order) == order
                pairs += 1
    return pairs - len(by_key)


def _explore_building_each_order_once(program, seed=0, max_traces=10000):
    """explore's report, checked to build each variant order once and only
    the ones it enqueues: every order ``variant_order`` returns to it differs
    from the others."""
    built = []

    def building(*args):
        built.append(variant_order(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer_module, "variant_order", building)
        report = explore(program, seed=seed, max_traces=max_traces)
    assert len(built) == report.variants_enqueued
    assert len(set(built)) == len(built)
    return report


@pytest.mark.parametrize("run", RUNS, ids=[_run_id(*r) for r in RUNS])
def test_no_variant_order_is_built_twice_on_the_golden_runs(run):
    name, seed, max_traces = run
    _explore_building_each_order_once(_program(name), seed, max_traces)


def test_no_variant_order_is_built_twice_on_gencoll5():
    report = _explore_building_each_order_once(parse_program(gencoll(5)), seed=1)
    assert (len(report.traces), report.variants_enqueued) == (120, 119)
    assert (report.duplicate_variants, report.sleeping) == (41, 160)


def test_explore_sorts_each_traces_pids_once(monkeypatch):
    # the simulator keys no pid, and a trace it hands over keeps its
    # state's canonical order, so no trace sorts its pids; the calls left
    # are racer tags and each constraint's id, once per constraint. The
    # simulator's own keys and a sort of the pids per listing made 3 440,
    # a sort of each key's constraint ids 1 760, and a sort of each
    # trace's pids when it was built 1 165
    program = parse_program(workloads.gencoll_program(5, 1))
    calls = []
    key = parsing.name_sort_key

    def counting(name):
        calls.append(name)
        return key(name)

    monkeypatch.setattr(parsing, "name_sort_key", counting)
    report = explore(program, seed=1)
    assert len(report.traces) == 120 and len(calls) <= 325
    (pids,) = {tuple(entry.trace.procs) for entry in report.traces.values()}
    assert [calls.count(pid) for pid in pids] == [0] * len(pids)


def test_the_keys_render_each_constraint_once(monkeypatch):
    # a constraint keeps its text and sort key, so the keys that explore
    # and distinctness_check build render each distinct constraint once,
    # and distinctness_check keys no name. Each key rendered every
    # constraint and sorted their ids anew: at n=5, 1 200 constraint
    # renderings and 600 name_sort_key calls in distinctness_check
    program = parse_program(workloads.gencoll_program(4, 1))
    clauses = _record_calls(monkeypatch, terms.render_clause)
    report = explore(program, seed=1)
    sort_keys = _record_calls(monkeypatch, parsing.name_sort_key)
    assert distinctness_check(report) is None
    assert (len(report.traces), len(clauses), sort_keys) == (24, 4, [])


def test_a_constraint_changed_under_its_id_changes_the_key():
    # the kept text belongs to the constraint, not to its id: a receive
    # given other clauses under the same id renders them, so the trace no
    # longer serializes to the key it is stored under
    report = explore(parse_program(workloads.gencoll_program(4, 1)), seed=1)
    key, entry = next(iter(report.traces.items()))
    t = entry.trace
    pid, i, rec = next(e for e in t.events() if isinstance(e[2], Rec))
    assert rec.cs.text in key
    other = Constraint(rec.cs.cs_id, (Clause(Wildcard(), GTrue()),))
    seq = t.procs[pid]
    changed = Trace(t.initial, {**t.procs, pid: seq[:i] + (Rec(rec.tag, other),) + seq[i + 1 :]})
    report.traces[key] = ExploredTrace(
        changed, entry.outcome, entry.orphans, entry.races, entry.origin
    )
    assert distinctness_check(report) == f"trace under key {key!r} does not serialize to its key"


# progd: a proxy forwards one of two messages to the collector. A variant
# at the proxy's receive changes which message the forwarded tag carries,
# so the collector's receive, shared with the parent, races anew.
@pytest.mark.parametrize("seed", range(6))
def test_explorer_reharvests_a_shared_receive_whose_context_changed(seed):
    program = parse_program(fixture_text("progd.prog"))
    report = _explore_building_each_order_once(program, seed)
    expected, limited = enumerate_executions(program)
    assert (set(report.traces), limited) == (set(expected), 0)
    assert len(report.traces) == 4
    assert distinctness_check(report) is None
    _assert_orders_key_variants(report)


@settings(max_examples=100, deadline=None)
@given(programs())
@example(fixture_text("progd.prog"))
def test_explorer_reaches_every_execution_of_generated_programs(text):
    program = parse_program(text)
    full, limited = enumerate_executions(program)
    assert limited == 0
    for seed in range(3):
        report = explore(program, seed=seed)
        assert set(report.traces) == set(full)
        assert report.divergences == 0


def _assert_rebuilt_from_origins(program, report, max_steps):
    """Each trace with an origin is what replaying its variant from
    ``initial_state`` and continuing deterministically gives, the variant
    rebuilt independently: by ``rdep`` from the parent trace, then replayed
    by ``replay_prefix`` along its ``linearize`` order instead of the
    explorer's ``variant_order``."""
    for key in report.order:
        origin = report.traces[key].origin
        if origin is None:
            continue
        parent = report.traces[origin.parent_key].trace
        prefix = reference_variant(parent, *origin.replaced_at, origin.new_tag)
        sys, _ = replay_prefix(program, prefix)
        assert run_deterministic(sys, max_steps)[0].key() == key


@pytest.mark.parametrize("max_steps", [10000, 9, 6])  # 6 and 9 cut some runs short
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "text",
    [fixture_text(f"prog{c}.prog") for c in "abcd"] + [GENCOLL4],
    ids=["proga", "progb", "progc", "progd", "gencoll4"],
)
def test_explored_traces_equal_replays_of_rebuilt_variants(text, seed, max_steps):
    program = parse_program(text)
    report = explore(program, seed=seed, max_steps=max_steps)
    assert report.divergences == 0
    _assert_rebuilt_from_origins(program, report, max_steps)
    repeats = _assert_orders_key_variants(report)
    if text == GENCOLL4 and max_steps == 10000:
        assert repeats > 0  # the same variant is reached from several traces


@functools.lru_cache(maxsize=None)
def _reachable_within(text, max_steps):
    return set(enumerate_executions(parse_program(text), max_steps)[0])


@pytest.mark.parametrize("max_steps", [9, 6])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "text",
    [fixture_text(f"prog{c}.prog") for c in "abcd"] + [GENCOLL4],
    ids=["proga", "progb", "progc", "progd", "gencoll4"],
)
def test_the_step_budget_counts_from_the_initial_state(text, seed, max_steps):
    # a run continued after a replayed prefix once got max_steps more steps,
    # and recorded traces no run within max_steps steps reaches
    report = explore(parse_program(text), seed=seed, max_steps=max_steps)
    for key, entry in report.traces.items():
        assert sum(map(len, entry.trace.procs.values())) <= max_steps
        if entry.outcome.kind != "step-limit":
            assert key in _reachable_within(text, max_steps)


# a server that takes three messages, and two clients that each send one
# and respawn: no run of it ends
NEVER_STOPPING = """program { main main
  def main() { S = spawn server(); spawn client(S, 1); spawn client(S, 2) }
  def server() { receive { {val,X} -> X }; receive { {val,X} -> X }; receive { {val,X} -> X } }
  def client(S, N) { send {val,N} to S; spawn client(S, N) } }
"""


def test_a_program_that_never_stops_reaches_its_fixpoint_within_the_budget():
    # when each continuation got a fresh budget, every replay grew its trace
    # by up to 300 events, and the search stopped at max_traces
    report = explore(parse_program(NEVER_STOPPING), max_steps=300, max_traces=20)
    assert not report.bounded
    assert len(report.traces) == 8
    assert report.step_limited == 8
    assert all(sum(map(len, e.trace.procs.values())) <= 300 for e in report.traces.values())


@settings(max_examples=60, deadline=None)
@given(programs())
def test_explored_traces_equal_replays_of_rebuilt_variants_on_generated_programs(text):
    program = parse_program(text)
    for seed in range(3):
        report = _explore_building_each_order_once(program, seed)
        _assert_rebuilt_from_origins(program, report, 10000)
        _assert_orders_key_variants(report)
        _assert_rewritten_receive_repeats_its_parent(report)


# When p1.2's only event, a receive, takes p1.1's go, sent after p1.1's
# second receive, a variant there keeps the spawn of p1.2 and none of its
# events. In the replay p1.2 can take s instead, so its reply pp can race
# at p1.1's first receive, which the variant shares with its parent.
SPAWNED_WITHOUT_EVENTS = """program { main main
  def main() { spawn a(); spawn p(); spawn s(); spawn t();
    send {a,1} to <p1.1>; send {b,1} to <p1.1>; send k to <p1.3> }
  def a() { receive { X -> ok }; receive { {b,Y} -> ok }; send go to <p1.2>;
    receive { Z -> ok }; receive { W -> ok } }
  def p() { receive { X -> send pp to <p1.1> } }
  def s() { receive { k -> send s to <p1.2> } }
  def t() { send {b,2} to <p1.1> } }
"""


def _replay_split(report, key, index):
    """Per process of the trace under key (indexed as index), how many of
    its events it shares with its parent, and the event numbers of the
    first events its replay added, read off the variant trace built by
    ``rdep``; ({}, []) for the seed run."""
    origin = report.traces[key].origin
    shared = {}
    if origin is not None:
        pid, idx = origin.replaced_at
        parent = report.traces[origin.parent_key].trace
        prefix = reference_variant(parent, pid, idx, origin.new_tag)
        shared = {p: len(seq) for p, seq in prefix.procs.items()}
        shared[pid] = idx
    procs = index.trace.procs
    return shared, [index.first[p] + n for p, n in shared.items() if len(procs[p]) > n]


def _reference_race_counts(report):
    """Each trace's race count, with the shared-prefix skip read off the
    variant trace built by ``rdep`` instead of the variant's order."""
    counts = {}
    for key in report.order:
        index = valid_index(report.traces[key].trace)
        shared, added = _replay_split(report, key, index)
        counts[key] = sum(
            len(racers_at(index, r))
            for r, (pid, idx, a) in enumerate(index.events)
            if isinstance(a, Rec)
            and not (idx < shared.get(pid, 0) and all(index.after(r)[v] for v in added))
        )
    return counts


def _assert_rewritten_receive_repeats_its_parent(report):
    """The shared-prefix rule at a child's rewritten receive r', checked
    from the report alone: where every event the replay added, other than
    r', happened after r', the child's cut at r' is its parent's at r, so
    each racer y at r' other than the tag r consumed is a racer at r with
    the same variant order. Returns how many children meet the condition."""
    met = 0
    for key in report.order:
        origin = report.traces[key].origin
        if origin is None:
            continue
        child = valid_index(report.traces[key].trace)
        parent = valid_index(report.traces[origin.parent_key].trace)
        pid, idx = origin.replaced_at
        rc, rp = child.first[pid] + idx, parent.first[pid] + idx
        assert child.events[rc][2].tag == origin.new_tag
        assert parent.events[rp][2].tag == origin.old_tag
        _, added = _replay_split(report, key, child)
        after = child.after(rc)
        if not all(after[v] for v in added if v != rc):
            continue
        met += 1
        parent_racers = racers_at(parent, rp)
        for y in racers_at(child, rc) - {origin.old_tag}:
            assert y in parent_racers
            assert variant_order(child, rc, y) == variant_order(parent, rp, y)
    return met


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "text",
    [SPAWNED_WITHOUT_EVENTS, fixture_text("progd.prog"), GENCOLL4, fixture_text("progc.prog")],
    ids=["spawned-without-events", "progd", "gencoll4", "progc"],
)
def test_shared_prefix_skip_reads_the_variant_order_like_its_trace(text, seed):
    report = explore(parse_program(text), seed=seed)
    assert {key: entry.races for key, entry in report.traces.items()} == (
        _reference_race_counts(report)
    )
    met = _assert_rewritten_receive_repeats_its_parent(report)
    if text == GENCOLL4:
        assert met > 0


def test_explorer_is_seed_deterministic(progb):
    r1 = explore(progb, seed=5)
    r2 = explore(progb, seed=5)
    assert r1.order == r2.order
    assert r1.render() == r2.render()


def test_explored_traces_are_valid_and_distinct(proga, progb, progc):
    for program in (proga, progb, progc):
        report = explore(program, seed=0)
        assert distinctness_check(report) is None
        for entry in report.traces.values():
            assert validate_trace(entry.trace) is None


def test_variant_descendants_record_their_origin(proga):
    report = explore(proga, seed=0)
    roots = [k for k, entry in report.traces.items() if entry.origin is None]
    children = [k for k, entry in report.traces.items() if entry.origin is not None]
    assert len(roots) == 1 and len(children) == 1
    origin = report.traces[children[0]].origin
    assert origin.parent_key == roots[0]
    assert origin.old_tag != origin.new_tag


def test_a_replayed_child_shares_its_parents_actions():
    # replay applies the logged actions: a child holds its parent's objects
    # for the whole prefix, where it held equal copies of them
    report = explore(parse_program(GENCOLL4), seed=1)
    shared = 0
    for entry in report.traces.values():
        origin = entry.origin
        if origin is None:
            continue
        parent = report.traces[origin.parent_key].trace
        prefix = variant(parent, origin.old_tag, origin.new_tag)
        for pid, seq in prefix.procs.items():
            for i, a in enumerate(seq):
                if (pid, i) != origin.replaced_at:
                    assert entry.trace.procs[pid][i] is a, (pid, i)
                    shared += 1
    assert len(report.traces) == 24 and shared > 23 * 4


def test_max_traces_bounds_the_search(progc):
    report = explore(progc, seed=0, max_traces=2)
    assert len(report.traces) == 2
    assert report.bounded


def test_report_render_mentions_each_trace(progb):
    report = explore(progb, seed=0)
    text = report.render()
    assert f"traces explored: {len(report.traces)}" in text
    assert text.count("trace 0") == len(report.traces)
    assert "(seed run)" in text
    assert "->" in text  # at least one variant-derived trace


def test_program_without_messages_yields_single_trace():
    program = parse_program(
        "program { main f\n def f() { spawn g(); ok }\n def g() { done } }"
    )
    report = explore(program, seed=0)
    assert len(report.traces) == 1
    assert report.variants_enqueued == 0
    (key,) = report.order
    assert report.traces[key].races == 0
    assert report.traces[key].orphans == ()


def test_orphans_reported_per_trace(progb):
    report = explore(progb, seed=0)
    # {extra,0} never matches the server's receives: orphaned in every trace
    for entry in report.traces.values():
        assert len(entry.orphans) >= 1


def test_distinctness_check_reports_duplicates_and_foreign_keys(progb):
    report = explore(progb, seed=0)
    first, second = report.order[:2]
    report.traces[second] = report.traces[first]
    assert distinctness_check(report) == (
        f"duplicate traces under keys {first!r} and {second!r}"
    )

    report = explore(progb, seed=0)
    key = report.order[0]
    report.traces["not a key"] = report.traces.pop(key)
    assert distinctness_check(report) == (
        "trace under key 'not a key' does not serialize to its key"
    )


@pytest.mark.parametrize(
    "at, message",
    [
        (("p1.1", 99), "replaced receive p1.1[99] missing in trace or parent"),
        (("p1", 0), "trace derived from X->Y does not differ from its parent at p1[0]"),
    ],
)
def test_distinctness_check_reports_a_replaced_receive_that_is_missing_or_unchanged(
    at, message
):
    report = explore(parse_program(workloads.gencoll_program(3, 1)), seed=1)
    key, entry = next((k, e) for k, e in report.traces.items() if e.origin)
    o = entry.origin
    moved = Origin(o.parent_key, at, o.old_tag, o.new_tag)
    report.traces[key] = ExploredTrace(
        entry.trace, entry.outcome, entry.orphans, entry.races, moved
    )
    assert distinctness_check(report) == message.replace("X->Y", f"{o.old_tag}->{o.new_tag}")


def test_a_variant_whose_replay_diverges_is_counted_and_skipped(monkeypatch):
    def diverge(sys, order, align=None):
        raise DivergenceError(0, "the program does not follow it")

    monkeypatch.setattr(explorer_module, "replay_order", diverge)
    report = explore(parse_program(workloads.gencoll_program(3, 1)), seed=1)
    assert report.divergences == report.variants_enqueued == 3
    assert len(report.traces) == 1
    assert "replay divergences: 3\n" in report.render()


def test_a_trace_counts_the_racers_of_the_receives_it_examines():
    """``ExploredTrace.races`` counts racers at the receives ``record``
    examines; a receive the shared-prefix rule skips adds none."""
    report = explore(parse_program(workloads.gencoll_program(4, 1)), seed=1)
    counts = []
    for entry in report.traces.values():
        index = valid_index(entry.trace)
        counts.append((entry.races, sum(len(racers_at(index, r)) for r in index.receives)))
    assert counts[0][0] == counts[0][1]  # the seed run examines every receive
    assert all(races <= full for races, full in counts)
    assert any(races < full for races, full in counts)
