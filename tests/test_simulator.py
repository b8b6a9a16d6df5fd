import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrace import (
    DivergenceError,
    Event,
    ProgramError,
    SimulationError,
    Outcome,
    Rec,
    Send,
    Spawn,
    enabled,
    enumerate_executions,
    explore,
    initial_state,
    linearize,
    name_sort_key,
    parse_program,
    parse_trace,
    replay_prefix,
    run_deterministic,
    run_random,
    serialize_program,
    serialize_trace,
    step,
    Trace,
    validate_trace,
)
from racetrace import parsing, simulator
from racetrace.parsing import ParseError, sorted_names
from racetrace.terms import Atom, Constraint, Int, Lst, PidLit, TagLit, Tup

import reference_writers
from conftest import (
    LONG_PROGRAM,
    SEND_TO_NO_PROCESS,
    SEND_TO_NO_PROCESS_PREFIX,
    fixture_text,
)
from strategies import CS_ANY, programs, spawn_trees


def val(n):
    return Tup((Atom("val"), Int(n)))


# ---------------------------------------------------------------------------
# Parsing and static checks
# ---------------------------------------------------------------------------


def test_program_roundtrip_on_fixture_files():
    for name in ("proga.prog", "progb.prog", "progc.prog", "progd.prog"):
        text = fixture_text(name)
        assert serialize_program(parse_program(text)) == text


@settings(max_examples=40, deadline=None)
@given(programs())
def test_program_serialization_is_a_fixed_point(text):
    program = parse_program(text)
    once = serialize_program(program)
    assert once == reference_writers.serialize_program(program)
    assert parse_program(once) == program
    assert serialize_program(parse_program(once)) == once


def test_unknown_main_rejected():
    with pytest.raises(ProgramError, match="main"):
        parse_program("program { main nope\n def f() { ok } }")


def test_main_with_parameters_rejected():
    with pytest.raises(ProgramError, match="no parameters"):
        parse_program("program { main f\n def f(X) { X } }")


def test_unknown_function_rejected():
    with pytest.raises(ProgramError, match="unknown function"):
        parse_program("program { main f\n def f() { spawn g() } }")


def test_arity_mismatch_rejected():
    with pytest.raises(ProgramError, match="expects 1"):
        parse_program(
            "program { main f\n def f() { spawn g() }\n def g(X) { X } }"
        )


def test_unbound_variable_rejected():
    with pytest.raises(ProgramError, match="unbound variable Y"):
        parse_program("program { main f\n def f() { send Y to <p1> } }")


def test_wildcard_value_rejected():
    with pytest.raises(ProgramError) as err:
        parse_program("program { main main\n def main() { send _ to C } }")
    assert str(err.value) == "main: wildcard is not a value expression"


def test_receive_binding_scopes_into_clause_body():
    parse_program(
        "program { main f\n"
        " def f() { send {val,1} to <p1>; receive { {val,M} -> send M to <p1> } } }"
    )


def test_duplicate_definition_rejected():
    with pytest.raises(ParseError, match="defined twice"):
        parse_program("program { main f\n def f() { ok }\n def f() { ok } }")


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def test_enabled_and_naming_on_proga(proga):
    sys = initial_state(proga)
    assert enabled(sys) == [("p1", Spawn("p1.1"))]
    assert step(sys, "p1") == Spawn("p1.1")
    # p1.1 blocks on an empty mailbox; only p1 can move
    assert enabled(sys) == [("p1", Spawn("p1.2"))]
    step(sys, "p1")
    # now p1 and p1.2 both want to send
    assert enabled(sys) == [
        ("p1", Send("p1.1", val(1), "p1.1")),
        ("p1.2", Send("p1.2.1", val(0), "p1.1")),
    ]


def test_receive_takes_oldest_matching_message(proga):
    sys = initial_state(proga)
    for pid in ("p1", "p1", "p1.2", "p1.2", "p1"):
        step(sys, pid)
    # mailbox of p1.1 is [{val,0}, {val,2}, {val,1}]; the guard skips {val,0}
    assert enabled(sys) == [("p1.1", Rec("p1.2.2", sys.procs["p1.1"].stmts[0].cs))]
    assert step(sys, "p1.1").tag == "p1.2.2"


def test_step_of_disabled_pid_rejected(proga):
    sys = initial_state(proga)
    with pytest.raises(SimulationError, match="not enabled"):
        step(sys, "p1.1")


def test_clone_of_a_mid_run_state_is_independent():
    # enumerate_executions steps clones of one state: a clone shares no
    # mailbox, log or spawn and send count with the state it came from
    program = parse_program(
        "program { main main\n"
        "  def main() { A = spawn worker(); send {val,1} to A; send {val,2} to A;"
        " send {val,3} to A }\n"
        "  def worker() { spawn idle(); receive { {val,X} -> ok }; spawn idle();"
        " receive { {val,Y} -> ok }; receive { {val,Z} -> ok } }\n"
        "  def idle() { ok } }\n"
    )
    sys = initial_state(program)
    for pid in ("p1", "p1", "p1", "p1.1", "p1.1"):
        step(sys, pid)
    # p1.1 holds {val,2}; p1 and p1.1 have each named a message or a child
    trace, nexts = sys.trace(), enabled(sys)
    assert nexts == [("p1", Send("p1.3", val(3), "p1.1")), ("p1.1", Spawn("p1.1.2"))]

    clone = sys.clone()
    clone_run = run_deterministic(clone)
    assert clone_run[1] == Outcome("completed") and clone.trace() != trace
    assert sys.trace() == trace and enabled(sys) == nexts
    assert run_deterministic(sys) == clone_run


def test_send_to_non_pid_rejected():
    program = parse_program(
        "program { main f\n def f() { X = ok; send ok to X } }"
    )
    with pytest.raises(SimulationError, match="not a pid"):
        enabled(initial_state(program))


def test_send_to_a_pid_not_yet_spawned_rejected():
    # p1.1 names a pid, but no process of that name exists at the send
    program = parse_program(
        "program { main f\n def f() { send ok to <p1.1>; P = spawn g() }\n def g() { ok } }"
    )
    assert enabled(initial_state(program)) == [("p1", Send("p1.1", Atom("ok"), "p1.1"))]
    with pytest.raises(SimulationError) as info:
        run_random(program, seed=0)
    assert str(info.value) == "p1: send target p1.1 is not a process"


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------


def test_run_random_is_seed_deterministic(proga, progb, progc):
    for program in (proga, progb, progc):
        t1, o1 = run_random(program, seed=7)
        t2, o2 = run_random(program, seed=7)
        assert t1 == t2 and o1 == o2
        assert validate_trace(t1) is None


def test_run_outcomes(proga, progb):
    _, outcome = run_random(proga, seed=0)
    assert outcome == Outcome("completed")
    _, limited = run_random(proga, seed=0, max_steps=2)
    assert limited == Outcome("step-limit")
    # progb's server can consume {stop} first and then starve the {job,N}
    # guard, or finish; both runs end quiescent
    _, o = run_random(progb, seed=3)
    assert o.kind in ("completed", "deadlock")


# main spawns two processes that do nothing: every run takes exactly 2 steps
TWO_SPAWNS = "program { main main def main() { spawn f(); spawn f() } def f() { } }"


def test_a_run_that_ends_at_the_step_limit_is_complete():
    program = parse_program(TWO_SPAWNS)
    for max_steps, outcome in ((2, Outcome("completed")), (1, Outcome("step-limit"))):
        assert run_random(program, 0, max_steps)[1] == outcome
        assert run_deterministic(initial_state(program), max_steps)[1] == outcome
        limited = int(outcome.kind == "step-limit")
        assert enumerate_executions(program, max_steps)[1] == limited
        assert explore(program, max_steps=max_steps).step_limited == limited


def test_deadlock_reports_blocked_pids():
    program = parse_program(
        "program { main f\n def f() { receive { {val,M} -> M } } }"
    )
    t, outcome = run_deterministic(initial_state(program))
    assert outcome == Outcome("deadlock", ("p1",))
    assert str(outcome) == "deadlock(p1)"
    assert t.procs == {"p1": ()}


# main spawns 11 workers, so p1.10 sorts after p1.2, and each worker
# spawns a child that blocks, so p1.k.1 sorts between p1.k and p1.(k+1)
WIDE_PROGRAM = (
    "program { main main\n  def main() { "
    + "; ".join("spawn worker()" for _ in range(11))
    + " }\n  def worker() { spawn idle() }\n"
    "  def idle() { receive { never -> never } } }\n"
)


def test_pids_stay_in_canonical_order():
    program = parse_program(WIDE_PROGRAM)
    for seed in range(3):
        t, outcome = run_random(program, seed)
        canonical = sorted(t.procs, key=name_sort_key)
        assert len(canonical) == 23
        assert outcome == Outcome("deadlock", tuple(p for p in canonical if p.count(".") == 2))

    sys = initial_state(program)
    while enabled(sys):
        step(sys, enabled(sys)[-1][0])
        assert list(sys.procs) == sorted(sys.procs, key=name_sort_key)


def test_spawn_chain_sorts_each_pid_once(monkeypatch):
    # a spawn chain adds one pid per step, each one segment longer; sorting
    # every pid at every step made it cubic. No step keys a pid, and neither
    # does the trace the state hands over: it keeps the state's order
    calls = []

    def counting_key(name):
        calls.append(name)
        return name_sort_key(name)

    chain = parse_program("program { main f\n def f() { spawn f() } }")
    monkeypatch.setattr(parsing, "name_sort_key", counting_key)
    sys = initial_state(chain)
    for _ in range(400):
        ((pid, _),) = enabled(sys)
        step(sys, pid)
    assert len(sys.procs) == 401 and calls == []
    assert list(sys.trace().procs) == list(sys.procs) and calls == []


# main spawns 11 parents and each parent 11 children, all interleaved: an
# older parent spawns after a younger one's subtree exists, so its child
# goes before that subtree, and p1.1's children before p1.10's
TREE_PROGRAM = (
    "program { main main\n  def main() { "
    + "; ".join("spawn parent()" for _ in range(11))
    + " }\n  def parent() { "
    + "; ".join("spawn idle()" for _ in range(11))
    + " }\n  def idle() { receive { never -> never } } }\n"
)


@pytest.mark.parametrize("seed", range(21))
def test_spawns_keep_the_spawn_trees_preorder(seed):
    # the schedule of run_random, with the order checked after every step
    program = parse_program(TREE_PROGRAM)
    sys, pick = initial_state(program), random.Random(seed).randrange
    while choices := enabled(sys):
        step(sys, choices[pick(len(choices))][0])
        assert list(sys.procs) == sorted_names(sys.procs)
    assert len(sys.procs) == 133
    assert sys.trace() == run_random(program, seed)[0]


def reference_run(sys, max_steps, pick):
    """The scheduler that evaluates every process at every step: ``enabled``
    over the whole state, then ``step`` of the pid at position pick(n),
    until none is enabled or the state holds max_steps actions. Its trace
    is built by ``Trace``, which sorts the pids."""
    taken = sum(len(ps.recorded) for ps in sys.procs.values())
    while choices := enabled(sys):
        if taken >= max_steps:
            outcome = Outcome("step-limit")
            break
        step(sys, choices[pick(len(choices))][0])
        taken += 1
    else:
        blocked = tuple(pid for pid, proc in sys.procs.items() if proc.stmts)
        outcome = Outcome("deadlock", blocked) if blocked else Outcome("completed")
    return Trace("p1", {pid: tuple(ps.recorded) for pid, ps in sys.procs.items()}), outcome


def _ended(run):
    """A run's trace text and outcome, or the message of its SimulationError."""
    try:
        t, outcome = run()
    except SimulationError as exc:
        return str(exc)
    return serialize_trace(t), outcome


def _check_against_reference(program, prefix, max_steps):
    """run_random at seeds 0-9, and run_deterministic after the first
    `prefix` steps of each seed's schedule, end as the reference does."""
    for seed in range(10):
        assert _ended(lambda: run_random(program, seed, max_steps)) == _ended(
            lambda: reference_run(initial_state(program), max_steps, random.Random(seed).randrange)
        )
        sys = initial_state(program)
        try:
            reference_run(sys, prefix, random.Random(seed).randrange)
        except SimulationError:
            continue
        assert _ended(lambda: run_deterministic(sys.clone(), max_steps)) == _ended(
            lambda: reference_run(sys, max_steps, lambda n: 0)
        )


# a spawn touches its parent and the child, and both would raise next: the
# parent's send and the child's target no pid. Evaluating every process
# finds the parent's error first, so the touched ones are evaluated in
# canonical order. (A send's target cannot raise: only a send's evaluation
# can, which reads no mailbox, and the target's was evaluated already.)
TWO_ERRORS_AT_ONE_STEP = (
    "program { main main\n"
    "  def main() { X = ok; spawn bad(); send {val,1} to X }\n"
    "  def bad() { Y = no; send {val,2} to Y } }\n"
)


def test_two_errors_at_one_step_raise_the_parents():
    program = parse_program(TWO_ERRORS_AT_ONE_STEP)
    for seed in range(3):
        with pytest.raises(SimulationError) as info:
            run_random(program, seed)
        assert str(info.value) == "p1: send target evaluates to ok, not a pid"


FIXED_PROGRAMS = {
    "two_errors": TWO_ERRORS_AT_ONE_STEP,
    "send_to_no_process": SEND_TO_NO_PROCESS,
    "wide": WIDE_PROGRAM,
    "tree": TREE_PROGRAM,
    **{f"prog{c}": fixture_text(f"prog{c}.prog") for c in "abcd"},
}


@pytest.mark.parametrize("name", FIXED_PROGRAMS)
@pytest.mark.parametrize("prefix, max_steps", [(0, 10000), (3, 10000), (4, 6), (8, 5)])
def test_runs_end_as_the_reference_scheduler_on_fixed_programs(name, prefix, max_steps):
    _check_against_reference(parse_program(FIXED_PROGRAMS[name]), prefix, max_steps)


@settings(max_examples=60, deadline=None)
@given(programs(), st.integers(0, 12), st.integers(0, 24))
def test_runs_end_as_the_reference_scheduler(text, prefix, max_steps):
    # small step budgets, so that many runs end at the step limit
    _check_against_reference(parse_program(text), prefix, max_steps)


@settings(max_examples=30, deadline=None)
@given(spawn_trees(), st.integers(0, 2**32 - 1))
def test_the_state_hands_over_its_pids_in_canonical_order(text, seed):
    program = parse_program(text)
    for t, _ in (run_random(program, seed), run_deterministic(initial_state(program))):
        assert len(t.procs) > 10 and list(t.procs) == sorted_names(t.procs)


@settings(max_examples=30, deadline=None)
@given(spawn_trees(), st.randoms(use_true_random=False))
def test_traces_built_from_unordered_procs_are_sorted(text, rnd):
    t, _ = run_random(parse_program(text), 0)
    shuffled = list(t.procs.items())
    rnd.shuffle(shuffled)
    assert list(Trace(t.initial, dict(shuffled)).procs) == list(t.procs)
    # a trace of spawns only has no constraints block: one line per process
    head, *lines = serialize_trace(t).removesuffix(" }\n").split("\n")
    rnd.shuffle(lines)
    parsed = parse_trace("\n".join([head] + lines) + " }\n")
    assert list(parsed.procs) == list(t.procs)


def test_enumerate_executions_counts(proga, progb, progc):
    for program, expected in ((proga, 2), (progb, 4), (progc, 5)):
        traces, limited = enumerate_executions(program)
        assert limited == 0
        assert len(traces) == expected
        for key, t in traces.items():
            assert validate_trace(t) is None
            assert t.key() == key


def test_enumerate_executions_walks_a_long_program():
    traces, limited = enumerate_executions(parse_program(LONG_PROGRAM))
    assert limited == 0
    (t,) = traces.values()
    assert len(t.procs["p1"]) == 2001 and t.procs["p1.1"] == ()


def test_enumeration_contains_every_random_run(proga):
    keys = set(enumerate_executions(proga)[0])
    for seed in range(10):
        t, outcome = run_random(proga, seed=seed)
        assert outcome.kind != "step-limit"
        assert t.key() in keys


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def test_replay_prefix_then_continue(proga):
    # drive proga along a full recorded run, renamed to fresh log names
    full, _ = run_random(proga, seed=1)
    sys, align = replay_prefix(proga, full)
    t, outcome = run_deterministic(sys)
    assert outcome == Outcome("completed")
    # the continued run adds nothing: the prefix was complete
    assert {p: len(a) for p, a in t.procs.items()} == {
        align.pid_log_to_sim[p]: len(a) for p, a in full.procs.items()
    }


def test_replay_partial_prefix(proga):
    # a step-limited run yields a genuine (partial) trace to resume from
    prefix, outcome = run_random(proga, seed=1, max_steps=4)
    assert outcome == Outcome("step-limit")
    sys, _ = replay_prefix(proga, prefix)
    t, outcome = run_deterministic(sys)
    assert outcome == Outcome("completed")
    assert validate_trace(t) is None
    assert sum(map(len, t.procs.values())) > sum(map(len, prefix.procs.values()))


def test_replay_rejects_invalid_prefix(proga, tau_a):
    procs = dict(tau_a.procs)
    procs["p9"] = (Send("l9", val(1), "p1"),)
    with pytest.raises(ValueError, match="invalid prefix"):
        replay_prefix(proga, type(tau_a)("p1", procs))


def test_replay_detects_divergence(proga, tau_a):
    # tau_a's p1 sends {val,1} as its third action, but proga's p1 spawns
    # with different arguments: the logged value {val,1} is fine, the logged
    # receive order is not reachable after mutating the value
    mutated_procs = dict(tau_a.procs)
    send = mutated_procs["p1"][2]
    mutated_procs["p1"] = mutated_procs["p1"][:2] + (
        Send(send.tag, val(9), send.target),
    )
    with pytest.raises(DivergenceError, match="differs from logged"):
        replay_prefix(proga, type(tau_a)("p1", mutated_procs))


def test_divergence_messages_render_actions_in_the_logs_names(proga, tau_a):
    def divergence(**procs):
        with pytest.raises(DivergenceError) as info:
            replay_prefix(proga, type(tau_a)("p1", {**tau_a.procs, **procs}))
        return str(info.value)

    p1 = tau_a.procs["p1"]
    # the program's third action is a send, not a spawn; its target is the
    # log's p2, and its tag, which the log has not bound, stays as it is
    assert divergence(p1=p1[:2] + (Spawn("p4"),), p2=(), p4=()) == (
        "divergence at prefix event 2: expected spawn, program does "
        "send(p1.1, {val,1}, p2)"
    )
    # the program's receive takes the message the log calls l1
    assert divergence(p2=(Send("l9", val(1), "p1"),)) == (
        "divergence at prefix event 3: expected send, program does rec(l1, cs1)"
    )
    # the program sends to the log's p2 (the simulator's p1.1)
    assert divergence(p1=p1[:2] + (Send("l1", val(1), "p3"),), p2=()) == (
        "divergence at prefix event 2: send targets p2, log says p3"
    )
    # a pid in the value is printed in the log's names too
    prog = parse_program(
        "program { main f def f() { P = spawn g(); send P to P } "
        "def g() { receive { X -> ok } } }"
    )
    t = type(tau_a)("p1", {"p1": (Spawn("p2"), Send("l1", PidLit("p1"), "p2")), "p2": ()})
    with pytest.raises(DivergenceError) as info:
        replay_prefix(prog, t)
    assert str(info.value) == (
        "divergence at prefix event 1: send value <p2> differs from logged <p1>"
    )
    # the program's second process sends where the log has it receive
    prog = parse_program(
        "program { main f def f() { P = spawn g(); send {val,1} to P } "
        "def g() { send x to <p1> } }"
    )
    t = type(tau_a)(
        "p1", {"p1": (Spawn("p2"), Send("l1", val(1), "p2")), "p2": (Rec("l1", CS_ANY),)}
    )
    with pytest.raises(DivergenceError) as info:
        replay_prefix(prog, t)
    assert str(info.value) == (
        "divergence at prefix event 2: expected receive, program does send(p1.1.1, x, p1)"
    )


def test_replay_in_the_simulators_names_checks_every_name(proga):
    # replay without an Alignment applies the logged action, so a child,
    # tag or constraint id the program names otherwise is a divergence,
    # not a rename
    t, _ = run_random(proga, 0)
    order = list(linearize(t).events)
    cs = order[3].action.cs
    for i, (wrong, message) in {
        0: (Spawn("p1.9"), "spawns p1.1, log says p1.9"),
        2: (Send("p1.9", val(1), "p1.1"), "send tagged p1.1, log says p1.9"),
        3: (Rec("p1.1", Constraint("cs9", cs.clauses)), "receive constraint differs from the log"),
    }.items():
        bad = [*order[:i], Event(order[i].pid, wrong), *order[i + 1:]]
        with pytest.raises(DivergenceError) as info:
            simulator.replay_order(initial_state(proga), bad)
        assert str(info.value) == f"divergence at prefix event {i}: {message}"


def test_replay_of_a_send_to_no_process_is_the_programs_error():
    # replayed in the log's names, the send is the program's error, as in a
    # run of its own; it is no divergence from the log
    program = parse_program(SEND_TO_NO_PROCESS)
    with pytest.raises(SimulationError) as info:
        run_random(program, seed=0)
    assert str(info.value) == "p1: send target p2 is not a process"
    with pytest.raises(SimulationError) as info:
        replay_prefix(program, parse_trace(SEND_TO_NO_PROCESS_PREFIX))
    assert str(info.value) == "p1: send target p2 is not a process"
    # a target spelled unlike the log's still diverges
    with pytest.raises(DivergenceError) as info:
        replay_prefix(
            parse_program(SEND_TO_NO_PROCESS.replace("<p2>", "<p9>")),
            parse_trace(SEND_TO_NO_PROCESS_PREFIX),
        )
    assert str(info.value) == "divergence at prefix event 1: send targets p9, log says p2"


def test_receive_divergences_name_the_logs_tags():
    def divergence(program, trace):
        with pytest.raises(DivergenceError) as info:
            replay_prefix(parse_program(program), parse_trace(trace))
        return str(info.value)

    # the program's receive takes the second message, which the log calls l2
    assert divergence(
        "program { main f def f() { P = spawn g(); send {val,1} to P; send {val,2} to P } "
        "def g() { receive { {val,2} -> ok } } }",
        "trace { initial: p1\n p1: spawn(p2), send(l1, {val,1}, p2), send(l2, {val,2}, p2)\n"
        " p2: rec(l1, c) }\n"
        "constraints { c: {val,M} -> . }\n",
    ) == "divergence at prefix event 3: receive consumes l2, log says l1"
    # both take l1, under different clauses
    assert divergence(
        "program { main f def f() { P = spawn g(); send {val,1} to P } "
        "def g() { receive { X -> ok } } }",
        "trace { initial: p1\n p1: spawn(p2), send(l1, {val,1}, p2)\n p2: rec(l1, c) }\n"
        "constraints { c: {val,M} -> . }\n",
    ) == "divergence at prefix event 2: receive constraint differs from the log"


# main sends a tuple that holds a tag literal and a list expression
REFERENCES = parse_program(
    "program { main main\n"
    "  def main() { P = spawn g(); send {val,1} to P; send {ref,#p1.1,[P,#p1.1,2]} to P }\n"
    "  def g() { receive { {val,N} -> N }; receive { {ref,T,L} -> T } } }\n"
)


def _references_log(value):
    """REFERENCES's run with pids a, b and tags m1, m2, its second message
    logged as `value`."""
    return parse_trace(
        "trace { initial: a\n"
        f"  a: spawn(b), send(m1, {{val,1}}, b), send(m2, {value}, b)\n"
        "  b: rec(m1, cs1), rec(m2, cs2) }\n"
        "constraints { cs1: {val,N} -> .\n  cs2: {ref,T,L} -> . }\n"
    )


def test_a_sent_list_expression_is_evaluated():
    t, outcome = run_random(REFERENCES, seed=0)
    assert outcome == Outcome("completed")
    child = PidLit("p1.1")
    items = (child, TagLit("p1.1"), Int(2))
    assert t.procs["p1"][2] == Send("p1.2", Tup((Atom("ref"), TagLit("p1.1"), Lst(items))), "p1.1")


def test_replay_renames_tags_and_pids_inside_a_sent_list():
    sys, align = replay_prefix(REFERENCES, _references_log("{ref,#m1,[<b>,#m1,2]}"))
    assert (align.pid_log_to_sim["b"], align.tag_sim_to_log["p1.1"]) == ("p1.1", "m1")
    assert sys.trace() == run_random(REFERENCES, seed=0)[0]
    # the program's value, in the log's names, differs from a log that
    # keeps a simulator name inside the list
    with pytest.raises(DivergenceError) as err:
        replay_prefix(REFERENCES, _references_log("{ref,#m1,[<b>,#p1.1,2]}"))
    assert str(err.value) == (
        "divergence at prefix event 2: send value {ref,#m1,[<b>,#m1,2]} differs from "
        "logged {ref,#m1,[<b>,#p1.1,2]}"
    )


def test_replay_accepts_foreign_names(proga, tau_a):
    # tau_a uses p1/p2/p3 and l1..l3; the alignment maps them onto the
    # simulator's hierarchical names
    sys, align = replay_prefix(proga, tau_a)
    assert align.pid_log_to_sim["p2"] == "p1.1"
    assert align.pid_log_to_sim["p3"] == "p1.2"
    assert align.tag_sim_to_log["p1.1"] == "l1"
    t, outcome = run_deterministic(sys)
    assert outcome == Outcome("completed")
