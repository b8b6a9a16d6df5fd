"""A deterministic toy actor language that records traces as it runs.

Programs consist of function definitions whose bodies are statements:
``spawn f(args)``, ``send term to pid``, selective ``receive`` with
pattern/guard clauses, and value binds. A spawn or bind may name a variable
(``X = spawn f()``); a bind that names none is a bare value expression.
Binds execute silently; the global actions -- spawn, send, receive -- are
scheduled one at a time and recorded.

Scheduling realizes message delivery: a send enqueues at the target mailbox
immediately, so per-sender FIFO holds by construction and cross-sender
mailbox orders are explored by reordering sends. A receive consumes the
oldest mailbox message matching its constraint.

Replay is one loop, ``replay_order``: it steps a state along a logged
order, checking each action against the program, and raises
``DivergenceError`` at the first it does not perform. ``replay_prefix``
runs the ``traces.linearize`` order of a trace or of its index, validated
once, from ``initial_state`` with the log's names aligned to the
simulator's; the explorer replays each variant's order from
``initial_state`` too. The simulator reads ``parsing``, ``terms`` and
``traces`` only.

A state is the program and its processes, in canonical pid order: on the
simulator's names the spawn tree's preorder, so a new child ``P.k`` goes
right after P's subtree and no step sorts or keys a pid. A process owns what
the run keeps of it: statements, bindings, mailbox, recorded actions, and
the counts of children spawned and messages sent, which name the next ones.

A run evaluates each process's next action when it starts and keeps it;
after a step it evaluates again only the processes the step touched (see
``_run``). ``step`` and ``replay_order`` evaluate only the pid they step,
check it, and apply what they evaluated, or, replaying a log in the
simulator's own names, the equal logged action, which the replayed run
then shares. A received message is matched against its constraint once
(``terms.first_match``), which finds it, picks its clause and gives the
bindings the receive makes. A state hands its processes to its trace in
canonical order, so the trace sorts none. The exhaustive run over every
schedule, the reference ``explore`` is checked against, is
``racetrace.oracles.enumerate_executions``.

Names are hierarchical and schedule-invariant: the initial process is
``p1``, the k-th process spawned by P is ``P.k``, and the k-th message sent
by P carries tag ``P.k``. Two executions that are trace-equal therefore
serialize byte-identically.
"""

from __future__ import annotations

import itertools
import random
from bisect import insort
from typing import Callable, Optional, Sequence, Union

from .parsing import (
    TokenStream,
    constraint_at,
    parse_clause,
    parse_pattern,
)
from .terms import (
    Clause,
    Constraint,
    Lst,
    Pattern,
    PidLit,
    Record,
    TagLit,
    Term,
    Tup,
    Var,
    Wildcard,
    Substitution,
    first_match,
    pattern_vars,
    render_clause,
    render_term,
    set_field,
)
from .traces import (
    Action, Event, Pid, Rec, Send, Spawn, Tag, Trace, TraceIndex, linearize, render_action,
    write_document,
)

# the step budget of a run, an exploration and the CLI when none is given
MAX_STEPS = 10000


class ProgramError(Exception):
    """Static error in a program (unknown function, unbound variable, ...)."""


class SimulationError(Exception):
    """Dynamic misuse of the simulator (stepping a non-enabled pid, ...)."""


class DivergenceError(Exception):
    """The program's behavior does not follow the replayed prefix."""

    def __init__(self, index: int, message: str):
        super().__init__(f"divergence at prefix event {index}: {message}")
        self.index = index


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


# A statement's var is None for a bare spawn or value expression; a send's
# target is a Var or a PidLit; a receive has one body statement per clause.


class SpawnStmt(Record):
    __slots__ = ("var", "fname", "args")  # Optional[str], str, tuple[Pattern, ...]


class BindStmt(Record):
    __slots__ = ("var", "value")  # Optional[str], Pattern


class SendStmt(Record):
    __slots__ = ("value", "target")  # Pattern, Pattern


class ReceiveStmt(Record):
    __slots__ = ("cs", "bodies")  # Constraint, tuple[Stmt, ...]


Stmt = Union[SpawnStmt, BindStmt, SendStmt, ReceiveStmt]


class FunDef(Record):
    __slots__ = ("name", "params", "body")  # str, tuple[str, ...], tuple[Stmt, ...]


class Program(Record):
    __slots__ = ("defs", "main")  # dict[str, FunDef], str


# ---------------------------------------------------------------------------
# Program parsing
# ---------------------------------------------------------------------------


def parse_program(text: str) -> Program:
    ts = TokenStream(text)
    ts.expect("program")
    ts.expect("{")
    ts.expect("main")
    main = ts.expect_atom()
    defs: dict[str, FunDef] = {}
    counter = [0]
    while ts.accept("def"):
        at = ts.pos
        name = ts.expect_atom()
        ts.expect("(")
        params = tuple(ts.sep_list(_parse_param, ")"))
        ts.expect("{")
        body = tuple(ts.sep_list(lambda ts: _parse_stmt(ts, counter), "}", ";"))
        if name in defs:
            raise ts.error(f"function {name!r} defined twice", at)
        defs[name] = FunDef(name, params, body)
    ts.expect("}")
    ts.expect_eof()
    program = Program(defs, main)
    check_program(program)
    return program


def _parse_param(ts: TokenStream) -> str:
    if ts.kinds[ts.peek()] != "var":
        raise ts.error(f"expected a parameter name, found {ts.peek()!r}")
    return ts.next()


def _parse_stmt(ts: TokenStream, counter: list[int]) -> Stmt:
    at = ts.pos
    if ts.accept("send"):
        value = parse_pattern(ts)
        ts.expect("to")
        target = parse_pattern(ts)
        if not isinstance(target, (Var, PidLit)):
            raise ts.error("send target must be a variable or pid literal", at)
        return SendStmt(value, target)
    if ts.accept("receive"):
        ts.expect("{")
        clauses: list[Clause] = []
        bodies: list[Stmt] = []
        while True:
            clauses.append(parse_clause(ts))
            bodies.append(_parse_stmt(ts, counter))
            if not ts.accept(";"):
                break
        ts.expect("}")
        counter[0] += 1
        return ReceiveStmt(constraint_at(f"cs{counter[0]}", clauses, ts, at), tuple(bodies))
    var = None
    if ts.kinds[ts.peek()] == "var" and ts.peek(1) == "=":
        var = ts.next()
        ts.next()
    if ts.accept("spawn"):
        fname = ts.expect_atom()
        ts.expect("(")
        return SpawnStmt(var, fname, tuple(ts.sep_list(parse_pattern, ")")))
    return BindStmt(var, parse_pattern(ts))


def check_program(program: Program) -> None:
    if program.main not in program.defs:
        raise ProgramError(f"main function {program.main!r} is not defined")
    if program.defs[program.main].params:
        raise ProgramError("main function must take no parameters")
    for fdef in program.defs.values():
        _check_stmts(program, fdef.body, set(fdef.params), fdef.name)


def _check_stmts(program: Program, stmts: tuple[Stmt, ...], bound: set[str],
                 where: str) -> None:
    for stmt in stmts:
        if isinstance(stmt, SpawnStmt):
            callee = program.defs.get(stmt.fname)
            if callee is None:
                raise ProgramError(f"{where}: unknown function {stmt.fname!r}")
            if len(callee.params) != len(stmt.args):
                raise ProgramError(
                    f"{where}: {stmt.fname} expects {len(callee.params)} "
                    f"argument(s), got {len(stmt.args)}"
                )
            for arg in stmt.args:
                _check_expr(arg, bound, where)
            if stmt.var is not None:
                bound.add(stmt.var)
        elif isinstance(stmt, BindStmt):
            _check_expr(stmt.value, bound, where)
            if stmt.var is not None:
                bound.add(stmt.var)
        elif isinstance(stmt, SendStmt):
            _check_expr(stmt.value, bound, where)
            _check_expr(stmt.target, bound, where)
        else:
            for clause, body in zip(stmt.cs.clauses, stmt.bodies):
                _check_stmts(program, (body,), bound | set(pattern_vars(clause.pattern)),
                             where)


def _check_expr(expr: Pattern, bound: set[str], where: str) -> None:
    if isinstance(expr, Wildcard):
        raise ProgramError(f"{where}: wildcard is not a value expression")
    for v in pattern_vars(expr):
        if v not in bound:
            raise ProgramError(f"{where}: unbound variable {v}")


# ---------------------------------------------------------------------------
# Program serialization
# ---------------------------------------------------------------------------


def serialize_program(program: Program) -> str:
    lines = []
    for fdef in program.defs.values():
        params = ", ".join(fdef.params)
        body = "; ".join(_render_stmt(s) for s in fdef.body)
        lines.append(f"def {fdef.name}({params}) {{ {body} }}".replace("{  }", "{ }"))
    return write_document(f"program {{ main {program.main}", lines)


def _render_stmt(stmt: Stmt) -> str:
    if isinstance(stmt, SpawnStmt):
        rhs = f"spawn {stmt.fname}({', '.join(render_term(a) for a in stmt.args)})"
    elif isinstance(stmt, BindStmt):
        rhs = render_term(stmt.value)
    elif isinstance(stmt, SendStmt):
        return f"send {render_term(stmt.value)} to {render_term(stmt.target)}"
    else:
        rendered = (
            render_clause(clause, _render_stmt(body))
            for clause, body in zip(stmt.cs.clauses, stmt.bodies)
        )
        return "receive { " + "; ".join(rendered) + " }"
    return rhs if stmt.var is None else f"{stmt.var} = {rhs}"


# ---------------------------------------------------------------------------
# Runtime state
# ---------------------------------------------------------------------------


class ProcState:
    """A process and all the run keeps of it (see the module docstring)."""

    __slots__ = ("pid", "stmts", "env", "mailbox", "recorded", "spawns", "sends")

    def __init__(self, pid: Pid, stmts: list[Stmt], env: dict[str, Term],
                 mailbox: Sequence[tuple[Tag, Term]] = (), recorded: Sequence[Action] = (),
                 spawns: int = 0, sends: int = 0) -> None:
        self.pid, self.stmts, self.env = pid, stmts, env
        self.mailbox, self.recorded = list(mailbox), list(recorded)
        self.spawns, self.sends = spawns, sends

    def clone(self) -> "ProcState":
        return ProcState(self.pid, list(self.stmts), dict(self.env),
                         self.mailbox, self.recorded, self.spawns, self.sends)


class SysState:
    __slots__ = ("program", "procs")

    def __init__(self, program: Program, procs: dict[Pid, ProcState]) -> None:
        self.program = program
        self.procs = procs  # in canonical pid order: the spawn tree's preorder

    def clone(self) -> "SysState":
        return SysState(self.program, {p: ps.clone() for p, ps in self.procs.items()})

    def trace(self) -> Trace:
        return Trace._in_order("p1", {p: tuple(ps.recorded) for p, ps in self.procs.items()})

    def add_proc(self, proc: ProcState) -> None:
        """Add a spawned process P.k right after the last process of P's
        subtree, found from the end: a spawn in the last subtree moves none."""
        parent = proc.pid.rpartition(".")[0]
        prefix = parent + "."
        procs, later = self.procs, []
        while (last := next(reversed(procs))) != parent and not last.startswith(prefix):
            later.append(procs.popitem())
        procs[proc.pid] = proc
        procs.update(reversed(later))


def _start(pid: Pid, fdef: FunDef, env: dict[str, Term]) -> ProcState:
    """A new process about to run fdef's body, settled."""
    proc = ProcState(pid, list(fdef.body), env)
    _settle(proc)
    return proc


def initial_state(program: Program) -> SysState:
    return SysState(program, {"p1": _start("p1", program.defs[program.main], {})})


def _eval(expr: Pattern, env: dict[str, Term]) -> Term:
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise SimulationError(f"unbound variable {expr.name}") from None
    if isinstance(expr, Tup):
        return Tup(tuple(_eval(x, env) for x in expr.items))
    if isinstance(expr, Lst):
        return Lst(tuple(_eval(x, env) for x in expr.items))
    if isinstance(expr, Wildcard):
        raise SimulationError("wildcard is not a value expression")
    return expr  # Int, Atom, PidLit, TagLit


def _settle(proc: ProcState) -> None:
    """Run the leading binds silently, up to the next global action."""
    while proc.stmts and isinstance(proc.stmts[0], BindStmt):
        stmt = proc.stmts[0]
        value = _eval(stmt.value, proc.env)
        proc.stmts.pop(0)
        if stmt.var is not None:
            proc.env[stmt.var] = value


# a mailbox slot, the index of the clause its message matches, and the bindings
_Match = tuple[int, int, Substitution]


def _oldest_match(proc: ProcState, cs: Constraint, since: int) -> Optional[_Match]:
    """Mailbox slot of the oldest message matching cs, from slot since on,
    with the clause it matches and that clause's bindings (``first_match``)."""
    for slot in range(since, len(proc.mailbox)):
        found = first_match(proc.mailbox[slot][1], cs)
        if found is not None:
            return slot, *found
    return None


# a process's next action, with the ``_oldest_match`` of a receive
_NextAction = tuple[Action, Optional[_Match]]


def _next_action(sys: SysState, pid: Pid, since: int = 0) -> Optional[_NextAction]:
    """The action pid would record next, with a receive's ``_oldest_match``
    from mailbox slot since on; None if pid has nothing left or cannot fire."""
    proc = sys.procs[pid]
    if not proc.stmts:
        return None
    stmt = proc.stmts[0]
    if isinstance(stmt, SpawnStmt):
        return Spawn(f"{pid}.{proc.spawns + 1}"), None
    if isinstance(stmt, SendStmt):
        tag = f"{pid}.{proc.sends + 1}"
        value = _eval(stmt.value, proc.env)
        target = _eval(stmt.target, proc.env)
        if not isinstance(target, PidLit):
            raise SimulationError(
                f"{pid}: send target evaluates to {render_term(target)}, not a pid"
            )
        return Send(tag, value, target.pid), None
    assert isinstance(stmt, ReceiveStmt)
    found = _oldest_match(proc, stmt.cs, since)
    if found is None:
        return None
    return Rec(proc.mailbox[found[0]][0], stmt.cs), found


def enabled(sys: SysState) -> list[tuple[Pid, Action]]:
    """Pids that can fire, with the action each would record, in pid order."""
    nexts = ((pid, _next_action(sys, pid)) for pid in sys.procs)
    return [(pid, nxt[0]) for pid, nxt in nexts if nxt is not None]


def step(sys: SysState, pid: Pid) -> Action:
    """Execute one global action of an enabled pid; returns what was recorded."""
    nxt = _next_action(sys, pid) if pid in sys.procs else None
    if nxt is None:
        raise SimulationError(f"pid {pid} is not enabled")
    _apply(sys, pid, nxt)
    return nxt[0]


def _apply(sys: SysState, pid: Pid, nxt: _NextAction) -> None:
    """Perform pid's next action, as ``_next_action`` just evaluated it."""
    action, found = nxt
    if isinstance(action, Send) and action.target not in sys.procs:
        raise SimulationError(f"{pid}: send target {action.target} is not a process")
    proc = sys.procs[pid]
    stmt = proc.stmts.pop(0)

    if isinstance(action, Spawn):
        assert isinstance(stmt, SpawnStmt)
        proc.spawns += 1
        fdef = sys.program.defs[stmt.fname]
        env = {name: _eval(arg, proc.env) for name, arg in zip(fdef.params, stmt.args)}
        sys.add_proc(_start(action.child, fdef, env))
        if stmt.var is not None:
            proc.env[stmt.var] = PidLit(action.child)
    elif isinstance(action, Send):
        proc.sends += 1
        sys.procs[action.target].mailbox.append((action.tag, action.value))
    else:
        assert isinstance(stmt, ReceiveStmt) and found is not None
        slot, idx, bindings = found
        del proc.mailbox[slot]
        proc.env.update(bindings)
        proc.stmts.insert(0, stmt.bodies[idx])

    proc.recorded.append(action)
    _settle(proc)


# ---------------------------------------------------------------------------
# Whole-run drivers
# ---------------------------------------------------------------------------


class Outcome(Record):
    __slots__ = ("kind", "blocked")

    def __init__(self, kind: str, blocked: tuple[Pid, ...] = ()) -> None:
        set_field(self, "kind", kind)  # "completed" | "deadlock" | "step-limit"
        set_field(self, "blocked", blocked)

    def __str__(self) -> str:
        if self.kind == "deadlock":
            return "deadlock(" + ", ".join(self.blocked) + ")"
        return self.kind


def _tree_path(pid: Pid) -> tuple[int, ...]:
    """A simulator pid's place in canonical order: ``p1.10.2`` is (1, 10, 2),
    and these tuples compare as the spawn tree's preorder."""
    return tuple(map(int, pid[1:].split(".")))


def _run(sys: SysState, max_steps: int, pick: Callable[[int], int]) -> tuple[Trace, Outcome]:
    """Step the pid at position pick(n) of the n enabled ones until none is
    enabled, or until the state holds max_steps recorded actions, counted
    from the initial state, and one still is.

    Each process's next action is evaluated when the run starts and kept,
    and the enabled pids are kept in canonical order. A step changes only
    the processes it touches, which are evaluated again: the one that
    stepped, then a spawned child or a send's target, unless the target is
    enabled. A message arrives last in its target's mailbox, so an enabled
    receive keeps its oldest match, a spawn or send reads no mailbox, and a
    blocked receive can take only that message: it is matched alone, from
    the last slot. Only the one that stepped can stop being enabled. A
    program error is the one a scheduler evaluating every process at every
    step would raise first: only a send's evaluation can raise, and the
    child follows its parent in canonical order. An enabled target's
    action was evaluated without error and is unchanged, and a blocked
    receive's match raises nothing, so no error is hidden or reordered."""
    nexts = {pid: nxt for pid in sys.procs if (nxt := _next_action(sys, pid)) is not None}
    ready = list(nexts)  # the enabled pids, in canonical order
    for taken in itertools.count(sum(len(ps.recorded) for ps in sys.procs.values())):
        if not ready:
            blocked = tuple(pid for pid, proc in sys.procs.items() if proc.stmts)
            return sys.trace(), Outcome("deadlock", blocked) if blocked else Outcome("completed")
        if taken >= max_steps:
            return sys.trace(), Outcome("step-limit")
        i = pick(len(ready))
        pid = ready[i]
        action = nexts[pid][0]
        _apply(sys, pid, nexts[pid])
        nxt = _next_action(sys, pid)
        if nxt is None:
            del ready[i], nexts[pid]
        else:
            nexts[pid] = nxt
        if isinstance(action, Spawn):
            other = action.child
            nxt = _next_action(sys, other)
        elif isinstance(action, Send) and action.target not in nexts:
            other = action.target
            nxt = _next_action(sys, other, len(sys.procs[other].mailbox) - 1)
        else:
            continue
        if nxt is not None:
            insort(ready, other, key=_tree_path)
            nexts[other] = nxt


def run_random(program: Program, seed: int, max_steps: int = MAX_STEPS) -> tuple[Trace, Outcome]:
    """Scheduler picks uniformly among enabled pids with a seeded PRNG."""
    return _run(initial_state(program), max_steps, random.Random(seed).randrange)


def run_deterministic(sys: SysState, max_steps: int = MAX_STEPS) -> tuple[Trace, Outcome]:
    """Continue a state with the fixed smallest-enabled-pid policy, up to
    max_steps actions from the initial state, the state's own included."""
    return _run(sys, max_steps, lambda n: 0)


# ---------------------------------------------------------------------------
# Prefix-driven replay
# ---------------------------------------------------------------------------


class Alignment:
    """Renaming between logged and simulator names: pids both ways, tags
    from the simulator's to the log's, the one direction replay reads.

    Pids and tags are kept in separate namespaces: the simulator names both
    hierarchically, so the k-th child and the k-th message of a process share
    the spelling ``P.k``."""

    __slots__ = ("pid_log_to_sim", "pid_sim_to_log", "tag_sim_to_log")

    def __init__(self) -> None:
        self.pid_log_to_sim: dict[str, str] = {}
        self.pid_sim_to_log: dict[str, str] = {}
        self.tag_sim_to_log: dict[str, str] = {}

    def bind_pid(self, log_name: str, sim_name: str) -> None:
        self.pid_log_to_sim[log_name] = sim_name
        self.pid_sim_to_log[sim_name] = log_name

    def bind_tag(self, log_name: str, sim_name: str) -> None:
        self.tag_sim_to_log[sim_name] = log_name

    def sim_value_to_log(self, value: Term) -> Term:
        if isinstance(value, PidLit):
            return PidLit(self.pid_sim_to_log.get(value.pid, value.pid))
        if isinstance(value, TagLit):
            return TagLit(self.tag_sim_to_log.get(value.tag, value.tag))
        if isinstance(value, Tup):
            return Tup(tuple(self.sim_value_to_log(x) for x in value.items))
        if isinstance(value, Lst):
            return Lst(tuple(self.sim_value_to_log(x) for x in value.items))
        return value

    def sim_action_to_log(self, a: Action) -> Action:
        """`a` in the log's names; a name the log has not bound stays."""
        pids, tags = self.pid_sim_to_log, self.tag_sim_to_log
        if isinstance(a, Spawn):
            return Spawn(pids.get(a.child, a.child))
        if isinstance(a, Send):
            value = self.sim_value_to_log(a.value)
            return Send(tags.get(a.tag, a.tag), value, pids.get(a.target, a.target))
        return Rec(tags.get(a.tag, a.tag), a.cs)


def replay_prefix(program: Program, prefix: Trace | TraceIndex) -> tuple[SysState, Alignment]:
    """Drive the program along one linearization of the prefix.

    The prefix, a trace or its index, is linearized and so validated once,
    then replayed from ``initial_state`` by ``replay_order``, with its names
    aligned to the simulator's; the returned state can be continued with
    the normal schedulers. ValueError "invalid prefix: ..." if it is invalid.
    """
    try:
        order = linearize(prefix)
    except ValueError as exc:
        raise ValueError(f"invalid prefix: {exc}") from exc
    sys = initial_state(program)
    align = Alignment()
    align.bind_pid(order.initial, "p1")
    replay_order(sys, order.events, align)
    return sys, align


def replay_order(
    sys: SysState, order: Sequence[Event], align: Optional[Alignment] = None
) -> None:
    """Step sys along ``order``.

    Every step checks that the program performs exactly the logged action,
    else raises DivergenceError at that position. Given an ``Alignment``,
    the program's action is translated once into the log's names, and each
    name a spawn or send introduces is bound as it is replayed; without
    one, the order uses the simulator's own names, as a trace the simulator
    recorded does, and the logged action, equal to the program's, is the
    one applied: the replayed run shares the log's action objects. Either
    way a send to a pid that is no process is the program's error:
    SimulationError, as in ``simulate``.
    """
    for i, event in enumerate(order):
        sim_pid = event.pid if align is None else align.pid_log_to_sim.get(event.pid)
        if sim_pid not in sys.procs:
            raise DivergenceError(i, f"pid {event.pid} has no simulator counterpart")
        nxt = _next_action(sys, sim_pid)
        if nxt is None:
            raise DivergenceError(i, f"pid {event.pid} ({sim_pid}) is not enabled")
        actual = nxt[0]
        shown = actual if align is None else align.sim_action_to_log(actual)
        logged = event.action
        if type(shown) is not type(logged):
            kind = {Spawn: "spawn", Send: "send", Rec: "receive"}[type(logged)]
            raise DivergenceError(i, f"expected {kind}, program does {render_action(shown)}")
        if isinstance(logged, Spawn):
            if align is None and shown.child != logged.child:
                raise DivergenceError(i, f"spawns {shown.child}, log says {logged.child}")
        elif isinstance(logged, Send):
            if align is None and shown.tag != logged.tag:
                raise DivergenceError(i, f"send tagged {shown.tag}, log says {logged.tag}")
            if shown.target != logged.target:
                raise DivergenceError(i, f"send targets {shown.target}, log says {logged.target}")
            if shown.value != logged.value:
                raise DivergenceError(
                    i,
                    f"send value {render_term(shown.value)} differs from "
                    f"logged {render_term(logged.value)}",
                )
        elif isinstance(logged, Rec):
            if shown.tag != logged.tag:
                raise DivergenceError(i, f"receive consumes {shown.tag}, log says {logged.tag}")
            if shown.cs.clauses != logged.cs.clauses or (
                align is None and shown.cs.cs_id != logged.cs.cs_id
            ):
                raise DivergenceError(i, "receive constraint differs from the log")
        _apply(sys, sim_pid, nxt if align is not None else (logged, nxt[1]))
        if align is not None:
            if isinstance(logged, Spawn):
                align.bind_pid(logged.child, actual.child)
            elif isinstance(logged, Send):
                align.bind_tag(logged.tag, actual.tag)
