"""Events, interleavings and traces, with validation and a stable file format.

An interleaving is one linear schedule of pid-tagged actions; a trace maps
each pid to its own action sequence and stands for the whole class of
causally equivalent interleavings. Validation of an interleaving checks four
conditions:

  1. every event of a non-initial pid is preceded by its spawn;
  2. every receive is preceded by a matching send addressed to the receiver;
  3. a receive consumes the oldest matching message: every send to the same
     target that precedes the consumed message's send must either fail the
     receive constraint or have been received earlier;
  4. pids and tags are unique.

Condition 3 deliberately ranges over sends from *any* sender: with messages
delivered at send time, hoisting a matching foreign send above the consumed
one changes which message is oldest in the mailbox, so such schedules are
invalid even though the two sends are causally independent.

A mapping is a valid trace iff some valid interleaving linearizes it. We
decide this directly: besides per-process well-formedness, we build the
happened-before edge graph extended with one ordering edge per (receive,
competing matching unreceived send) pair and check it for cycles; any
topological order of that extended graph is a valid interleaving, and every
valid interleaving is such an order.

Trace-level work goes through a ``TraceIndex``, built once per trace in
O(N): events numbered once, sends and receives by tag, per-target send lists
and integer hb adjacency lists. The mailbox rule is stated once, in
``TraceIndex.waiting``; validation conditions (c) and (d), the ordering
edges of ``TraceIndex.succ`` and the race check's ``blocked_by`` all read it
from there. ``validate_interleaving`` keeps its own, independent statement
(condition 3), as do the brute-force references in ``racetrace.oracles``.
Its check is one pass in which each receive scans its process's unconsumed
messages, oldest first, up to its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .parsing import (
    ParseError,
    Token,
    TokenStream,
    name_sort_key,
    parse_constraint_block,
    parse_dotted_name,
    parse_term,
    tokenize,
)
from .terms import Constraint, Term, match, render_constraint, render_term

Pid = str
Tag = str


# ---------------------------------------------------------------------------
# Actions and events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spawn:
    child: Pid


@dataclass(frozen=True)
class Send:
    tag: Tag
    value: Term
    target: Pid


@dataclass(frozen=True)
class Rec:
    tag: Tag
    cs: Constraint


Action = Union[Spawn, Send, Rec]


@dataclass(frozen=True)
class Event:
    pid: Pid
    action: Action


def render_action(a: Action) -> str:
    if isinstance(a, Spawn):
        return f"spawn({a.child})"
    if isinstance(a, Send):
        return f"send({a.tag}, {render_term(a.value)}, {a.target})"
    return f"rec({a.tag}, {a.cs.cs_id})"


# ---------------------------------------------------------------------------
# Interleaving / Trace containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interleaving:
    initial: Pid
    events: tuple[Event, ...]


@dataclass
class Trace:
    initial: Pid
    procs: dict[Pid, tuple[Action, ...]]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Trace)
            and self.initial == other.initial
            and self.procs == other.procs
        )

    def pids(self) -> list[Pid]:
        return sorted(self.procs, key=name_sort_key)

    def events(self) -> list[tuple[Pid, int, Action]]:
        out = []
        for pid in self.pids():
            for i, a in enumerate(self.procs[pid]):
                out.append((pid, i, a))
        return out

    def key(self) -> str:
        """Canonical serialization; byte-equal iff traces are equal."""
        return serialize_trace(self)


@dataclass(frozen=True)
class Violation:
    condition: str  # "1".."4" for interleavings, "a".."d" for traces
    where: str  # e.g. "event 5" or "p3[2]"
    detail: str

    def __str__(self) -> str:
        return f"condition {self.condition} violated at {self.where}: {self.detail}"


# ---------------------------------------------------------------------------
# Interleaving validation (Definition-style conditions 1-4)
# ---------------------------------------------------------------------------


def validate_interleaving(s: Interleaving) -> Optional[Violation]:
    """None when valid, otherwise the first violated condition.

    One pass with a mailbox per process. Conditions 1, 2 and 4 end the pass;
    the first condition-3 violation is kept and reported only after it, so
    any violation of the other three is reported first. O(events + the
    unconsumed sends each receive scans).
    """
    spawned: set[Pid] = set()
    sends: dict[Tag, Send] = {}
    received: set[Tag] = set()
    # per process, its unconsumed messages in send order: tag -> value
    mailbox: dict[Pid, dict[Tag, Term]] = {}
    late: Optional[Violation] = None

    for j, ev in enumerate(s.events):
        a = ev.action
        # condition 1: pid alive
        if ev.pid != s.initial and ev.pid not in spawned:
            return Violation("1", f"event {j}", f"pid {ev.pid} acts before being spawned")
        if isinstance(a, Spawn):
            # condition 4: pid uniqueness
            # (a self-spawn is one too: the spawning pid is alive, so it is
            # the initial pid or spawned already)
            if a.child in spawned or a.child == s.initial:
                return Violation("4", f"event {j}", f"pid {a.child} spawned twice")
            spawned.add(a.child)
        elif isinstance(a, Send):
            # condition 4: tag uniqueness
            if a.tag in sends:
                return Violation("4", f"event {j}", f"tag {a.tag} sent twice")
            sends[a.tag] = a
            mailbox.setdefault(a.target, {})[a.tag] = a.value
        elif isinstance(a, Rec):
            if a.tag in received:
                return Violation("4", f"event {j}", f"tag {a.tag} received twice")
            # condition 2: a preceding matching send to this process
            if a.tag not in sends:
                return Violation("2", f"event {j}", f"no prior send of tag {a.tag}")
            send = sends[a.tag]
            if send.target != ev.pid:
                return Violation("2", f"event {j}", f"tag {a.tag} was sent to {send.target}")
            if not match(send.value, a.cs):
                return Violation(
                    "2",
                    f"event {j}",
                    f"value {render_term(send.value)} does not match {a.cs.cs_id}",
                )
            received.add(a.tag)
            # condition 3: no older matching message is still in the mailbox
            box = mailbox[ev.pid]
            for other, value in box.items():
                if other == a.tag:
                    break
                if late is None and match(value, a.cs):
                    late = Violation(
                        "3",
                        f"event {j}",
                        f"message {other} was sent before {a.tag}, matches "
                        f"{a.cs.cs_id} and is not received earlier",
                    )
            del box[a.tag]
    return late


def actions(pid: Pid, s: Interleaving) -> tuple[Action, ...]:
    return tuple(ev.action for ev in s.events if ev.pid == pid)


def tr(s: Interleaving) -> Trace:
    """Per-process projection of a valid interleaving."""
    bad = validate_interleaving(s)
    if bad is not None:
        raise ValueError(f"invalid interleaving: {bad}")
    procs: dict[Pid, list[Action]] = {s.initial: []}
    for ev in s.events:
        procs.setdefault(ev.pid, []).append(ev.action)
        if isinstance(ev.action, Spawn):
            procs.setdefault(ev.action.child, [])
    return Trace(s.initial, {p: tuple(a) for p, a in procs.items()})


# ---------------------------------------------------------------------------
# Trace index
# ---------------------------------------------------------------------------


class TraceIndex:
    """One trace, numbered once, for validation, hb queries and race analysis.

    Events are numbered 0..N-1 in ``Trace.events()`` order: pids sorted by
    ``name_sort_key`` once, then by position. So event numbers order events
    like ``(name_sort_key(pid), index)`` does. Construction is O(N) and
    holds:

    * ``events``: ``(pid, index, action)`` per event number;
    * ``send_at`` / ``rec_at``: the first send / receive of each tag;
    * ``sends_to``: per target pid, per sender pid (both in event order),
      the sends addressed to the target;
    * ``hb_succ``: integer adjacency lists of the happened-before edges
      (program order, spawn before the child's first action, send before
      its receive). A self-send received next lists its receive twice;
      every reader tolerates that.

    The mailbox rule -- a receive takes the oldest matching message -- is
    stated once, in ``waiting``; ``oldest_waiting`` and the ordering edges
    in ``succ`` read it from there. Those per-receive answers are computed
    on first use and kept; nothing else changes after construction.
    """

    def __init__(self, t: Trace):
        self.trace = t
        self.first: dict[Pid, int] = {}
        events: list[tuple[Pid, int, Action]] = []
        for pid in t.pids():
            self.first[pid] = len(events)
            events.extend((pid, i, a) for i, a in enumerate(t.procs[pid]))
        self.events = events
        self.send_at: dict[Tag, int] = {}
        self.rec_at: dict[Tag, int] = {}
        self.sends_to: dict[Pid, dict[Pid, list[int]]] = {}
        for v, (pid, _, a) in enumerate(events):
            if isinstance(a, Send):
                self.send_at.setdefault(a.tag, v)
                self.sends_to.setdefault(a.target, {}).setdefault(pid, []).append(v)
            elif isinstance(a, Rec):
                self.rec_at.setdefault(a.tag, v)
        self.hb_succ: list[list[int]] = [[] for _ in events]
        for v, (pid, i, a) in enumerate(events):
            if i + 1 < len(t.procs[pid]):
                self.hb_succ[v].append(v + 1)
            if isinstance(a, Spawn) and t.procs.get(a.child):
                self.hb_succ[v].append(self.first[a.child])
            elif isinstance(a, Rec) and a.tag in self.send_at:
                self.hb_succ[self.send_at[a.tag]].append(v)
        self._oldest: dict[int, dict[Pid, int]] = {}
        self._succ: Optional[list[list[int]]] = None

    def consumed_before(self, tag: Tag, r: int) -> bool:
        """Message `tag` was received by r's process before event r."""
        c = self.rec_at.get(tag)
        return c is not None and c < r and self.events[c][0] == self.events[r][0]

    def orphans(self) -> set[Tag]:
        """Tags that are sent but never received."""
        return set(self.send_at) - set(self.rec_at)

    def waiting(self, r: int, sends: Iterable[int]) -> Iterator[int]:
        """The sends among `sends` (addressed to receive r's process) that
        match r's constraint and are still unconsumed when r runs, in order.

        This is the one statement of the mailbox rule: r must take the
        oldest of these, so every one of them other than r's own message
        must be sent after it. Lazy, so callers that need only the first
        per sender stop matching there.
        """
        rec = self.events[r][2]
        for s in sends:
            send = self.events[s][2]
            if not self.consumed_before(send.tag, r) and match(send.value, rec.cs):
                yield s

    def oldest_waiting(self, r: int) -> dict[Pid, int]:
        """Per sender, its oldest message that receive r could take (r's
        own message included). O(sends to r's process) lookups, one match
        per sender until the first hit."""
        oldest = self._oldest.get(r)
        if oldest is None:
            oldest = {}
            for q, sends in self.sends_to.get(self.events[r][0], {}).items():
                first = next(self.waiting(r, sends), None)
                if first is not None:
                    oldest[q] = first
            self._oldest[r] = oldest
        return oldest

    @property
    def succ(self) -> list[list[int]]:
        """Adjacency lists of hb edges plus mailbox-ordering edges, each
        list sorted by ``EventId`` (pid string, then index).

        A receive of message L orders L's send before every other message
        it could have taken (``waiting``). Only the oldest such message per
        sender gets an edge: the later ones follow it in program order, so
        the edge set has the same transitive closure -- hence the same
        linearizations -- and a depth-first search that takes successors in
        this order meets the pruned edges' targets already finished, so it
        walks, and reports cycles, exactly as over the full edge set. Meant
        for traces that pass condition (a) (unique tags).
        """
        if self._succ is None:
            extra: list[set[int]] = [set() for _ in self.events]
            for tag, r in self.rec_at.items():
                s = self.send_at.get(tag)
                if s is not None:
                    extra[s].update(w for w in self.oldest_waiting(r).values() if w != s)
            events = self.events
            self._succ = [
                sorted(extra[v].union(hb), key=lambda w: events[w][:2])
                for v, hb in enumerate(self.hb_succ)
            ]
        return self._succ

    def after(self, src: int) -> bytearray:
        """Marks of the events that src happened before (hb edges only):
        one forward traversal, O(N + hb edges)."""
        seen = bytearray(len(self.events))
        stack = [src]
        while stack:
            for nxt in self.hb_succ[stack.pop()]:
                if not seen[nxt]:
                    seen[nxt] = 1
                    stack.append(nxt)
        return seen

    def loc(self, v: int) -> str:
        pid, i, _ = self.events[v]
        return f"{pid}[{i}]"


def first_cycle(roots: int, succ: list[list[int]]) -> Optional[list[int]]:
    """The cycle an iterative depth-first search meets first, or None.

    Nodes are 0..len(succ)-1; the search starts from roots 0..roots-1 in
    order and follows each successor list in order. The cycle is given as
    a path that starts and ends at the same node. O(V + E).
    """
    color = bytearray(len(succ))  # 0 unvisited, 1 on the stack, 2 done
    parent = [0] * len(succ)
    for root in range(roots):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 1:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if not color[nxt]:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return None


# ---------------------------------------------------------------------------
# Trace validation
# ---------------------------------------------------------------------------


def validate_trace(t: Union[Trace, TraceIndex]) -> Optional[Violation]:
    """None iff some valid interleaving S has tr(S) = t.

    Takes the trace or its ``TraceIndex``, so a caller that goes on to use
    the index builds it once. Conditions (a)-(c) are single passes over the
    index; (d) is one depth-first search over ``TraceIndex.succ``, linear
    in events plus edges. Per receive, the mailbox rule costs one lookup per
    send addressed to its process, and match calls only until each sender's
    oldest matching message is found, instead of a scan of the whole trace.
    """
    index = t if isinstance(t, TraceIndex) else TraceIndex(t)
    t = index.trace
    events = index.events
    if t.initial not in t.procs:
        return Violation("a", t.initial, "initial pid has no entry")

    # (a) pid/tag uniqueness and spawn closure
    spawned: set[Pid] = set()
    for v, (pid, _, a) in enumerate(events):
        if isinstance(a, Spawn):
            if a.child in spawned or a.child == t.initial:
                return Violation("a", index.loc(v), f"pid {a.child} spawned twice")
            if a.child == pid:
                return Violation("a", index.loc(v), f"pid {pid} spawns itself")
            spawned.add(a.child)
        elif isinstance(a, Send):
            if index.send_at[a.tag] != v:
                return Violation("a", index.loc(v), f"tag {a.tag} sent twice")
        elif isinstance(a, Rec):
            if index.rec_at[a.tag] != v:
                return Violation("a", index.loc(v), f"tag {a.tag} received twice")
    for pid in t.procs:
        if pid != t.initial and pid not in spawned:
            return Violation("a", pid, f"pid {pid} is never spawned")
    known_pids = spawned.union(t.procs)
    for v, (_, _, a) in enumerate(events):
        if isinstance(a, Spawn) and a.child not in t.procs:
            return Violation("a", index.loc(v), f"spawned pid {a.child} has no entry")
        if isinstance(a, Send) and a.target not in known_pids:
            return Violation("a", index.loc(v), f"unknown send target {a.target}")

    # (b) every receive has a unique matching send addressed to it
    for tag, r in index.rec_at.items():
        pid, _, rec = events[r]
        if tag not in index.send_at:
            return Violation("b", index.loc(r), f"no send of tag {tag}")
        send = events[index.send_at[tag]][2]
        if send.target != pid:
            return Violation("b", index.loc(r), f"tag {tag} was sent to {send.target}")
        if not match(send.value, rec.cs):
            return Violation(
                "b",
                index.loc(r),
                f"value {render_term(send.value)} does not match {rec.cs.cs_id}",
            )

    # (c) per-sender FIFO: an earlier matching unreceived send from the same
    # sender forbids consuming a later one (special case of the ordering
    # edges below, reported separately for clearer diagnostics)
    for tag, r in index.rec_at.items():
        s = index.send_at[tag]
        spid = events[s][0]
        oldest = index.oldest_waiting(r)[spid]
        if oldest != s:
            return Violation(
                "c",
                index.loc(r),
                f"sender {spid} sent matching {events[oldest][2].tag} before {tag}, "
                "not received earlier",
            )

    # (d) the happened-before graph extended with ordering edges is acyclic
    cycle = first_cycle(len(events), index.succ)
    if cycle is not None:
        pretty = " -> ".join(index.loc(v) for v in cycle)
        return Violation("d", pretty, "no linearization can order these events")
    return None


def valid_index(t: Trace) -> TraceIndex:
    """Index t and validate it once; ValueError unless t is a valid trace."""
    index = TraceIndex(t)
    bad = validate_trace(index)
    if bad is not None:
        raise ValueError(f"invalid trace: {bad}")
    return index


def is_subtrace(t1: Trace, t2: Trace) -> bool:
    """Per-process prefix relation between valid traces."""
    if t1.initial != t2.initial:
        raise ValueError("subtrace comparison requires the same initial pid")
    for pid, seq in t1.procs.items():
        if seq and seq != t2.procs.get(pid, ())[: len(seq)]:
            return False
    return True


def in_sched(s: Interleaving, t: Trace) -> bool:
    """True iff s is a linearization of t."""
    return s.initial == t.initial and tr(s) == t


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _constraint_table(actions_iter: Iterable[Action]) -> dict[str, Constraint]:
    table: dict[str, Constraint] = {}
    for a in actions_iter:
        if isinstance(a, Rec):
            prev = table.get(a.cs.cs_id)
            if prev is not None and prev != a.cs:
                raise ValueError(f"constraint id {a.cs.cs_id} bound to two definitions")
            table[a.cs.cs_id] = a.cs
    return table


def _render_constraints_block(table: dict[str, Constraint]) -> str:
    if not table:
        return ""
    lines = [render_constraint(table[k]) for k in sorted(table, key=name_sort_key)]
    return "constraints { " + "\n  ".join(lines) + " }\n"


def serialize_trace(t: Trace) -> str:
    lines = [f"trace {{ initial: {t.initial}"]
    for pid in t.pids():
        seq = t.procs[pid]
        body = ", ".join(render_action(a) for a in seq) if seq else "ε"
        lines.append(f"  {pid}: {body}")
    text = "\n".join(lines) + " }\n"
    table = _constraint_table(a for seq in t.procs.values() for a in seq)
    return text + _render_constraints_block(table)


def serialize_interleaving(s: Interleaving) -> str:
    lines = [f"interleaving {{ initial: {s.initial}"]
    for ev in s.events:
        lines.append(f"  {ev.pid}: {render_action(ev.action)}")
    text = "\n".join(lines) + " }\n"
    table = _constraint_table(ev.action for ev in s.events)
    return text + _render_constraints_block(table)


def _parse_action(ts: TokenStream) -> Union[Action, tuple[Tag, Token]]:
    """One action; a receive as its tag and constraint-id token, which
    ``_parse_document`` resolves once it has read the constraints block."""
    tok = ts.peek()
    kind = ts.expect_atom().text
    ts.expect_sym("(")
    if kind == "spawn":
        child = parse_dotted_name(ts)
        ts.expect_sym(")")
        return Spawn(child)
    if kind == "send":
        tag = parse_dotted_name(ts)
        ts.expect_sym(",")
        value = parse_term(ts)
        ts.expect_sym(",")
        target = parse_dotted_name(ts)
        ts.expect_sym(")")
        return Send(tag, value, target)
    if kind == "rec":
        tag = parse_dotted_name(ts)
        ts.expect_sym(",")
        cs_tok = ts.expect_atom()
        ts.expect_sym(")")
        return tag, cs_tok
    raise ParseError(f"unknown action {kind!r}", tok.line, tok.col)


def _parse_document(text: str, keyword: str):
    """'<keyword> { initial: pid entries }' and its constraints block, read
    in one pass: the initial pid and, per entry, its pid, the pid's token
    and its actions."""
    ts = TokenStream(tokenize(text))
    ts.expect_atom(keyword)
    ts.expect_sym("{")
    ts.expect_atom("initial")
    ts.expect_sym(":")
    initial = parse_dotted_name(ts)
    entries: list[tuple[Pid, Token, list]] = []
    while not ts.at_sym("}"):
        pid_tok = ts.peek()
        pid = parse_dotted_name(ts)
        ts.expect_sym(":")
        acts = []
        if not ts.accept_atom("ε"):
            acts.append(_parse_action(ts))
            while ts.accept_sym(","):
                acts.append(_parse_action(ts))
        entries.append((pid, pid_tok, acts))
    ts.expect_sym("}")
    constraints = parse_constraint_block(ts) if ts.at_atom("constraints") else {}
    for _, _, acts in entries:
        for i, a in enumerate(acts):
            if isinstance(a, tuple):
                tag, cs_tok = a
                if cs_tok.text not in constraints:
                    raise ParseError(
                        f"unknown constraint id {cs_tok.text!r}", cs_tok.line, cs_tok.col
                    )
                acts[i] = Rec(tag, constraints[cs_tok.text])
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return initial, entries


def parse_trace(text: str) -> Trace:
    initial, entries = _parse_document(text, "trace")
    procs: dict[Pid, tuple[Action, ...]] = {}
    for pid, tok, acts in entries:
        if pid in procs:
            raise ParseError(f"duplicate process entry {pid!r}", tok.line, tok.col)
        procs[pid] = tuple(acts)
    procs.setdefault(initial, ())
    return Trace(initial, procs)


def parse_interleaving(text: str) -> Interleaving:
    initial, entries = _parse_document(text, "interleaving")
    events: list[Event] = []
    for pid, tok, acts in entries:
        if len(acts) != 1:
            raise ParseError(
                f"interleaving lines carry exactly one action (process {pid})",
                tok.line,
                tok.col,
            )
        events.append(Event(pid, acts[0]))
    return Interleaving(initial, tuple(events))
