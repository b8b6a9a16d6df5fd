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
valid interleaving is such an order. An interleaving s is in sched(t) iff
``tr(s) == t``; the brute-force list of sched(t) and the subtrace relation
are in ``racetrace.oracles``.

Trace-level work goes through a ``TraceIndex``, built once per trace in
O(N): events numbered once, sends and receives by tag, per-target send lists
and integer hb adjacency lists; ``valid_index`` alone validates it, and
every trace-level analysis takes a trace or the index it returned. Which
receive took each message is stated once, in ``TraceIndex.taken_by``. The
mailbox rule is stated once, in ``TraceIndex.oldest_waiting``; validation
conditions (c) and (d), the ordering edges of ``TraceIndex.succ`` and the
race sets all read it from there. ``validate_interleaving`` keeps its own,
independent statement (condition 3), as do the brute-force references in
``racetrace.oracles``. Its check is one pass in which each receive scans its
process's unconsumed messages, oldest first, up to its own.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .parsing import (
    ParseError,
    Token,
    TokenStream,
    parse_constraint_block,
    parse_dotted_name,
    parse_term,
    sorted_names,
    tokenize,
)
from .terms import Constraint, Record, Term, match, render_term, set_field

Pid = str
Tag = str


# ---------------------------------------------------------------------------
# Actions and events
# ---------------------------------------------------------------------------


class Spawn(Record):
    __slots__ = ("child",)


class Send(Record):
    __slots__ = ("tag", "value", "target")  # Tag, Term, Pid


class Rec(Record):
    __slots__ = ("tag", "cs")  # Tag, Constraint


Action = Union[Spawn, Send, Rec]


class Event(Record):
    # the explorer's queue holds an order of events per pending variant,
    # 337 240 events at its peak on gencoll n=8
    __slots__ = ("pid", "action")


def render_action(a: Action) -> str:
    if isinstance(a, Spawn):
        return f"spawn({a.child})"
    if isinstance(a, Send):
        return f"send({a.tag}, {render_term(a.value)}, {a.target})"
    return f"rec({a.tag}, {a.cs.cs_id})"


# ---------------------------------------------------------------------------
# Interleaving / Trace containers
# ---------------------------------------------------------------------------


class Interleaving(Record):
    __slots__ = ("initial", "events")  # Pid, tuple[Event, ...]


class Trace(Record):
    """Each process's actions, in canonical pid order (``sorted_names``):
    sorted once, when the trace is built, so what lists them sorts nothing.
    Traces are equal iff their initial pids and their procs are."""

    __slots__ = ("initial", "procs")  # Pid, dict[Pid, tuple[Action, ...]]

    def __init__(self, initial: Pid, procs: dict[Pid, tuple[Action, ...]]) -> None:
        set_field(self, "initial", initial)
        set_field(self, "procs", {pid: procs[pid] for pid in sorted_names(procs)})

    @classmethod
    def _in_order(cls, initial: Pid, procs: dict[Pid, tuple[Action, ...]]) -> "Trace":
        """A trace of procs already in canonical order, taken as they are.

        Only the simulator calls it, with its state's procs: the spawn
        tree's preorder of names ``p1`` and ``P.k``, which is the order
        ``sorted_names`` gives them, since a name's key compares its parts'
        numbers and a shorter name sorts first."""
        t = cls.__new__(cls)
        set_field(t, "initial", initial)
        set_field(t, "procs", procs)
        return t

    def events(self) -> list[tuple[Pid, int, Action]]:
        return [(pid, i, a) for pid, seq in self.procs.items() for i, a in enumerate(seq)]

    def key(self) -> str:
        """Canonical serialization; byte-equal iff traces are equal."""
        return serialize_trace(self)


class Violation(Record):
    # condition: "1".."4" for interleavings, "a".."d" for traces;
    # where: e.g. "event 5" or "p3[2]"
    __slots__ = ("condition", "where", "detail")

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


class TableHeader(NamedTuple):
    """The columns of a receiver's candidate tables that do not depend on
    the receive: per send addressed to it, in table order, its event
    number, sender, tag and ``taken_by`` entry; and each send's position
    in that order."""

    sends: tuple[int, ...]
    senders: tuple[Pid, ...]
    tags: tuple[Tag, ...]
    taken: tuple[int, ...]
    at: dict[int, int]


class TraceIndex:
    """One trace, numbered once, for validation, hb queries and race analysis.

    Events are numbered 0..N-1 in ``Trace.events()`` order: pids in the
    trace's own order, canonical since it was built, then by position. So
    event numbers order events like ``(name_sort_key(pid), pid, index)``
    does. Construction is O(N) and holds:

    * ``events``: ``(pid, index, action)`` per event number;
    * ``send_at`` / ``rec_at`` / ``spawn_at``: the first send / receive of
      each tag, and the first spawn of each child;
    * ``sends_to``: per target pid, per sender pid (both in event order),
      the sends addressed to the target;
    * ``clause``: per receive, the id of its clause list (equal clauses,
      equal ids), numbered as the receives come;
    * ``hb_succ``: integer adjacency lists of the happened-before edges
      (program order, spawn before the child's first action, send before
      its receive), each once: a self-send received next has one edge;
    * ``taken_by``: per send, its tag's first receive if in its target,
      else N; N for other events. So a send to r's process was consumed
      before receive r iff its entry is below r.

    The mailbox rule -- a receive takes the oldest matching message -- is
    stated once, in ``oldest_waiting``; the ordering edges in ``succ`` read
    it from there, and ``succ`` lists successors in event-number order.
    ``matches`` asks ``terms.match`` once per send and clause id,
    ``table_header`` lays out each receiver's sends once, sorted by tag,
    as the columns of its candidate tables that no receive changes (sends,
    senders, tags, ``taken_by`` entries, and each send's position), and
    ``match_column`` lays their match answers out once per clause id.
    These answers, each receive's ``cut`` and a pass of ``valid_index`` are
    kept once known; nothing else changes after construction.
    """

    def __init__(self, t: Trace):
        self.trace = t
        self.events = events = t.events()
        self.first = dict(zip(t.procs, accumulate(map(len, t.procs.values()), initial=0)))
        self.send_at: dict[Tag, int] = {}
        self.rec_at: dict[Tag, int] = {}
        self.spawn_at: dict[Pid, int] = {}
        self.sends_to: dict[Pid, dict[Pid, list[int]]] = {}
        self.clause: dict[int, int] = {}
        ids: dict[tuple, int] = {}
        for v, (pid, _, a) in enumerate(events):
            if isinstance(a, Send):
                self.send_at.setdefault(a.tag, v)
                self.sends_to.setdefault(a.target, {}).setdefault(pid, []).append(v)
            elif isinstance(a, Rec):
                self.rec_at.setdefault(a.tag, v)
                self.clause[v] = ids.setdefault(a.cs.clauses, len(ids))
            elif isinstance(a, Spawn):
                self.spawn_at.setdefault(a.child, v)
        n = len(events)
        self.hb_succ: list[list[int]] = [[] for _ in events]
        self.taken_by = [n] * n
        for v, (pid, i, a) in enumerate(events):
            if i + 1 < len(t.procs[pid]):
                self.hb_succ[v].append(v + 1)
            if isinstance(a, Spawn) and t.procs.get(a.child):
                self.hb_succ[v].append(self.first[a.child])
            elif isinstance(a, Send):
                c = self.rec_at.get(a.tag, n)
                if c < n and events[c][0] == a.target:
                    self.taken_by[v] = c
            elif isinstance(a, Rec) and a.tag in self.send_at:
                s = self.send_at[a.tag]
                if not (i and s == v - 1):  # else it is the program edge
                    self.hb_succ[s].append(v)
        self._oldest: dict[int, dict[Pid, int]] = {}
        self._matches: dict[tuple[int, int], bool] = {}
        self._headers: dict[Pid, TableHeader] = {}
        self._columns: dict[tuple[Pid, int], tuple[bool, ...]] = {}
        self._cuts: dict[int, bytearray] = {}
        self._succ: Optional[list[list[int]]] = None
        self._valid = False

    def orphans(self) -> set[Tag]:
        """Tags that are sent but never received."""
        return set(self.send_at) - set(self.rec_at)

    def matches(self, s: int, r: int) -> bool:
        """Send s's value matches receive r's constraint. ``terms.match`` is
        asked once per send and clause list: constraints with equal clauses
        share their answers, whatever their ids."""
        cl = self.clause[r]
        hit = self._matches.get((s, cl))
        if hit is None:
            hit = self._matches[s, cl] = match(self.events[s][2].value, self.events[r][2].cs)
        return hit

    def table_header(self, pid: Pid) -> TableHeader:
        """The columns of pid's candidate tables that no receive changes,
        built once: its sends sorted by their tags (``sorted_names``), the
        order of a candidate table and of the racers ``racetrace races``
        lists. Meant for traces with unique tags."""
        header = self._headers.get(pid)
        if header is None:
            send_of = {
                self.events[s][2].tag: s
                for sends in self.sends_to.get(pid, {}).values()
                for s in sends
            }
            tags = tuple(sorted_names(send_of))
            sends = tuple(map(send_of.__getitem__, tags))
            header = self._headers[pid] = TableHeader(
                sends,
                tuple(self.events[s][0] for s in sends),
                tags,
                tuple(map(self.taken_by.__getitem__, sends)),
                {s: k for k, s in enumerate(sends)},
            )
        return header

    def match_column(self, r: int) -> tuple[bool, ...]:
        """Per entry of ``table_header`` of r's process, whether the send
        matches r's constraint: one column per process and clause list,
        read off ``matches``."""
        key = (self.events[r][0], self.clause[r])
        column = self._columns.get(key)
        if column is None:
            sends = self.table_header(key[0]).sends
            column = self._columns[key] = tuple(self.matches(s, r) for s in sends)
        return column

    def oldest_waiting(self, r: int) -> dict[Pid, int]:
        """Per sender, its oldest message that receive r could take (r's
        own message included): matching r's constraint and unconsumed when
        r runs. This is the one statement of the mailbox rule: r takes the
        oldest such message, so every other must be sent after r's own.

        The first call for a process answers for all its receives, in
        program order, with a cursor per sender past the prefix of its
        sends consumed so far: what r's process consumed before r, it has
        consumed before every later receive too. So a process costs its
        receives times its senders, plus the sends each receive scans past
        its senders' cursors, one ``matches`` each until the first hit."""
        if r not in self._oldest:
            pid = self.events[r][0]
            senders = self.sends_to.get(pid, {})
            cursor = dict.fromkeys(senders, 0)
            for v in range(self.first[pid], self.first[pid] + len(self.trace.procs[pid])):
                if not isinstance(self.events[v][2], Rec):
                    continue
                oldest = self._oldest[v] = {}
                for q, sends in senders.items():
                    for k in range(cursor[q], len(sends)):
                        if self.taken_by[sends[k]] < v:
                            if k == cursor[q]:
                                cursor[q] = k + 1
                        elif self.matches(sends[k], v):
                            oldest[q] = sends[k]
                            break
        return self._oldest[r]

    @property
    def succ(self) -> list[list[int]]:
        """Adjacency lists of hb edges plus mailbox-ordering edges, each
        list in event-number order.

        A receive of message L orders L's send before every other message
        it could have taken. Only the oldest such message per sender
        (``oldest_waiting``) gets an edge: the later ones follow it in
        program order, so the edge set has the same transitive closure --
        hence the same linearizations. A sender's later messages also have
        larger event numbers, so a depth-first search that takes successors
        in this order meets the pruned edges' targets already finished, and
        walks, and reports cycles, exactly as over the full edge set. Meant
        for traces that pass condition (a) (unique tags).
        """
        if self._succ is None:
            extra: list[set[int]] = [set() for _ in self.events]
            for tag, r in self.rec_at.items():
                s = self.send_at.get(tag)
                if s is not None:
                    extra[s].update(w for w in self.oldest_waiting(r).values() if w != s)
            self._succ = [sorted(extra[v].union(hb)) for v, hb in enumerate(self.hb_succ)]
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

    def cut(self, r: int) -> bytearray:
        """Marks of receive r and of every event r happened before: what each
        race variant at r erases (``notdep(r)`` in Optimal DPOR's terms).
        One ``after`` traversal per receive; callers must not change it."""
        gone = self._cuts.get(r)
        if gone is None:
            gone = self._cuts[r] = self.after(r)
            gone[r] = 1
        return gone

    def loc(self, v: int) -> str:
        pid, i, _ = self.events[v]
        return f"{pid}[{i}]"


def first_cycle(succ: list[list[int]]) -> Optional[list[int]]:
    """The cycle an iterative depth-first search meets first, or None.

    Nodes are 0..len(succ)-1; the search starts from each node in order
    and follows each successor list in order. The cycle is given as
    a path that starts and ends at the same node. O(V + E).
    """
    color = bytearray(len(succ))  # 0 unvisited, 1 on the stack, 2 done
    for root in range(len(succ)):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 1:  # the stack is the path from root
                    path = [v for v, _ in stack]
                    return path[path.index(nxt):] + [nxt]
                if not color[nxt]:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return None


def smallest_first(succ: list[list[int]], nodes: Sequence[int]) -> list[int]:
    """Kahn's algorithm over `nodes`, always taking the smallest ready node:
    the one canonical order of a graph. ``succ[v]`` lists the edges out of
    node v, each to a node. The order is shorter than `nodes` iff they hold
    a cycle. O(E + N log N)."""
    preds = [0] * len(succ)
    for v in nodes:
        for u in succ[v]:
            preds[u] += 1
    ready = [v for v in nodes if not preds[v]]
    heapify(ready)
    order: list[int] = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for u in succ[v]:
            preds[u] -= 1
            if not preds[u]:
                heappush(ready, u)
    return order


# ---------------------------------------------------------------------------
# Trace validation
# ---------------------------------------------------------------------------


def validate_trace(t: Union[Trace, TraceIndex]) -> Optional[Violation]:
    """None iff some valid interleaving S has tr(S) = t.

    Takes the trace or its ``TraceIndex``, so a caller that goes on to use
    the index builds it once. Condition (a) takes three passes (events,
    processes, events), (b) and (c) one each; (d) is one depth-first search
    over ``TraceIndex.succ``, linear in events plus edges. Per receive, the
    mailbox rule costs a lookup per sender plus the sends it scans past
    that sender's cursor, and
    ``terms.match`` runs at most once per send and clause list.
    """
    index = t if isinstance(t, TraceIndex) else TraceIndex(t)
    t = index.trace
    events = index.events
    if t.initial not in t.procs:
        return Violation("a", t.initial, "initial pid has no entry")

    # (a) pid/tag uniqueness and spawn closure
    spawn_at = index.spawn_at
    for v, (pid, _, a) in enumerate(events):
        if isinstance(a, Spawn):
            if spawn_at[a.child] != v or a.child == t.initial:
                return Violation("a", index.loc(v), f"pid {a.child} spawned twice")
            if a.child == pid:
                return Violation("a", index.loc(v), f"pid {pid} spawns itself")
        elif isinstance(a, Send):
            if index.send_at[a.tag] != v:
                return Violation("a", index.loc(v), f"tag {a.tag} sent twice")
        elif isinstance(a, Rec):
            if index.rec_at[a.tag] != v:
                return Violation("a", index.loc(v), f"tag {a.tag} received twice")
    for pid in t.procs:
        if pid != t.initial and pid not in spawn_at:
            return Violation("a", pid, f"pid {pid} is never spawned")
    for v, (_, _, a) in enumerate(events):
        if isinstance(a, Spawn) and a.child not in t.procs:
            return Violation("a", index.loc(v), f"spawned pid {a.child} has no entry")
        if isinstance(a, Send) and a.target not in spawn_at and a.target not in t.procs:
            return Violation("a", index.loc(v), f"unknown send target {a.target}")

    # (b) every receive has a unique matching send addressed to it
    for tag, r in index.rec_at.items():
        pid, _, rec = events[r]
        if tag not in index.send_at:
            return Violation("b", index.loc(r), f"no send of tag {tag}")
        s = index.send_at[tag]
        send = events[s][2]
        if send.target != pid:
            return Violation("b", index.loc(r), f"tag {tag} was sent to {send.target}")
        if not index.matches(s, r):
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
    cycle = first_cycle(index.succ)
    if cycle is not None:
        pretty = " -> ".join(index.loc(v) for v in cycle)
        return Violation("d", pretty, "no linearization can order these events")
    return None


def valid_index(t: Union[Trace, TraceIndex]) -> TraceIndex:
    """The index of t (t itself if an index), validated unless it has passed
    before; ValueError, on every call, unless t is a valid trace."""
    index = t if isinstance(t, TraceIndex) else TraceIndex(t)
    bad = None if index._valid else validate_trace(index)
    if bad is not None:
        raise ValueError(f"invalid trace: {bad}")
    index._valid = True
    return index


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _constraint_table(actions_iter: Iterable[Action]) -> dict[str, Constraint]:
    table: dict[str, Constraint] = {}
    for a in actions_iter:
        if isinstance(a, Rec):
            prev = table.setdefault(a.cs.cs_id, a.cs)
            if prev is not a.cs and prev != a.cs:
                raise ValueError(f"constraint id {a.cs.cs_id} bound to two definitions")
    return table


def _render_constraints_block(table: dict[str, Constraint]) -> str:
    if not table:
        return ""
    lines = [cs.text for cs in sorted(table.values(), key=attrgetter("sort_key"))]
    return "constraints { " + "\n  ".join(lines) + " }\n"


def serialize_trace(t: Trace) -> str:
    lines = [f"trace {{ initial: {t.initial}"]
    for pid, seq in t.procs.items():
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
    ts.expect("(")
    if kind == "spawn":
        child = parse_dotted_name(ts)
        ts.expect(")")
        return Spawn(child)
    if kind == "send":
        tag = parse_dotted_name(ts)
        ts.expect(",")
        value = parse_term(ts)
        ts.expect(",")
        target = parse_dotted_name(ts)
        ts.expect(")")
        return Send(tag, value, target)
    if kind == "rec":
        tag = parse_dotted_name(ts)
        ts.expect(",")
        cs_tok = ts.expect_atom()
        ts.expect(")")
        return tag, cs_tok
    raise ParseError(f"unknown action {kind!r}", tok.line, tok.col)


def _parse_document(text: str, keyword: str):
    """'<keyword> { initial: pid entries }' and its constraints block, read
    in one pass: the initial pid and, per entry, its pid, the pid's token
    and its actions."""
    ts = TokenStream(tokenize(text))
    ts.expect(keyword)
    ts.expect("{")
    ts.expect("initial")
    ts.expect(":")
    initial = parse_dotted_name(ts)
    entries: list[tuple[Pid, Token, list]] = []
    while not ts.at("}"):
        pid_tok = ts.peek()
        pid = parse_dotted_name(ts)
        ts.expect(":")
        acts = []
        if not ts.accept("ε"):
            acts.append(_parse_action(ts))
            while ts.accept(","):
                acts.append(_parse_action(ts))
        entries.append((pid, pid_tok, acts))
    ts.expect("}")
    constraints = parse_constraint_block(ts) if ts.at("constraints") else {}
    for _, _, acts in entries:
        for i, a in enumerate(acts):
            if isinstance(a, tuple):
                tag, cs_tok = a
                if cs_tok.text not in constraints:
                    raise ParseError(
                        f"unknown constraint id {cs_tok.text!r}", cs_tok.line, cs_tok.col
                    )
                acts[i] = Rec(tag, constraints[cs_tok.text])
    ts.expect_eof()
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
