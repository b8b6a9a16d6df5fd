"""Message races, race variants and orphan messages.

A message L' races with a received message L when some causally equivalent
prefix of the execution could have consumed L' at L's receive instead. With
selective receives and per-sender FIFO delivery only a sender's oldest
message waiting at the receive (``TraceIndex.oldest_waiting``) can be L':

  * it matches the receive constraint and was not consumed before the
    receive;
  * it is not L itself, and the receive did not happen before its send;
  * the rewritten trace must remain valid. The per-sender rule is not
    enough on its own: a foreign blocking message can be forced ahead of L'
    through a chain of orderings (e.g. the blocker precedes, in its own
    sender, a message that an earlier receive pins before L'). The validity
    gate decides this exactly, on the parent's hb graph.

``racers_at`` decides this. ``explain``, the one table builder, adds to a
race set a ``CandidateCheck`` per other send addressed to the receiver,
saying which of these it fails (a later message of a sender is
``blocked_by`` its oldest).

The declarative definition, a search over subtraces, is kept apart as the
reference that checks this one: ``racetrace.oracles.declarative_race_oracle``.

A race variant rewrites the receive to consume the racer and erases every
action that happened after the original receive, yielding a (usually partial)
trace that can drive a replayed execution into a new equivalence class. What
it erases is the receive's ``TraceIndex.cut``, one traversal per receive and
index; the race decision, the candidate table and ``variant_order`` all
read it, and ``_kept_succ`` the edges it keeps. ``variant`` is the trace of
``variant_order``'s linearization, so the variant is stated once. The
paper's inductive ``rdep`` is the tests' reference for it.

Cost: ``racers_at`` reads the receive's ``oldest_waiting`` messages, at most
one per sender, and stops there when no other sender has one waiting.
Otherwise it reads the cut, and the validity gate validates nothing: the
rewritten trace keeps the events the receive did not happen before and adds
the new receive, so one check (no kept send addresses a process whose
``spawn_at`` is erased) and one forward traversal from all the messages
waiting at the receive (no other may precede a survivor) decide it for every
survivor at once: linear in the events and edges kept, whatever the number
of senders. The explorer, and ``racetrace races`` without ``--explain``,
read only ``racers_at``. ``all_races`` and ``race_set`` validate once, or
not at all given an index ``valid_index`` returned, and add each receive's
table, built a column at a time. The columns no receive changes are the
receiver's ``table_header``, built once per index: its sends in table
order, with their senders, tags and ``taken_by`` entries. Match answers
are a ``match_column``, built once per receiver and clause list. Per
receive, received-earlier and hb-excluded are one comparison per row with
r and its cut; blocked-by is filled per sender, from its oldest message
waiting at r, and infeasible and in-race are set at those messages only.
The rows are then built in C, ``tuple.__new__`` over the zipped columns:
a row costs about 0.4 µs, against 0.7 µs when each was a Python-level
named-tuple construction. At 1 601 FIFO events (639 200 rows) the rows
still take most of ``all_races``'s time, about two thirds of it in the
cyclic garbage collector, which walks every row. A variant's replay order
is ``variant_order``, read off the same index with the one canonical order
``traces.smallest_first``, so a replay needs neither a new index nor a
validation. Everything here reads ``racetrace.traces`` (and ``terms``):
``all_races`` walks ``TraceIndex.receives``, and reports name a receive by
``traces.EventId``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import Callable, NamedTuple

from .terms import Record
from .traces import (
    Event,
    EventId,
    Interleaving,
    Pid,
    Rec,
    Tag,
    Trace,
    TraceIndex,
    smallest_first,
    tr,
    valid_index,
)


class CandidateCheck(NamedTuple):
    """Why a candidate message is in or out of a race set: one row of a
    candidate table, a named tuple."""

    tag: Tag
    sender: Pid
    matches: bool
    already_received: bool  # consumed before the receive under analysis
    hb_excluded: bool  # the receive happened before this send
    blocked_by: Tag | None  # earlier same-sender send still in the way
    infeasible: bool  # rewritten trace invalid (cross-sender forced order)
    in_race_set: bool

    def reason(self) -> str:
        if self.in_race_set:
            return "races"
        if self.already_received:
            return "received earlier"
        if not self.matches:
            return "value does not match"
        if self.hb_excluded:
            return "receive happened before send"
        if self.blocked_by is not None:
            return f"blocked by earlier send {self.blocked_by}"
        return "forced behind another matching message in every reordering"


class RaceReport(Record):
    # EventId, Tag, set[Tag], list[CandidateCheck]
    __slots__ = ("receive", "subject", "racers", "candidates")


def racers_at(index: TraceIndex, r: int) -> set[Tag]:
    """The race set of receive event r of a validated trace's index: the one
    statement of the race decision. Only a sender's oldest message waiting
    at r can race (its later ones are sent after it): those other than r's
    own that r did not happen before and that the validity gate admits."""
    own = index.send_at[index.events[r][2].tag]
    oldest = index.oldest_waiting(r)
    if all(s == own for s in oldest.values()):
        return set()
    gone = index.cut(r)
    infeasible = _variant_gate(index, r, oldest, gone)
    survivors = (s for s in oldest.values() if s != own and not gone[s])
    return {index.events[s][2].tag for s in survivors if not infeasible(s)}


def race_report(index: TraceIndex, r: int) -> RaceReport:
    """``racers_at`` and the candidate table that explains it."""
    pid, idx, rec = index.events[r]
    racers = racers_at(index, r)
    return RaceReport(EventId(pid, idx), rec.tag, racers, explain(index, r, racers))


def explain(index: TraceIndex, r: int, racers: set[Tag]) -> list[CandidateCheck]:
    """The candidate table of receive r, whose race set ``racers`` the
    caller decided, built a column at a time. A row passes the cheap checks
    iff it is its sender's oldest message waiting at r that r did not
    happen before (r's ``cut`` marks a send iff it did), and it is then
    infeasible iff not a racer: so only those rows, at most one per sender,
    can be in the race set or infeasible, and each sender's later sends are
    blocked by it. The columns that do not depend on r are r's process's
    ``table_header``; the rows are built in C, and r's own row removed."""
    events = index.events
    pid = events[r][0]
    header = index.table_header(pid)
    at = header.at
    gone = index.cut(r)
    blocked: list[Tag | None] = [None] * len(at)
    infeasible = [False] * len(at)
    in_race = [False] * len(at)
    sends_from = index.sends_to[pid]
    for q, w in index.oldest_waiting(r).items():
        tag = events[w][2].tag
        later = sends_from[q]
        for s in later[bisect_right(later, w):]:
            blocked[at[s]] = tag
        k = at[w]
        in_race[k] = tag in racers
        infeasible[k] = not gone[w] and not in_race[k]
    columns = (
        header.tags,
        header.senders,
        index.match_column(r),
        [c < r for c in header.taken],  # consumed before r
        [bool(gone[s]) for s in header.sends],
        blocked,
        infeasible,
        in_race,
    )
    checks = list(map(tuple.__new__, repeat(CandidateCheck), zip(*columns)))
    del checks[at[index.send_at[events[r][2].tag]]]
    return checks


def _variant_gate(
    index: TraceIndex, r: int, oldest: dict[Pid, int], gone: bytearray
) -> Callable[[int], bool]:
    """The validity gate of receive r's candidates, read off the parent's
    index: the returned function tells, for a send s that survives the
    cheap checks, whether the variant consuming s at r is *not* a valid
    trace. The variant is never built.

    The variant keeps K, the events r's ``cut`` (``gone``) does not mark,
    and ends r's process with rec(s). K is a subtrace of a valid trace, so
    the variant is invalid in two cases only:

    (i) a kept send addresses a process whose spawn (``spawn_at``) is
        erased: condition (a), the same for every candidate at r;
    (ii) the new receive closes a cycle: it orders s before W, the oldest
        message per sender still waiting at r inside K (r's own message,
        now unconsumed, among them), so s is infeasible iff some w in W
        other than s reaches s through K's hb and ordering edges
        (``_kept_succ``). K is acyclic, being part of a valid trace's
        graph, so no path leads from s back to s, and s is infeasible iff
        a kept edge enters it from an event W reaches (W included). One
        traversal from all of W answers every candidate: it reads each
        kept event's edges at most once, whatever the size of W.
    """
    to_dead = (index.sends_to.get(child, {}) for child, v in index.spawn_at.items() if gone[v])
    if any(not gone[s] for senders in to_dead for sends in senders.values() for s in sends):
        return lambda s: True
    stack = [w for w in oldest.values() if not gone[w]]
    mark = bytearray(len(index.events))  # 1: in W, 2: entered by a kept edge
    for w in stack:
        mark[w] = 1
    while stack:
        for u in _kept_succ(index, gone, stack.pop()):
            if not mark[u]:
                stack.append(u)
            mark[u] = 2
    return lambda s: mark[s] == 2


def _kept_succ(index: TraceIndex, gone: bytearray, v: int) -> list[int]:
    """The edges out of kept event v that every variant cut at a receive
    keeps (``gone`` is its ``cut``): its hb and ordering edges to kept
    events, except that a send no kept receive took keeps only its hb
    edges, since its ordering edges were that receive's."""
    c = index.taken_by[v]
    ordered = c < len(gone) and not gone[c]
    return [u for u in (index.succ if ordered else index.hb_succ)[v] if not gone[u]]


def receive_of(index: TraceIndex, tag: Tag) -> int:
    """The receive event that consumed tag; ValueError if there is none."""
    r = index.rec_at.get(tag)
    if r is None:
        raise ValueError(f"no receive event for tag {tag}")
    return r


def race_set(t: Trace | TraceIndex, tag: Tag) -> RaceReport:
    index = valid_index(t)
    return race_report(index, receive_of(index, tag))


def all_races(t: Trace | TraceIndex) -> list[RaceReport]:
    """One report per receive event, in process order then index order."""
    index = valid_index(t)
    return [race_report(index, r) for r in index.receives]


def orphans(t: Trace | TraceIndex) -> set[Tag]:
    """Tags that are sent but never received."""
    return valid_index(t).orphans()


# ---------------------------------------------------------------------------
# Race variants
# ---------------------------------------------------------------------------


def variant_order(index: TraceIndex, r: int, racer: Tag) -> tuple[Event, ...]:
    """The variant for a racer of receive event r of the trace `index`
    holds, as its linearization: the events r's ``cut`` keeps, and the
    receive rewritten to rec(racer). It equals ``linearize`` of the variant
    trace, so two orders are equal iff the two variant traces are. It is
    read off the parent's index by ``smallest_first``, as ``linearize``'s
    is, over the graph the validity gate walks; the variant is neither
    indexed nor validated.

    The new receive takes r's place, so the variant's events keep their
    relative numbering and the smallest ready event is the one
    ``linearize`` would take; which events are ready depends only on
    reachability, so the gate's pruned edges give the same order. The
    graph: the kept events with their ``_kept_succ`` edges, and the new
    receive, after its program (or spawn) predecessor and after the racer's
    send s, which precedes every other message still waiting at r. Raises
    ValueError if the pass cannot complete: the variant is cyclic."""
    events = index.events
    pid, idx, rec = events[r]
    s = index.send_at[racer]
    gone = index.cut(r)
    # r's program predecessor, or the spawn of its process when r comes first
    # (the initial process cannot start with a receive: no one sends first)
    pred = r - 1 if idx else index.spawn_at[pid]
    nodes = [v for v in range(len(events)) if not gone[v] or v == r]
    out = [[] if gone[v] else _kept_succ(index, gone, v) for v in range(len(events))]
    out[pred].append(r)
    out[s] += [r, *(w for w in index.oldest_waiting(r).values() if not gone[w] and w != s)]
    order = smallest_first(out, nodes)
    if len(order) != len(nodes):
        raise ValueError(f"the variant consuming {racer} at {index.loc(r)} is cyclic")
    new = Rec(racer, rec.cs)
    return tuple(Event(pid, new) if v == r else Event(events[v][0], events[v][2]) for v in order)


def variant(t: Trace | TraceIndex, tag: Tag, racer: Tag) -> Trace:
    """The race variant of t that consumes `racer` at `tag`'s receive r:
    the trace of its linearization ``variant_order``, which ``tr`` checks
    is a valid interleaving."""
    index = valid_index(t)
    r = receive_of(index, tag)
    if racer not in (racers := racers_at(index, r)):
        detail = next((c.reason() for c in explain(index, r, racers) if c.tag == racer), None)
        if detail is None:  # no row: the receive's own message, or not sent to it
            detail = (
                "it is the message this receive consumed" if racer == tag
                else f"no send of {racer} is addressed to {index.events[r][0]}"
            )
        raise ValueError(f"{racer} is not in the race set of {tag} ({detail})")
    return tr(Interleaving(index.trace.initial, variant_order(index, r, racer)))
