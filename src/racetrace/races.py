"""Message races, race variants and orphan messages.

A message L' races with a received message L when some causally equivalent
prefix of the execution could have consumed L' at L's receive instead. The
constructive check per candidate send(L', v', p):

  * v' matches the receive constraint;
  * L' was not already consumed before the receive;
  * the receive did not happen before the send of L';
  * no earlier send from the same sender to p is still in the way (matching
    and unconsumed at the receive), which would make *it* the racer instead;
  * finally, the rewritten trace must remain valid. The per-sender check
    above is not enough on its own: a foreign blocking message can be forced
    ahead of L' through a chain of orderings (e.g. the blocker precedes, in
    its own sender, a message that an earlier receive pins before L'). The
    validity gate decides this exactly, on the parent's hb graph, and the
    earlier per-candidate checks survive as explanations.

The declarative definition, a search over subtraces, is kept apart as the
reference that checks this one: ``racetrace.oracles.declarative_race_oracle``.

A race variant rewrites the receive to consume the racer and erases every
action that happened after the original receive, yielding a (usually partial)
trace that can drive a replayed execution into a new equivalence class. What
it keeps is stated once, in ``_erased``, which the validity gate and
``variant_order`` both read; the paper's inductive ``rdep`` is the tests'
reference for it.

Cost: ``all_races`` and ``race_set`` index and validate the trace once, then
call ``race_report`` -- the one per-receive builder, which the explorer
calls too -- for the receives they report on. Each receive's report is one
pass over the sends addressed to its process, in sender order:
``blocked_by`` is the sender's oldest message the receive could take
(``TraceIndex.oldest_waiting``, the one statement of the mailbox rule) when
that precedes the candidate, and ``hb_excluded`` reads one forward
traversal from the receive shared by all its candidates. The validity gate
reads the same index and validates nothing: the rewritten trace keeps the
events the receive did not happen before and adds the new receive, so it
is decided by one check per receive (no kept send addresses an erased
process) and one forward traversal per candidate that survives the cheap
checks (no other message waiting at the receive must precede it). A
variant is its replay order: ``variant_order`` reads the variant's
linearization off the same index, so a replay needs neither a new index
nor a validation, and ``variant`` projects that order onto its processes.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

from .causality import EventId
from .parsing import name_sort_key
from .traces import (
    Event, Interleaving, Pid, Rec, Send, Spawn, Tag, Trace, TraceIndex, tr, valid_index,
)
from .terms import match


@dataclass(frozen=True)
class CandidateCheck:
    """Why a candidate message is in or out of a race set."""

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


@dataclass
class RaceReport:
    receive: EventId
    subject: Tag
    racers: set[Tag]
    candidates: list[CandidateCheck]

    def sorted_racers(self) -> list[Tag]:
        return sorted(self.racers, key=name_sort_key)


@dataclass
class Variant:
    trace: Trace
    replaced_at: tuple[Pid, int]
    old_tag: Tag
    new_tag: Tag


def race_report(index: TraceIndex, r: int) -> RaceReport:
    """The race set of receive event r of a validated trace's index: the one
    builder behind ``race_set``, ``all_races`` and the explorer."""
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
            already = index.consumed_before(send.tag, r)
            hb_excluded = bool(after[s])
            blocked_by = blocker if first is not None and first < s else None
            survives = matches and not already and not hb_excluded and blocked_by is None
            if survives and gate is None:
                gate = _variant_gate(index, r, oldest)
            infeasible = survives and gate(s)
            checks.append(
                CandidateCheck(
                    send.tag, q, matches, already, hb_excluded, blocked_by,
                    infeasible, survives and not infeasible,
                )
            )
    checks.sort(key=lambda c: name_sort_key(c.tag))
    racers = {c.tag for c in checks if c.in_race_set}
    return RaceReport(EventId(pid, idx), rec.tag, racers, checks)


def _erased(index: TraceIndex, r: int) -> tuple[bytearray, set[Pid]]:
    """What every variant cut at receive r erases: the marks of r and of
    the events r happened before (``index.after(r)``), and the pids whose
    spawn is among them. A variant keeps every other event, which is what
    the paper's ``rdep`` keeps once r is rewritten, and ``notdep(r)`` in
    Optimal DPOR's terms; the validity gate and ``variant_order`` both
    read it from here."""
    gone = index.after(r)
    gone[r] = 1
    erased_events = itertools.compress(index.events, gone)
    dead = {a.child for _, _, a in erased_events if isinstance(a, Spawn)}
    return gone, dead


def _variant_gate(
    index: TraceIndex, r: int, oldest: dict[Pid, int]
) -> Callable[[int], bool]:
    """The validity gate of receive r's candidates, read off the parent's
    index: the returned function tells, for a send s that survives the
    cheap checks, whether the variant consuming s at r is *not* a valid
    trace. The variant is never built.

    The variant keeps K, the events ``_erased`` does not mark, and ends r's
    process with rec(s). K is a subtrace of a valid trace, so the variant
    is invalid in two cases only:

    (i) a kept send addresses a process whose spawn is erased: condition
        (a), the same for every candidate at r;
    (ii) the new receive closes a cycle: it orders s before W, the oldest
        message per sender still waiting at r inside K (r's own message,
        now unconsumed, among them), so s is infeasible iff some w in W
        other than s reaches s through K's hb and ordering edges. One
        forward traversal per candidate decides it. A send whose receive
        is erased keeps only its hb edges, since its ordering edges were
        that receive's.
    """
    gone, dead = _erased(index, r)
    if any(
        not gone[v]
        for child in dead
        for sends in index.sends_to.get(child, {}).values()
        for v in sends
    ):
        return lambda s: True
    events, rec_at = index.events, index.rec_at
    waiting = [w for w in oldest.values() if not gone[w]]
    succ, hb_succ = index.succ, index.hb_succ

    def infeasible(s: int) -> bool:
        seen = bytearray(len(events))
        stack = [w for w in waiting if w != s]
        for w in stack:
            seen[w] = 1
        while stack:
            v = stack.pop()
            a = events[v][2]
            # only a send whose receive K keeps has ordering edges
            ordered = isinstance(a, Send) and not gone[rec_at.get(a.tag, r)]
            for u in succ[v] if ordered else hb_succ[v]:
                if u == s:
                    return True
                if not gone[u] and not seen[u]:
                    seen[u] = 1
                    stack.append(u)
        return False

    return infeasible


def _receive(index: TraceIndex, tag: Tag) -> int:
    r = index.rec_at.get(tag)
    if r is None:
        raise ValueError(f"no receive event for tag {tag}")
    return r


def race_set(t: Trace, tag: Tag) -> RaceReport:
    index = valid_index(t)
    return race_report(index, _receive(index, tag))


def all_races(t: Trace) -> list[RaceReport]:
    """One report per receive event, in process order then index order."""
    index = valid_index(t)
    return [
        race_report(index, r)
        for r, (_, _, a) in enumerate(index.events)
        if isinstance(a, Rec)
    ]


def orphans(t: Trace) -> set[Tag]:
    """Tags that are sent but never received."""
    return valid_index(t).orphans()


# ---------------------------------------------------------------------------
# Race variants
# ---------------------------------------------------------------------------


def variant_order(index: TraceIndex, report: RaceReport, racer: Tag) -> tuple[Event, ...]:
    """The variant for a racer of `report`, a report on the trace `index`
    holds, as its linearization: the events ``_erased`` keeps, and the
    receive rewritten to rec(racer). It equals ``linearize_index`` of the
    variant trace's own index, so two orders are equal iff the two variant
    traces are. It is read off the parent's index in one Kahn pass with a
    smallest-ready heap over the graph the validity gate walks; the variant
    is neither indexed nor validated.

    The new receive takes r's place, so the variant's events keep their
    relative numbering and the smallest ready event is the one
    ``linearize_index`` would take; which events are ready depends only on
    reachability, so the gate's pruned edges give the same order. The
    graph: the kept events with their hb edges, a kept send's ordering
    edges when its receive is kept, and the new receive, after its program
    (or spawn) predecessor and after the racer's send s, which precedes
    every other message still waiting at r. Raises ValueError if the pass
    cannot complete: the variant is cyclic."""
    events, rec_at, succ, hb_succ = index.events, index.rec_at, index.succ, index.hb_succ
    pid, idx = report.receive
    r = index.first[pid] + idx
    s = index.send_at[racer]
    gone, _ = _erased(index, r)
    # r's program predecessor, or the spawn of its process when r comes first
    pred = r - 1 if idx else next(
        (v for v, (_, _, a) in enumerate(events) if isinstance(a, Spawn) and a.child == pid),
        None,
    )
    waiting = [w for w in index.oldest_waiting(r).values() if not gone[w] and w != s]
    out: dict[int, list[int]] = {}
    preds = [0] * len(events)
    for v, (_, _, a) in enumerate(events):
        if gone[v]:
            continue
        # only a send whose receive is kept has ordering edges
        ordered = isinstance(a, Send) and not gone[rec_at.get(a.tag, r)]
        targets = [u for u in (succ[v] if ordered else hb_succ[v]) if not gone[u]]
        if v == pred:
            targets.append(r)
        if v == s:
            targets += [r, *waiting]
        out[v] = targets
        for u in targets:
            preds[u] += 1
    ready = [v for v in out if not preds[v]]  # ascending, so a heap already
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in out.get(v, ()):
            preds[u] -= 1
            if not preds[u]:
                heapq.heappush(ready, u)
    if len(order) != len(out) + 1:
        raise ValueError(f"the variant consuming {racer} at {index.loc(r)} is cyclic")
    new = Rec(racer, events[r][2].cs)
    return tuple(Event(pid, new) if v == r else Event(events[v][0], events[v][2]) for v in order)


def variant(t: Trace, tag: Tag, racer: Tag) -> Variant:
    """The race variant of t that consumes `racer` at `tag`'s receive."""
    index = valid_index(t)
    report = race_report(index, _receive(index, tag))
    if racer not in report.racers:
        detail = next((c.reason() for c in report.candidates if c.tag == racer), None)
        why = f" ({detail})" if detail else ""
        raise ValueError(f"{racer} is not in the race set of {tag}{why}")
    procs = tr(Interleaving(t.initial, variant_order(index, report, racer))).procs
    kept = Trace(t.initial, {p: procs[p] for p in t.procs if p in procs})  # parent's order
    return Variant(kept, report.receive, report.subject, racer)
