"""Brute-force references that the fast path is checked against.

Each function here decides by exhaustive search what a library module
computes constructively, and exists to check it:

  * ``enumerate_linearizations`` lists sched(t), every valid interleaving
    of a trace, backtracking over ``TraceIndex.succ`` with an explicit
    stack, against ``linearize`` and ``tr``; ``is_subtrace`` is the
    subtrace relation, a prefix per process;
  * ``swap_equiv_oracle`` decides causal equivalence by searching the swaps
    of adjacent independent events, against ``causally_equivalent``;
    ``hb_relation`` gives happened-before as the transitive closure of the
    direct relation between an interleaving's events;
  * ``declarative_race_oracle`` decides one race by the declarative
    definition, against ``race_set``: it searches for a subtrace that
    truncates the receiver right before the receive and stays a valid trace
    once ``rec(L', cs)`` is appended;
  * ``enumerate_executions`` runs every schedule of a program, against
    ``explore``.

They are exponential and meant for small inputs. They read traces,
interleavings and the simulator only, never ``causality``, ``races`` or
``explorer``, so a fault in the fast path cannot hide in its reference.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from typing import Iterator

from .simulator import MAX_STEPS, Program, SysState, enabled, initial_state, step
from .traces import (
    Event,
    Interleaving,
    Pid,
    Rec,
    Send,
    Spawn,
    Tag,
    Trace,
    TraceIndex,
    valid_index,
    validate_interleaving,
    validate_trace,
)


def enumerate_linearizations(t: Trace | TraceIndex, cap: int = 10000) -> list[Interleaving]:
    """All members of sched(t); raises if there are more than cap."""
    index = valid_index(t)
    succ = index.succ
    preds = [0] * len(succ)
    for targets in succ:
        for w in targets:
            preds[w] += 1
    out: list[Interleaving] = []
    order: list[int] = []
    # one frame per depth: the ready events, ascending, and the next to try
    frames = [([v for v, c in enumerate(preds) if c == 0], 0)]
    while frames:
        ready, k = frames[-1]
        if k == 0 and len(order) == len(succ):
            if len(out) >= cap:
                raise ValueError(f"more than {cap} linearizations")
            out.append(index.interleaving(order))
        if k == len(ready):
            frames.pop()
            if order:
                for nxt in succ[order.pop()]:
                    preds[nxt] += 1
            continue
        frames[-1] = (ready, k + 1)
        node = ready[k]
        order.append(node)
        fresh = []
        for nxt in succ[node]:
            preds[nxt] -= 1
            if preds[nxt] == 0:
                fresh.append(nxt)
        frames.append((sorted(ready[:k] + ready[k + 1 :] + fresh), 0))
    return out


def is_subtrace(t1: Trace, t2: Trace) -> bool:
    """Per-process prefix relation between valid traces."""
    if t1.initial != t2.initial:
        raise ValueError("subtrace comparison requires the same initial pid")
    for pid, seq in t1.procs.items():
        if seq and seq != t2.procs.get(pid, ())[: len(seq)]:
            return False
    return True


class SwapBudgetExhausted(Exception):
    """The swap search ran out of budget before deciding reachability."""


def hb_relation(s: Interleaving) -> frozenset[tuple[Event, Event]]:
    """The happened-before relation of an interleaving as event pairs.

    Events themselves are the keys: pid/tag uniqueness makes every event of
    a valid interleaving distinct, so relations of two interleavings over
    the same events are directly comparable."""
    ids = list(s.events)
    direct: set[tuple[int, int]] = set()
    for i, ei in enumerate(s.events):
        for j in range(i + 1, len(s.events)):
            ej = s.events[j]
            if _directly_related(ei, ej):
                direct.add((i, j))
    # transitive closure
    closure = set(direct)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return frozenset((ids[a], ids[b]) for a, b in closure)


def _directly_related(earlier: Event, later: Event) -> bool:
    if earlier.pid == later.pid:
        return True
    if isinstance(earlier.action, Spawn) and earlier.action.child == later.pid:
        return True
    if (
        isinstance(earlier.action, Send)
        and isinstance(later.action, Rec)
        and earlier.action.tag == later.action.tag
    ):
        return True
    return False


def swap_equiv_oracle(s1: Interleaving, s2: Interleaving, budget: int = 100000) -> bool:
    """Breadth-first search over single swaps of consecutive independent
    events, keeping only sequences that remain valid interleavings.

    Exists purely as a test oracle for ``causally_equivalent``; exponential.
    Raises SwapBudgetExhausted when the budget runs out undecided.
    """
    for s in (s1, s2):
        bad = validate_interleaving(s)
        if bad is not None:
            raise ValueError(f"invalid interleaving: {bad}")
    if s1.initial != s2.initial or Counter(s1.events) != Counter(s2.events):
        return False
    start, goal = s1.events, s2.events
    if start == goal:
        return True
    seen = {start}
    queue = deque([start])
    expanded = 0
    while queue:
        if expanded >= budget:
            raise SwapBudgetExhausted(f"undecided after expanding {expanded} states")
        events = queue.popleft()
        expanded += 1
        for i in range(len(events) - 1):
            if _directly_related(events[i], events[i + 1]):
                continue
            swapped = events[:i] + (events[i + 1], events[i]) + events[i + 2 :]
            if swapped in seen:
                continue
            if validate_interleaving(Interleaving(s1.initial, swapped)) is not None:
                continue
            if swapped == goal:
                return True
            seen.add(swapped)
            queue.append(swapped)
    return False


def declarative_race_oracle(t: Trace, tag: Tag, other: Tag) -> bool:
    """Brute-force the declarative race definition on a small trace.

    True iff some subtrace truncates the receiver exactly before rec(tag)
    and remains a valid trace once rec(other, cs) is appended.
    """
    index = valid_index(t)
    if other == tag:
        return False
    r = index.rec_at.get(tag)
    if r is None:
        raise ValueError(f"no receive event for tag {tag}")
    pid, idx, rec = index.events[r]
    others = [p for p in t.procs if p != pid]
    ranges = [range(len(t.procs[p]) + 1) for p in others]
    for cut in itertools.product(*ranges):
        procs = {p: t.procs[p][:n] for p, n in zip(others, cut)}
        procs[pid] = t.procs[pid][:idx]
        # a process whose spawn was cut away does not exist in the subtrace
        spawned = {a.child for seq in procs.values() for a in seq if isinstance(a, Spawn)}
        procs = {p: seq for p, seq in procs.items() if p == t.initial or p in spawned}
        if pid not in procs:
            continue  # the receiver itself is not spawned yet
        prefix = Trace(t.initial, procs)
        if validate_trace(prefix) is not None:
            continue  # not a subtrace
        candidate_procs = dict(procs)
        candidate_procs[pid] = procs[pid] + (Rec(other, rec.cs),)
        if validate_trace(Trace(t.initial, candidate_procs)) is None:
            return True
    return False


def enumerate_executions(
    program: Program, max_steps: int = MAX_STEPS
) -> tuple[dict[str, Trace], int]:
    """Depth-first over every enabled choice at every state.

    Returns (complete traces keyed by canonical serialization, number of
    branches cut off by the step limit). An explicit stack holds the
    current path, so no step limit runs into Python's recursion limit.
    """
    traces: dict[str, Trace] = {}
    limited = 0
    # per state on the path, the pids of the choices not yet taken; a
    # state's depth is the stack's length when it is visited
    stack: list[tuple[SysState, Iterator[Pid]]] = []

    def visit(sys: SysState) -> None:
        nonlocal limited
        choices = enabled(sys)
        if not choices:
            t = sys.trace()
            traces.setdefault(t.key(), t)
        elif len(stack) >= max_steps:
            limited += 1
        else:
            stack.append((sys, (pid for pid, _ in choices)))

    visit(initial_state(program))
    while stack:
        sys, pids = stack[-1]
        pid = next(pids, None)
        if pid is None:
            stack.pop()
            continue
        branch = sys.clone()
        step(branch, pid)
        visit(branch)
    return traces, limited
