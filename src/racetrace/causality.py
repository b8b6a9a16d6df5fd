"""Happened-before graphs, linearization and causal equivalence.

Events are addressed as ``(pid, index)`` pairs, where the index is the
position of the action in that process's sequence. The happened-before
relation is generated by program order, spawn-before-child and
send-before-receive edges, closed transitively; two events are
independent when ``HbGraph.reach`` holds neither way.

Besides happened-before edges, valid linearizations respect *ordering
constraints*: for a receive of message L, every other matching send to the
same process that is not consumed earlier must be scheduled after L's send
(otherwise the receive would not take the oldest matching message). These
constraints are not part of happened-before — the events involved are
causally independent — but they take part in cycle checks and
``linearize``, through ``TraceIndex.succ``.

Everything here is computed from one ``TraceIndex`` per call, validated once:
each function takes a trace or an index ``valid_index`` returned.
``HbGraph`` is a view of that index: it adds only the event ids, lists the
edges and the pairs ``racetrace hb`` prints in event-number order, answers
``reach`` and ``pairs`` with ``TraceIndex.after`` and ``find_cycle`` with
the cycle search of validation. ``linearize`` is ``traces.smallest_first`` over
event numbers, which order events by ``(name_sort_key(pid), pid, index)``;
the same Kahn pass orders a race variant, so a variant's order is its
trace's linearization.

``causally_equivalent`` decides equivalence by trace equality. The
brute-force references, all of sched(t), the swap search and the closure
of happened-before over event pairs, are in ``racetrace.oracles``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional

from .traces import (
    Event,
    Interleaving,
    Rec,
    Spawn,
    Trace,
    TraceIndex,
    first_cycle,
    smallest_first,
    tr,
    valid_index,
)


class EventId(NamedTuple):
    pid: str
    index: int


class HbGraph:
    """The happened-before edges of one trace, as a view of the
    ``TraceIndex`` they were read from: every query is answered by the
    index's own traversals, and every listing is in event-number order."""

    def __init__(self, index: TraceIndex, nodes: list[EventId]) -> None:
        self.index = index
        self.nodes = nodes

    def _number(self, e: EventId) -> int:
        pid, i = e
        seq = self.index.trace.procs.get(pid)
        if seq is None or not 0 <= i < len(seq):
            raise KeyError(f"unknown event {e}")
        return self.index.first[pid] + i

    def reach(self, src: EventId, dst: EventId) -> bool:
        """True iff dst is reachable from src via happened-before edges.

        Irreflexive: reach(e, e) is False unless e lies on a cycle (which
        cannot happen for a valid trace). KeyError for an unknown event.
        """
        v, w = self._number(src), self._number(dst)
        return bool(self.index.after(v)[w])

    def edges(self) -> Iterator[tuple[EventId, EventId, str]]:
        """Each hb edge once, by source then target event number, with its
        kind: "message TAG" (send to its receive), "spawn" (to the child's
        first action) or "program"."""
        index, nodes = self.index, self.nodes
        for v, succ in enumerate(index.hb_succ):
            a = index.events[v][2]
            for w in sorted(succ):
                b = index.events[w][2]
                if isinstance(b, Rec) and index.send_at.get(b.tag) == v:
                    yield nodes[v], nodes[w], f"message {b.tag}"
                elif isinstance(a, Spawn) and w == index.first.get(a.child):
                    yield nodes[v], nodes[w], "spawn"
                else:
                    yield nodes[v], nodes[w], "program"

    def pairs(self) -> Iterator[tuple[EventId, EventId]]:
        """The transitive closure of the hb edges, by source then target
        event number: one ``TraceIndex.after`` traversal per event."""
        nodes = self.nodes
        for v, src in enumerate(nodes):
            for dst in itertools.compress(nodes, self.index.after(v)):
                yield src, dst

    def find_cycle(self) -> Optional[list[EventId]]:
        """A cycle over hb edges plus mailbox-ordering edges, or None: the
        one condition (d) of ``validate_trace`` reports."""
        cycle = first_cycle(self.index.succ)
        return None if cycle is None else [self.nodes[k] for k in cycle]


def _graph(index: TraceIndex) -> HbGraph:
    return HbGraph(index, [EventId(pid, i) for pid, i, _ in index.events])


def hb_graph_unchecked(t: Trace) -> HbGraph:
    """Build the graph without validating the trace first.

    No library code calls it; it stays as the name the benchmark's span
    for graph building is bound to."""
    return _graph(TraceIndex(t))


def hb_graph(t: Trace | TraceIndex) -> HbGraph:
    return _graph(valid_index(t))


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------


def _to_interleaving(index: TraceIndex, order: list[int]) -> Interleaving:
    events = index.events
    return Interleaving(
        index.trace.initial, tuple(Event(events[v][0], events[v][2]) for v in order)
    )


def linearize(t: Trace | TraceIndex) -> Interleaving:
    """Deterministic linearization: always the smallest ready event, ties
    broken by smallest pid, then index."""
    index = valid_index(t)
    order = smallest_first(index.succ, range(len(index.events)))
    if len(order) != len(index.events):
        raise ValueError("trace graph is cyclic")  # unreachable on valid traces
    return _to_interleaving(index, order)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


def causally_equivalent(s1: Interleaving, s2: Interleaving) -> bool:
    """Decided by trace equality (sound and complete for valid interleavings).

    ``tr`` validates each interleaving, raising ValueError for an invalid
    one; equal traces have the same initial pid and the same events."""
    return tr(s1) == tr(s2)
