"""Happened-before graphs and causal equivalence.

Events are addressed as ``traces.EventId`` pairs ``(pid, index)``, where
the index is the position of the action in that process's sequence. The
happened-before relation is generated by program order, spawn-before-child
and send-before-receive edges, closed transitively; two events are
independent when ``HbGraph.reach`` holds neither way.

Besides happened-before edges, valid linearizations respect *ordering
constraints*: for a receive of message L, every other matching send to the
same process that is not consumed earlier must be scheduled after L's send
(otherwise the receive would not take the oldest matching message). These
constraints are not part of happened-before — the events involved are
causally independent — but they take part in cycle checks and in
``traces.linearize``, through ``TraceIndex.succ``.

Everything here is computed from one ``TraceIndex`` per call, validated once:
each function takes a trace or an index ``valid_index`` returned, and reads
only ``racetrace.traces``. ``HbGraph`` is a view of that index: it adds only
the event ids, lists the edges and the pairs ``racetrace hb`` prints in
event-number order, answers ``reach`` and ``pairs`` with
``TraceIndex.after`` and ``find_cycle`` with the cycle search of
validation. ``hb_graph`` validates and then builds the graph with
``hb_graph_unchecked``, the one builder. ``EventId`` and ``linearize`` are
defined in ``traces`` and re-exported here under the same names.

``causally_equivalent`` decides equivalence by trace equality. The
brute-force references, all of sched(t), the swap search and the closure
of happened-before over event pairs, are in ``racetrace.oracles``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .traces import (
    EventId,
    Rec,
    Spawn,
    Trace,
    TraceIndex,
    first_cycle,
    linearize,
    tr,
    valid_index,
)


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


def hb_graph_unchecked(t: Trace | TraceIndex) -> HbGraph:
    """The graph of a trace, or of its index, without validating it."""
    index = t if isinstance(t, TraceIndex) else TraceIndex(t)
    return HbGraph(index, [EventId(pid, i) for pid, i, _ in index.events])


def hb_graph(t: Trace | TraceIndex) -> HbGraph:
    return hb_graph_unchecked(valid_index(t))


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


def causally_equivalent(s1: Interleaving, s2: Interleaving) -> bool:
    """Decided by trace equality (sound and complete for valid interleavings).

    ``tr`` validates each interleaving, raising ValueError for an invalid
    one; equal traces have the same initial pid and the same events."""
    return tr(s1) == tr(s2)
