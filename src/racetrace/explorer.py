"""Systematic state-space exploration driven by race variants.

The loop: run one seeded execution and record its trace; compute the race
sets of its receives and one race variant per (receive, racer) pair; replay
each variant prefix and continue deterministically to completion; recurse on
the races of the resulting traces. Complete traces are deduplicated by
canonical serialization, which is sound because the simulator's
schedule-invariant naming makes trace-equal executions byte-identical.
No set of queued variants is kept: the two rules below decide which
variants repeat one already queued, and those are not built.

Each new trace is indexed and validated once (``valid_index``); its orphans,
race sets (``racers_at``; no candidate table) and variants come from that
one index, which walks each receive's ``cut`` at most once. A receive's
few racers are sorted here, not read in ``TraceIndex.table_header`` order,
which sorts every send to the receiver (605 ``name_sort_key`` calls on
gencoll n=5, against 325). The report keeps one ``ExploredTrace`` per
trace, built when its variants are enqueued. A variant is never built as
a trace, indexed or validated: its validity gate admits it on the parent's
index, and ``variant_order`` reads its replay order off the same index,
raising ValueError on a cycle.

Each variant is replayed from ``initial_state``, as stateless model
checkers replay every schedule (VeriSoft, Concuerror): ``replay_order``
checks each action against the program, and ``run_deterministic``
continues from where the order ends.

A trace replayed from a variant keeps its parent's events up to the variant
prefix. The replay adds the rewritten receive r' and, in each process, the
events beyond the prefix. Two rules keep it from redoing its parent's work:

* Shared-prefix rule. The parent already enqueued the variants of every
  receive r inside the prefix. The child skips r only when every added
  event happened after r (``index.cut(r)``). Then all the child changed
  lies after r, and what r could be reordered with lies inside the prefix,
  as in the parent. Otherwise r's context changed, and its races are
  reported again: a variant at a proxy's receive makes the forwarded tag
  carry another message, so the collector's receive of that tag races anew.
  At r' the test runs over the other added events. No prefix event
  happened after r' (the prefix is closed under send and receive), so then
  the child's cut at r' keeps exactly the parent's prefix, numbered alike:
  ``variant_order(child, r', y) == variant_order(parent, r, y)`` for every
  racer y, a variant the parent already reached. None is built; each racer
  counts in ``sleeping`` or in ``duplicate_variants`` (the sleep-set
  argument of Godefroid, LNCS 1032, 1996, stated on the index).
* Sibling sleep set. When the variants of receive r are enqueued, each
  carries a sleep set: the tag r consumed, and the racers at r enqueued
  before it. At r' the child counts a racer its sleep set holds in
  ``sleeping`` and enqueues none, because its variant would cut the same
  prefix as a sibling's variant, or the parent's own prefix. Tags are safe
  to compare across traces: r happened before none of their sends, so they
  are sent inside the replayed prefix, and the simulator's names make a
  tag name the same send in the parent and in the child.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .parsing import sorted_names
from .races import racers_at, variant_order
from .simulator import (
    MAX_STEPS,
    DivergenceError,
    Outcome,
    Program,
    initial_state,
    replay_order,
    run_deterministic,
    run_random,
)
from .terms import Record
from .traces import Event, Pid, Tag, Trace, valid_index


class Origin(Record):
    __slots__ = ("parent_key", "replaced_at", "old_tag", "new_tag")  # replaced_at: (pid, index)


class ExploredTrace(Record):
    """One explored trace: how its run ended, its orphan tags in canonical
    order, its racers at the receives ``explore`` examined (a skipped one
    adds none), and the variant it was replayed from (None for the seed run)."""

    __slots__ = ("trace", "outcome", "orphans", "races", "origin")


class ExplorationReport:
    def __init__(self) -> None:
        self.traces: dict[str, ExploredTrace] = {}  # by key
        self.variants_enqueued = 0
        self.duplicate_traces = 0
        # racers at r' whose order the parent already enqueued: decided, not looked up
        self.duplicate_variants = 0
        self.sleeping = 0  # racers not enqueued because a sleep set holds them
        self.divergences = 0
        self.step_limited = 0
        self.bounded = False  # stopped at max_traces before the fixpoint

    @property
    def order(self) -> list[str]:
        """The keys of the traces, in the order they were recorded."""
        return list(self.traces)

    @property
    def number_width(self) -> int:
        """Digits of a trace's number in ``render`` and ``--out`` file names:
        the trace count's, at least 4, so the names sort as text in order."""
        return max(4, len(str(len(self.traces))))

    def render(self) -> str:
        lines = [
            f"traces explored: {len(self.traces)}",
            f"variants enqueued: {self.variants_enqueued}",
            f"duplicate traces: {self.duplicate_traces}",
            f"duplicate variants: {self.duplicate_variants}",
            f"sleeping racers: {self.sleeping}",
            f"replay divergences: {self.divergences}",
            f"step-limited runs: {self.step_limited}",
            f"bounded: {'yes' if self.bounded else 'no'}",
            "",
        ]
        width = self.number_width
        for n, entry in enumerate(self.traces.values(), start=1):
            origin = entry.origin
            via = (
                f" via {origin.old_tag}->{origin.new_tag} at "
                f"{origin.replaced_at[0]}[{origin.replaced_at[1]}]"
                if origin
                else " (seed run)"
            )
            orphan_list = ", ".join(entry.orphans) or "none"
            lines.append(f"trace {n:0{width}d}: {entry.outcome}{via}")
            lines.append(f"  races: {entry.races}, orphans: {orphan_list}")
        return "\n".join(lines) + "\n"


def explore(
    program: Program,
    seed: int = 0,
    max_steps: int = MAX_STEPS,
    max_traces: int = 10000,
) -> ExplorationReport:
    report = ExplorationReport()
    # variants to replay, as their orders, each with the origin of the trace
    # it yields and the racers its replaced receive sleeps on
    queue: deque[tuple[tuple[Event, ...], Origin, frozenset[Tag]]] = deque()

    def record(
        result: tuple[Trace, Outcome],
        shared: dict[Pid, int],
        origin: Optional[Origin],
        sleep: frozenset[Tag],
    ) -> None:
        """Record a run's trace unless already seen, then enqueue the variants
        of the races of its receives, except at a receive that every other
        added event happened after and a racer its replaced receive sleeps on."""
        t, outcome = result
        if outcome.kind == "step-limit":
            report.step_limited += 1
        key = t.key()
        if key in report.traces:
            report.duplicate_traces += 1
            return
        index = valid_index(t)
        # per process, how many events it shares with the parent: what the
        # replay of the variant's order recorded, less the rewritten receive;
        # the run added the rest, which follow each process's first added event
        replaced = -1
        if origin is not None:
            rpid, ridx = origin.replaced_at
            shared[rpid] = ridx
            replaced = index.first[rpid] + ridx
        added = [index.first[p] + n for p, n in shared.items() if len(t.procs[p]) > n]
        count = 0
        for r in index.receives:
            pid, idx, a = index.events[r]
            repeats = False  # every added event is r or happened after r
            if idx < shared.get(pid, 0) or r == replaced:
                cut = index.cut(r)
                repeats = all(cut[v] for v in added)
                if repeats and r != replaced:
                    continue
            slept = {a.tag}
            for racer in sorted_names(racers_at(index, r)):
                count += 1
                if r == replaced and racer in sleep:
                    report.sleeping += 1
                elif repeats:
                    report.duplicate_variants += 1
                else:
                    report.variants_enqueued += 1
                    origin_v = Origin(key, (pid, idx), a.tag, racer)
                    queue.append((variant_order(index, r, racer), origin_v, frozenset(slept)))
                    slept.add(racer)
        orphans = tuple(sorted_names(index.orphans()))
        report.traces[key] = ExploredTrace(t, outcome, orphans, count, origin)

    record(run_random(program, seed, max_steps), {}, None, frozenset())
    while queue:
        if len(report.traces) >= max_traces:
            report.bounded = True
            break
        order, origin, sleep = queue.popleft()
        sys = initial_state(program)
        try:
            replay_order(sys, order)
        except DivergenceError:
            report.divergences += 1
            continue
        shared = {p: len(ps.recorded) for p, ps in sys.procs.items()}
        record(run_deterministic(sys, max_steps), shared, origin, sleep)
    return report


def distinctness_check(report: ExplorationReport) -> Optional[str]:
    """None when all explored traces are pairwise distinct and every
    variant-descended trace differs from its parent at the replaced receive;
    otherwise a description of the first violation.

    Each trace must re-serialize to the key it is stored under. Keys are
    unique and serializations are byte-equal iff traces are equal, so the
    traces are then pairwise distinct: O(T) serializations, no pairwise
    comparison."""
    position = {key: n for n, key in enumerate(report.traces)}
    for key, entry in report.traces.items():
        own = entry.trace.key()
        if own == key:
            continue
        if own in position:
            k1, k2 = sorted((key, own), key=position.__getitem__)
            return f"duplicate traces under keys {k1!r} and {k2!r}"
        return f"trace under key {key!r} does not serialize to its key"
    for entry in report.traces.values():
        origin = entry.origin
        if origin is None or origin.parent_key not in report.traces:
            continue
        pid, idx = origin.replaced_at
        child_seq = entry.trace.procs.get(pid, ())
        parent_seq = report.traces[origin.parent_key].trace.procs.get(pid, ())
        if idx >= len(child_seq) or idx >= len(parent_seq):
            return f"replaced receive {pid}[{idx}] missing in trace or parent"
        if child_seq[idx] == parent_seq[idx]:
            return (
                f"trace derived from {origin.old_tag}->{origin.new_tag} does not "
                f"differ from its parent at {pid}[{idx}]"
            )
    return None
