"""Spans around racetrace's public functions, installed from outside.

``Tracer.install`` rebinds each traced function wherever racetrace's own
modules look it up: every module attribute bound to the original function
object is replaced by a wrapper (``validate_trace`` in ``traces``,
``causality`` and ``races``; ``all_races`` in ``races`` and ``explorer``;
...), and the two ``HbGraph`` methods are replaced on the class. Imports
done inside a function body (``replay_prefix`` importing ``linearize``)
read the module attribute at call time, so they see the wrapper too.

A span is (name, parent, start, end). Spans are appended to flat arrays in
memory -- one traced repetition can open millions of them -- and reduced to
per-layer calls and self time when the run ends. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# (span name, defining module, attribute). Span names are the per-layer
# metric prefixes listed in BENCHMARK.json.
FUNCTIONS = [
    ("parsing.name_sort_key", "parsing", "name_sort_key"),
    ("terms.match", "terms", "match"),
    ("traces.validate_trace", "traces", "validate_trace"),
    ("traces.serialize_trace", "traces", "serialize_trace"),
    ("causality.hb_graph_unchecked", "causality", "hb_graph_unchecked"),
    ("causality.linearize", "causality", "linearize"),
    ("races.all_races", "races", "all_races"),
    ("races.race_set", "races", "race_set"),
    ("races.variant", "races", "variant"),
    ("races.orphans", "races", "orphans"),
    ("simulator.run_random", "simulator", "run_random"),
    ("simulator.replay_prefix", "simulator", "replay_prefix"),
    ("simulator.run_deterministic", "simulator", "run_deterministic"),
    ("simulator.step", "simulator", "step"),
    ("explorer.explore", "explorer", "explore"),
    ("explorer.distinctness_check", "explorer", "distinctness_check"),
]
METHODS = [
    ("causality.find_cycle", "causality", "HbGraph", "find_cycle"),
    ("causality.reach", "causality", "HbGraph", "reach"),
]
# Functions returning race reports, from which the race counts are read.
REPORTING = ("races.all_races", "races.race_set")
# Spans the benchmark opens around its own calls.
PARSE = "parsing.parse"
SEQUENCE = "bench.sequence"
SPAN_NAMES = [PARSE] + [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS] + [SEQUENCE]


class Tracer:
    """Spans of one traced run, plus race counts read from the reports
    that ``all_races`` and ``race_set`` return."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPAN_NAMES)
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.race_counts: Counter = Counter()

    def span(self, name: str, fn: Callable, *args):
        """Call fn inside a span named `name`; returns (result, duration)."""
        idx = len(self.starts)
        result = self._wrap(self.names.index(name), fn)(*args)
        return result, self.ends[idx] - self.starts[idx]

    def _wrap(self, nid: int, fn: Callable, observe: Optional[Callable] = None):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count_reports(self, result) -> None:
        reports = result if isinstance(result, list) else [result]
        counts = self.race_counts
        for rep in reports:
            counts["candidates"] += len(rep.candidates)
            counts["gates"] += sum(c.in_race_set or c.infeasible for c in rep.candidates)
            counts["racers"] += len(rep.racers)

    def install(self) -> None:
        """Wrap the traced functions of the currently imported racetrace."""
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "racetrace" or name.startswith("racetrace.")
        ]
        for span_name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"racetrace.{module}"], attr)
            observe = self._count_reports if span_name in REPORTING else None
            wrapper = self._wrap(self.names.index(span_name), original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for span_name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"racetrace.{module}"], cls_name)
            setattr(cls, attr, self._wrap(self.names.index(span_name), cls.__dict__[attr]))

    def layer_table(self, reps: int) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time per repetition, plus the sum of
        the self times of the traced layers below a ``bench.sequence`` root,
        the root's own time left out: the share of the sequence that the
        traced layers account for."""
        n = len(self.starts)
        child_time = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
                root[i] = root[p]
            else:
                root[i] = i
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        seq_id = self.names.index(SEQUENCE)
        sequence_self = 0.0
        for i in range(n):
            nid = self.name_ids[i]
            own = self.ends[i] - self.starts[i] - child_time[i]
            calls[nid] += 1
            self_s[nid] += own
            if root[i] != i and self.name_ids[root[i]] == seq_id:
                sequence_self += own
        table = {
            name: {"calls": calls[k] / reps, "self_s": self_s[k] / reps}
            for k, name in enumerate(self.names)
        }
        table[SEQUENCE]["self_sum_s"] = sequence_self / reps
        return table

    def durations(self, name: str) -> list[float]:
        nid = self.names.index(name)
        return [
            self.ends[i] - self.starts[i]
            for i in range(len(self.starts))
            if self.name_ids[i] == nid
        ]

    def write(self, path: Path) -> None:
        """Write all spans: a JSON header line, then the four arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.starts)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read_spans(path: Path) -> list[tuple[str, Optional[int], float, float]]:
    """(name, parent index or None, start, end) for every span in a file
    written by ``Tracer.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = [array(code) for code in "iidd"]
        for arr in arrays:
            arr.fromfile(fh, header["count"])
    names = header["names"]
    return [
        (names[nid], parent if parent >= 0 else None, start, end)
        for nid, parent, start, end in zip(*arrays)
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q of
    the values at or below it; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]
