"""The benchmark's three generated workloads and their independent references.

Each workload turns a seed into input text, names the parser a user's file
would go through, runs the same call sequence as one ``racetrace`` CLI
command, and checks the result against a closed form that is derived from
the generator alone -- never from ``explore`` or ``all_races``.

Calls into racetrace go through module attributes (``mods.races.all_races``)
so that the traced run's wrappers, which rebind those attributes, see them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

# Sizes chosen to fit several repetitions into one run; see README.md.
GENCOLL_N = 5
FIFO_N = 100
FANIN_K = 16
FANIN_M = 2


def _pid_key(name: str) -> tuple[int, ...]:
    return tuple(int(part.lstrip("p")) for part in name.split("."))


# ---------------------------------------------------------------------------
# explore-gencoll: main spawns a collector and n generators
# ---------------------------------------------------------------------------


def gencoll_values(n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1000) for _ in range(n)]


def gencoll_program(n: int, seed: int) -> str:
    spawns = "".join(f"; spawn gen(C, {v})" for v in gencoll_values(n, seed))
    receives = "; ".join("receive { {val,X} -> X }" for _ in range(n))
    return (
        "program { main main\n"
        f"  def main() {{ C = spawn collector(){spawns} }}\n"
        "  def gen(C, N) { send {val,N} to C }\n"
        f"  def collector() {{ {receives} }} }}\n"
    )


def gencoll_expected_keys(n: int, seed: int) -> set[str]:
    """One canonical trace text per order in which the collector consumes.

    Written from the simulator's naming scheme: main is ``p1``, its k-th
    child ``p1.k`` (the collector is ``p1.1``, generator i is ``p1.(i+1)``),
    and the k-th message a process P sends is tagged ``P.k``. The collector's
    receives are parsed into constraints ``cs1..csn`` in source order.
    """
    values = gencoll_values(n, seed)
    gens = [f"p1.{i + 2}" for i in range(n)]
    head = "trace { initial: p1\n  p1: " + ", ".join(
        f"spawn(p1.{k})" for k in range(1, n + 2)
    )
    sends = "".join(
        f"\n  {g}: send({g}.1, {{val,{v}}}, p1.1)" for g, v in zip(gens, values)
    )
    constraints = "constraints { " + "\n  ".join(
        f"cs{k}: {{val,X}} -> ." for k in range(1, n + 1)
    ) + " }\n"
    keys = set()
    for order in itertools.permutations(gens):
        recs = ", ".join(f"rec({g}.1, cs{k})" for k, g in enumerate(order, start=1))
        keys.add(f"{head}\n  p1.1: {recs}{sends} }}\n{constraints}")
    return keys


# ---------------------------------------------------------------------------
# races-*: trace documents built directly as text
# ---------------------------------------------------------------------------


def _trace_text(procs: dict[str, list[str]], n_constraints: int) -> str:
    lines = [
        f"  {pid}: {', '.join(procs[pid]) or 'ε'}"
        for pid in sorted(procs, key=_pid_key)
    ]
    constraints = "\n  ".join(f"cs{k}: {{val,X}} -> ." for k in range(1, n_constraints + 1))
    return "trace { initial: p1\n" + "\n".join(lines) + " }\nconstraints { " + constraints + " }\n"


def fifo_trace(n: int, seed: int) -> str:
    """``p1`` spawns ``p1.1`` and sends it n messages, all of which it receives."""
    rng = random.Random(seed)
    sends = [f"send(p1.{k}, {{val,{rng.randrange(1000)}}}, p1.1)" for k in range(1, n + 1)]
    recs = [f"rec(p1.{k}, cs{k})" for k in range(1, n + 1)]
    return _trace_text({"p1": ["spawn(p1.1)"] + sends, "p1.1": recs}, n)


def fanin_order(k: int, m: int, seed: int) -> list[tuple[int, int]]:
    """(sender index, round) per receive: round-robin, senders shuffled per round."""
    rng = random.Random(seed)
    order = []
    for r in range(1, m + 1):
        senders = list(range(2, k + 2))
        rng.shuffle(senders)
        order.extend((s, r) for s in senders)
    return order


def fanin_trace(k: int, m: int, seed: int) -> str:
    """k senders ``p1.2..`` each send m messages to collector ``p1.1``."""
    order = fanin_order(k, m, seed)
    procs = {"p1": [f"spawn(p1.{j})" for j in range(1, k + 2)]}
    procs["p1.1"] = [f"rec(p1.{s}.{r}, cs{i})" for i, (s, r) in enumerate(order, start=1)]
    for s in range(2, k + 2):
        procs[f"p1.{s}"] = [f"send(p1.{s}.{r}, {{val,{r}}}, p1.1)" for r in range(1, m + 1)]
    return _trace_text(procs, k * m)


def fifo_expected_races(n: int) -> list[tuple[str, set[str]]]:
    """Every candidate is blocked by an older message of the one sender."""
    return [(f"p1.{k}", set()) for k in range(1, n + 1)]


def fanin_expected_races(k: int, m: int, seed: int) -> list[tuple[str, set[str]]]:
    """Each receive races with the oldest unconsumed message of every other sender."""
    next_round = {s: 1 for s in range(2, k + 2)}
    expected = []
    for s, r in fanin_order(k, m, seed):
        racers = {
            f"p1.{o}.{next_round[o]}"
            for o in next_round
            if o != s and next_round[o] <= m
        }
        expected.append((f"p1.{s}.{r}", racers))
        next_round[s] += 1
    return expected


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


@dataclass
class Check:
    attempted: int
    failed: int


@dataclass
class Workload:
    """One generated input, the call sequence it runs and its reference."""

    name: str
    text: str
    units: int  # explored traces or analysed receives per repetition
    parse: Callable[[Any, str], Any]  # (mods, text) -> parsed input
    run: Callable[[Any, Any], Any]  # (mods, parsed) -> result
    check: Callable[[Any], Check]  # result -> outputs checked / wrong
    counters: Callable[[Any], dict] = lambda result: {}  # result -> layer counts


def _explore_sequence(seed: int):
    def run(mods: SimpleNamespace, program):
        report = mods.explorer.explore(program, seed=seed)
        return report, mods.explorer.distinctness_check(report)

    return run


def _races_sequence(mods: SimpleNamespace, t):
    bad = mods.traces.validate_trace(t)
    if bad is not None:
        return bad, [], set()
    return None, mods.races.all_races(t), mods.races.orphans(t)


def _check_explore(expected: set[str]):
    def check(result) -> Check:
        report, bad = result
        found = set(report.traces)
        extra = len(found - expected)
        failed = len(expected - found) + extra + (bad is not None) + report.bounded
        return Check(len(expected) + extra + 2, failed)

    return check


def _explore_counters(result) -> dict:
    report, _ = result
    return {
        "traces": len(report.traces),
        "replays": report.variants_enqueued,
        "duplicate_traces": report.duplicate_traces,
        "duplicate_variants": report.duplicate_variants,
        "divergences": report.divergences,
    }


def _check_races(expected: list[tuple[str, set[str]]]):
    def check(result) -> Check:
        bad, reports, orphan_tags = result
        got = [(rep.subject, rep.racers) for rep in reports]
        wrong = sum(g != e for g, e in zip(got, expected))
        wrong += abs(len(got) - len(expected))
        return Check(len(expected) + 2, wrong + (bad is not None) + bool(orphan_tags))

    return check


def explore_gencoll(seed: int, n: int = GENCOLL_N) -> Workload:
    return Workload(
        "explore-gencoll",
        gencoll_program(n, seed),
        math.factorial(n),
        lambda mods, text: mods.simulator.parse_program(text),
        _explore_sequence(seed),
        _check_explore(gencoll_expected_keys(n, seed)),
        _explore_counters,
    )


def races_fifo(seed: int, n: int = FIFO_N) -> Workload:
    return Workload(
        "races-fifo",
        fifo_trace(n, seed),
        n,
        lambda mods, text: mods.traces.parse_trace(text),
        _races_sequence,
        _check_races(fifo_expected_races(n)),
    )


def races_fanin(seed: int, k: int = FANIN_K, m: int = FANIN_M) -> Workload:
    return Workload(
        "races-fanin",
        fanin_trace(k, m, seed),
        k * m,
        lambda mods, text: mods.traces.parse_trace(text),
        _races_sequence,
        _check_races(fanin_expected_races(k, m, seed)),
    )


WORKLOADS = {
    "explore-gencoll": explore_gencoll,
    "races-fifo": races_fifo,
    "races-fanin": races_fanin,
}
