"""Completeness by counting: on program families whose number of complete
traces is known in closed form (``families``), explore must find exactly
that many, pairwise distinct, each a valid trace and a complete run of the
program. Together these prove it found every trace, with no oracle run.
"""

from math import factorial

import pytest

from racetrace import (
    distinctness_check,
    enabled,
    enumerate_executions,
    explore,
    parse_program,
    replay_prefix,
    validate_trace,
)

import families

RUNS = (
    [(f"gencoll-{n}", families.gencoll(n), families.gencoll_count(n)) for n in (3, 4, 5)]
    + [
        (f"fanin-{k}x{m}", families.fanin(k, m), families.fanin_count(k, m))
        for k, m in ((3, 2), (2, 4))
    ]
    + [(f"selective-{k}", families.selective(k), families.selective_count(k)) for k in (2, 3, 4)]
    + [
        (f"b-then-any-{k}", families.b_then_any(k), families.b_then_any_count(k))
        for k in (2, 3, 4)
    ]
)


def test_counts_are_the_closed_forms():
    assert [count for _, _, count in RUNS] == [6, 24, 120, 90, 70, 4, 36, 576, 4, 48, 1152]


def test_b_then_any_count_is_its_derivation():
    # the sum over m, the number of a's sent before a_j, that the docstring
    # simplifies
    for k in range(1, 12):
        n = k - 1
        terms = (
            factorial(n) // factorial(n - m) * factorial(2 * n - m) // 2 ** (n - m)
            for m in range(k)
        )
        assert k * sum(terms) == families.b_then_any_count(k), k


@pytest.mark.parametrize("k", [2, 3])
def test_b_then_any_count_is_the_oracles(k):
    # the exhaustive oracle, which shares no code with explore, counts the
    # same traces
    expected, limited = enumerate_executions(parse_program(families.b_then_any(k)))
    assert (len(expected), limited) == (families.b_then_any_count(k), 0)


@pytest.mark.parametrize("text, count", [r[1:] for r in RUNS], ids=[r[0] for r in RUNS])
def test_explore_finds_every_trace_of_a_family(text, count):
    program = parse_program(text)
    report = explore(program, seed=1)
    assert len(report.traces) == count
    assert not report.bounded
    assert (report.duplicate_traces, report.divergences) == (0, 0)
    assert distinctness_check(report) is None
    for entry in report.traces.values():
        assert validate_trace(entry.trace) is None
        sys, _ = replay_prefix(program, entry.trace)
        assert enabled(sys) == []
