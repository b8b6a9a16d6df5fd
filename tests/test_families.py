"""Completeness by counting: on program families whose number of complete
traces is known in closed form (``families``), explore must find exactly
that many, pairwise distinct, each a valid trace and a complete run of the
program. Together these prove it found every trace, with no oracle run.
"""

import pytest

from racetrace import (
    distinctness_check,
    enabled,
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
)


def test_counts_are_the_closed_forms():
    assert [count for _, _, count in RUNS] == [6, 24, 120, 90, 70, 4, 36, 576]


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
