"""The benchmark's closed-form references, checked against racetrace's oracles.

    python3 -m pytest -q perfbench

The references in workloads.py are derived from the generators alone. Here
they are compared at small sizes with the exhaustive oracles that ship with
racetrace (``enumerate_executions``, ``declarative_race_oracle``), shown to
reject a wrong answer, and each workload is run end to end at toy size
through the same code the benchmark uses.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import racetrace as rt  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import SEQUENCE, read_spans  # noqa: E402

SEEDS = [0, 1]
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [3, 4])
def test_gencoll_keys_equal_exhaustive_enumeration(n, seed):
    program = rt.parse_program(wl.gencoll_program(n, seed))
    traces, limited = rt.enumerate_executions(program)
    assert limited == 0
    assert set(traces) == wl.gencoll_expected_keys(n, seed)


def _assert_races_match_oracle(text: str, expected: list[tuple[str, set[str]]]) -> None:
    t = rt.parse_trace(text)
    assert rt.validate_trace(t) is None
    assert rt.orphans(t) == set()
    sent = [a.tag for _, _, a in t.events() if isinstance(a, rt.Send)]
    assert [subject for subject, _ in expected] == [
        a.tag for _, _, a in t.events() if isinstance(a, rt.Rec)
    ]
    for subject, racers in expected:
        oracle = {other for other in sent if rt.declarative_race_oracle(t, subject, other)}
        assert oracle == racers, subject


@pytest.mark.parametrize("seed", SEEDS)
def test_fanin_races_equal_declarative_oracle(seed):
    _assert_races_match_oracle(wl.fanin_trace(3, 2, seed), wl.fanin_expected_races(3, 2, seed))


def test_fifo_races_equal_declarative_oracle():
    _assert_races_match_oracle(wl.fifo_trace(5, 0), wl.fifo_expected_races(5))


def test_fanin_seed_permutes_rounds():
    assert wl.fanin_order(20, 2, 0) != wl.fanin_order(20, 2, 1)
    assert sorted(wl.fanin_order(20, 2, 0)) == sorted(wl.fanin_order(20, 2, 1))


def test_checks_count_wrong_outputs():
    explore = wl.explore_gencoll(0, n=3)
    mods = bench.fresh_import()
    report, bad = explore.run(mods, explore.parse(mods, explore.text))
    assert explore.check((report, bad)).failed == 0
    del report.traces[report.order[-1]]
    assert explore.check((report, bad)).failed == 1

    fanin = wl.races_fanin(0, k=3, m=2)
    bad, reports, orphan_tags = fanin.run(mods, fanin.parse(mods, fanin.text))
    assert fanin.check((bad, reports, orphan_tags)).failed == 0
    reports[0].racers.pop()
    assert fanin.check((bad, reports, orphan_tags)).failed == 1


TOY = {
    "explore-gencoll": lambda seed: wl.explore_gencoll(seed, n=3),
    "races-fifo": lambda seed: wl.races_fifo(seed, n=8),
    "races-fanin": lambda seed: wl.races_fanin(seed, k=4, m=2),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_end_to_end(name, seed, tmp_path):
    run = bench.Run(TOY[name](seed))
    metrics = bench.end_to_end(run, seconds=0.2)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())

    layers = bench.per_layer(run, seconds=0.2, spans_path=tmp_path / "spans.bin")
    assert set(layers) | {"bench.failed_share"} == {m["name"] for m in SPEC["per_layer"]}
    # The traced layers account for nearly all of the sequence: what is
    # left to the root span is the benchmark's own glue.
    assert layers["bench.self_sum_s"]["value"] == pytest.approx(
        layers["bench.traced_wall_s"]["value"], rel=0.05
    )
    assert run.check.failed == 0 and run.check.attempted > 0

    spans = read_spans(tmp_path / "spans.bin")
    roots = [s for s in spans if s[1] is None and s[0] == SEQUENCE]
    assert roots and all(end >= start for _, _, start, end in spans)
