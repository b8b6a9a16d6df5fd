"""Golden exploration runs: the rendered report, the set of traces found,
the order in which they were found and every counter, pinned byte for byte.

Regenerate the fixture with ``PYTHONPATH=src python tests/test_explore_golden.py``
(only when a change is meant to alter what ``explore`` reports).
"""

import hashlib
import json

import pytest

from racetrace import explore, parse_program

from conftest import FIXTURES, GENCOLL4, fixture_text

GOLDEN = FIXTURES / "explore_golden.json"

RUNS = (
    [(f"prog{p}", seed, 10000) for p in "abc" for seed in range(4)]
    + [("progc", 0, 1), ("progc", 0, 3), ("gencoll4", 0, 10000)]
)


def _program(name):
    text = GENCOLL4 if name == "gencoll4" else fixture_text(f"{name}.prog")
    return parse_program(text)


def _run_id(name, seed, max_traces):
    return f"{name}-seed{seed}-max{max_traces}"


def _sha256(keys):
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def _record(name, seed, max_traces):
    report = explore(_program(name), seed=seed, max_traces=max_traces)
    return {
        "render": report.render(),
        "keys_sha256": _sha256(sorted(report.traces)),
        "order_sha256": _sha256(report.order),
        "variants_enqueued": report.variants_enqueued,
        "duplicate_traces": report.duplicate_traces,
        "duplicate_variants": report.duplicate_variants,
        "divergences": report.divergences,
        "step_limited": report.step_limited,
    }


@pytest.mark.parametrize("run", RUNS, ids=[_run_id(*r) for r in RUNS])
def test_exploration_matches_golden(run):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _record(*run) == golden[_run_id(*run)]


if __name__ == "__main__":
    records = {_run_id(*r): _record(*r) for r in RUNS}
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
