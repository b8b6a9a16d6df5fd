import sys
from pathlib import Path

import pytest

from racetrace import parse_interleaving, parse_program, parse_trace

from families import gencoll

# the benchmark's input generators, which import only the standard library
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture
def tau_a():
    return parse_trace(fixture_text("fix_tau_a.trace"))


@pytest.fixture
def run_trace():
    return parse_trace(fixture_text("fix_run.trace"))


@pytest.fixture
def s_a():
    return parse_interleaving(fixture_text("fix_s_a.itl"))


@pytest.fixture
def s_b():
    return parse_interleaving(fixture_text("fix_s_b.itl"))


@pytest.fixture
def s_bad():
    return parse_interleaving(fixture_text("fix_s_bad.itl"))


@pytest.fixture
def proga():
    return parse_program(fixture_text("proga.prog"))


@pytest.fixture
def progb():
    return parse_program(fixture_text("progb.prog"))


@pytest.fixture
def progc():
    return parse_program(fixture_text("progc.prog"))


GENCOLL4 = gencoll(4)  # 24 traces


# main spawns a sink that does nothing and sends it 2 000 messages: one
# schedule of 2 001 steps, deeper than Python's default recursion limit
LONG_PROGRAM = (
    "program { main main\n  def main() { S = spawn sink(); "
    + "; ".join(f"send {{m,{i}}} to S" for i in range(2000))
    + " }\n  def sink() { } }\n"
)


# main spawns g, which the log calls p2, and then sends to the literal <p2>,
# which names no process: the simulator calls the child p1.1
SEND_TO_NO_PROCESS = (
    "program { main f def f() { P = spawn g(); send {val,1} to <p2> } "
    "def g() { receive { X -> ok } } }"
)
SEND_TO_NO_PROCESS_PREFIX = (
    "trace { initial: p1\n p1: spawn(p2), send(l1, {val,1}, p2)\n p2: ε }\n"
)


@pytest.fixture
def gencoll4():
    return parse_program(GENCOLL4)
