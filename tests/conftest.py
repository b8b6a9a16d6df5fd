from pathlib import Path

import pytest

from racetrace import parse_interleaving, parse_program, parse_trace

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


# n=4 generators each send {val,N} to a collector that makes 4 unguarded
# receives: every consumption order is a trace, 24 in all
GENCOLL4 = """program { main main
  def main() { C = spawn collector(); spawn gen(C, 1); spawn gen(C, 2); spawn gen(C, 3); spawn gen(C, 4) }
  def gen(C, N) { send {val,N} to C }
  def collector() { receive { {val,X} -> X }; receive { {val,X} -> X }; receive { {val,X} -> X }; receive { {val,X} -> X } } }
"""


# main spawns a sink that does nothing and sends it 2 000 messages: one
# schedule of 2 001 steps, deeper than Python's default recursion limit
LONG_PROGRAM = (
    "program { main main\n  def main() { S = spawn sink(); "
    + "; ".join(f"send {{m,{i}}} to S" for i in range(2000))
    + " }\n  def sink() { } }\n"
)


@pytest.fixture
def gencoll4():
    return parse_program(GENCOLL4)
