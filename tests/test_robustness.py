"""No user input ends in a raw traceback.

The properties mutate the fixture texts and generated programs -- token
insertion, deletion, a duplicated span, truncation -- and run ``cli.main``
in-process on every command that reads such a file. Whatever the input,
the command ends in an exit code (0, 1 or 2) and no exception leaves
``main``. A failing command writes exactly one line to stderr, except a
negative result (a violation from ``validate``, ``not equivalent`` from
``equiv``, a divergence from ``replay``), which is printed on stdout with
exit 1 and an empty stderr.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrace.cli import main

from conftest import FIXTURES, fixture_text
from strategies import programs

SOURCES = ["fix_run.trace", "fix_tau_a.trace", "fix_s_a.itl", "fix_s_bad.itl",
           "proga.prog", "progb.prog", "progc.prog", "progd.prog"]


def tokens(text):
    """Words, whitespace runs and single other characters: the text
    tiled into pieces a mutation moves whole."""
    return re.findall(r"\w+|\s+|.", text, re.S)


# what an insertion draws: one of the fixtures' own tokens, or a long digit
# run, a numeral that is not decimal, a line end or separator, or nesting
# past the parsers' depth limit
ALPHABET = st.one_of(
    st.sampled_from(sorted({tok for name in SOURCES for tok in tokens(fixture_text(name))})),
    st.sampled_from([
        "9" * 5000, "p1." + "7" * 5000, "²", "\r\n", "\u2028", "ε",
        "{" * 2000, "(" * 2000, "[" * 2000, "{val," * 2000, "}" * 2000,
    ]),
)

MUTATIONS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 10**4), ALPHABET),
    st.tuples(st.just("delete"), st.integers(0, 10**4)),
    st.tuples(st.just("duplicate"), st.integers(0, 10**4), st.integers(1, 12)),
    st.tuples(st.just("truncate"), st.integers(0, 10**4)),
)


def mutate(text, mutations):
    for op, at, *arg in mutations:
        if op == "truncate":
            text = text[: at % (len(text) + 1)]
            continue
        toks = tokens(text)
        at %= len(toks) + 1
        if op == "insert":
            toks.insert(at, arg[0])
        elif op == "delete":
            del toks[at : at + 1]
        else:
            toks[at:at] = toks[at : at + arg[0]]
        text = "".join(toks)
    return text


def commands(path):
    """Every command that reads a file like the one at path."""
    f = str(path)
    if f.endswith(".trace"):
        return [
            ["validate", f], ["hb", f], ["hb", "--pairs", f], ["races", f],
            ["races", "--explain", f], ["variant", f, "--receive", "l2", "--with", "l6"],
            ["orphans", f], ["replay", str(FIXTURES / "proga.prog"), "--prefix", f],
        ]
    if f.endswith(".itl"):
        return [["validate", f], ["equiv", f, str(FIXTURES / "fix_s_a.itl")]]
    # a mutated program may never stop
    return [
        ["simulate", "--max-steps", "200", f],
        ["replay", f, "--prefix", str(FIXTURES / "fix_tau_a.trace")],
        ["explore", "--max-traces", "3", "--max-steps", "40", f],
    ]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_ends_in_an_exit_code(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    elif code == 1 and not err and argv[0] in ("validate", "equiv", "replay"):
        assert out.count("\n") == 1, (argv, out)  # a negative result
    else:
        assert err.endswith("\n") and err.count("\n") == 1 and "\r" not in err, (argv, err)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


def run_mutated(workdir, suffix, text, mutations):
    path = workdir / f"mutated{suffix}"
    path.write_text(mutate(text, mutations), encoding="utf-8")
    for argv in commands(path):
        assert_ends_in_an_exit_code(argv)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SOURCES), st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_fixtures_end_in_an_exit_code(workdir, source, mutations):
    run_mutated(workdir, source[source.index("."):], fixture_text(source), mutations)


@settings(max_examples=20, deadline=None)
@given(programs(), st.lists(MUTATIONS, max_size=2))
def test_mutated_programs_end_in_an_exit_code(workdir, text, mutations):
    run_mutated(workdir, ".prog", text, mutations)
