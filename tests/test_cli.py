import io
import json
import os
import subprocess
import sys

import pytest

from racetrace import ExplorationReport, ExploredTrace, Outcome, Send, Trace, parse_trace
from racetrace import serialize_trace, validate_trace
from racetrace import cli
from racetrace.cli import main
from racetrace.terms import Int

from conftest import (
    FIXTURES,
    LONG_PROGRAM,
    SEND_TO_NO_PROCESS,
    SEND_TO_NO_PROCESS_PREFIX,
    fixture_text,
)


def fx(name):
    return str(FIXTURES / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(capsys):
    # every fixture document but fix_s_bad.itl (test_validate_violation)
    paths = sorted([*FIXTURES.glob("*.trace"), *FIXTURES.glob("*.itl")])
    paths.remove(FIXTURES / "fix_s_bad.itl")
    assert len(paths) == 5
    for path in paths:
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0 and out.strip() == "ok"


def test_validate_violation(capsys):
    code, out, _ = run_cli(capsys, "validate", fx("fix_s_bad.itl"))
    assert code == 1
    assert "condition 3" in out


def test_validate_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "validate", fx("fix_s_bad.itl"))
    assert code == 1
    (record,) = json_lines(out)
    assert record["result"] == "violation" and record["condition"] == "3"


def test_validate_unknown_extension(capsys):
    code, _, err = run_cli(capsys, "validate", fx("proga.prog"))
    assert code == 2
    assert ".trace or .itl" in err


def test_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.trace")
    assert code == 2 and "cannot read" in err


def test_undecodable_file_names_its_path(tmp_path, capsys):
    bad = tmp_path / "latin1.trace"
    bad.write_bytes(b"\xfftrace { initial: p1 }\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_parse_error_is_usage(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("trace { initial: p1\n  p1: send( }\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2 and err


@pytest.mark.parametrize(
    "text, message",
    [
        ("trace { initial: p1\n  p1: ε }\nconstraints { c: X -> .; c: Y -> . }\n",
         "3:26: duplicate constraint id 'c'"),
        ("trace { initial: p1\n  p1: ε }\nextra\n", "3:1: unexpected trailing input 'extra'"),
        ("trace { initial: p1\n  p1: foo(l1) }\n", "2:7: unknown action 'foo'"),
        ("trace { initial: p1\n  p1: send(l1, {val,X}, p1) }\n",
         "2:16: variables are not allowed in a ground term"),
        (f"trace {{ initial: p1\n  p1: send(l1, {{val,{'7' * 5000}}}, p1) }}\n",
         f"2:21: integer literal longer than {sys.get_int_max_str_digits()} digits"),
        ("trace { initial: p1\n  p1: ε }\nconstraints { cs1: X when X -> . }\n",
         "3:29: expected a comparison operator, found '->'"),
    ],
    ids=["duplicate-constraint-id", "trailing-input", "unknown-action", "variable-in-value",
         "long-integer", "guard-without-comparison"],
)
def test_document_parse_errors_name_their_position(tmp_path, capsys, text, message):
    path = tmp_path / "bad.trace"
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "validate", str(path)) == (2, "", f"{path}: {message}\n")


@pytest.mark.parametrize(
    "command, name, text, position",
    [
        ("validate", "sup.trace", "trace { initial: p1\n  p1: send(l1, {val,\u00b2}, p1) }\n",
         "2:21"),
        ("simulate", "sup.prog", "program { main f\n def f() { X = \u00b2 } }\n", "2:16"),
    ],
    ids=["trace", "program"],
)
def test_digit_that_is_not_decimal_is_an_unexpected_character(tmp_path, capsys, command, name,
                                                             text, position):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err == f"{path}: {position}: unexpected character '\u00b2'\n"


# a tag, a pid and a constraint id that each end in the number n, and a race
NAMED_TRACE = """trace {{ initial: p1
  p1: spawn(p1.{n}), spawn(p1.1), send(l{n}, {{val,1}}, p1.{n})
  p1.1: send(l1, {{val,2}}, p1.{n})
  p1.{n}: rec(l{n}, cs{n}), rec(l1, cs{n}) }}
constraints {{ cs{n}: {{val,X}} -> . }}
"""


@pytest.mark.parametrize(
    "command",
    [["validate"], ["hb"], ["races"], ["races", "--explain"], ["orphans"]],
    ids=["validate", "hb", "races", "explain", "orphans"],
)
def test_names_may_end_in_a_number_past_the_int_digit_limit(tmp_path, capsys, command):
    # 5 000 digits is past Python's 4 300-digit limit on int() of a digit
    # string; the results are those for names ending in 7, renamed
    long = "7" * 5000
    short_path, long_path = tmp_path / "short.trace", tmp_path / "long.trace"
    short_path.write_text(NAMED_TRACE.format(n="7"))
    long_path.write_text(NAMED_TRACE.format(n=long))
    code, short_out, _ = run_cli(capsys, *command, str(short_path))
    assert code == 0 and short_out
    assert run_cli(capsys, *command, str(long_path)) == (0, short_out.replace("7", long), "")


# ---------------------------------------------------------------------------
# hb / equiv
# ---------------------------------------------------------------------------


def test_hb_edges(capsys):
    code, out, _ = run_cli(capsys, "hb", fx("fix_run.trace"))
    assert code == 0
    assert "p3[4] -> p1[4] (message l5)" in out
    assert "p1[0] -> p3[0] (spawn)" in out
    assert "p1[0] -> p1[1] (program)" in out
    assert "~>" not in out


def test_hb_pairs(capsys):
    code, out, _ = run_cli(capsys, "hb", "--pairs", fx("fix_tau_a.trace"))
    assert code == 0
    assert "p1[2] ~> p2[0]" in out


def test_equiv(capsys):
    code, out, _ = run_cli(capsys, "equiv", fx("fix_s_a.itl"), fx("fix_s_b.itl"))
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run_cli(
        capsys, "equiv", "--oracle", fx("fix_s_a.itl"), fx("fix_s_b.itl")
    )
    assert code == 0 and out.strip() == "equivalent"


def test_equiv_rejects_invalid_input(capsys):
    code, _, err = run_cli(capsys, "equiv", fx("fix_s_a.itl"), fx("fix_s_bad.itl"))
    assert code == 1
    assert err.startswith(f"{fx('fix_s_bad.itl')}: invalid interleaving: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# invalid and malformed input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    [
        ["races"],
        ["hb"],
        ["variant", "--receive", "l1", "--with", "l2"],
        ["orphans"],
        ["replay", fx("proga.prog"), "--prefix"],
    ],
    ids=["races", "hb", "variant", "orphans", "replay"],
)
def test_invalid_trace_is_a_one_line_diagnostic(tmp_path, capsys, command):
    bad = tmp_path / "bad.trace"
    bad.write_text("trace { initial: p1\n  p1: rec(l1, c) }\nconstraints { c: _ -> . }\n")
    code, out, err = run_cli(capsys, *command, str(bad))
    assert code == 1 and out == ""
    assert err == f"{bad}: invalid trace: condition b violated at p1[0]: no send of tag l1\n"


def test_too_deeply_nested_term_is_a_one_line_diagnostic(tmp_path, capsys):
    deep = tmp_path / "deep.trace"
    value = "{" * 3000 + "a" + "}" * 3000
    deep.write_text(f"trace {{ initial: p1\n  p1: send(l1, {value}, p1) }}\n")
    code, _, err = run_cli(capsys, "validate", str(deep))
    assert code == 2
    assert err == f"{deep}: 2:116: term nests deeper than 100 tuples and lists\n"


def test_too_deeply_nested_guard_is_a_one_line_diagnostic(tmp_path, capsys):
    deep = tmp_path / "deep.trace"
    guard = "(" * 3000 + "M > 0" + ")" * 3000
    deep.write_text(
        "trace { initial: p1\n  p1: send(l1, 1, p1), rec(l1, cs1) }\n"
        f"constraints {{ cs1: M when {guard} -> . }}\n"
    )
    code, _, err = run_cli(capsys, "validate", str(deep))
    assert code == 2
    assert err == f"{deep}: 3:127: guard nests deeper than 100 parentheses\n"


@pytest.mark.parametrize("ops", [("and",), ("or",), ("and", "or")], ids=["and", "or", "and-or"])
def test_long_guard_chain_validates(tmp_path, capsys, ops):
    guard = " ".join(f"{ops[i % len(ops)]} M > 0" for i in range(1, 3000))
    text = (
        "trace { initial: p1\n  p1: send(l1, 1, p1), rec(l1, cs1) }\n"
        f"constraints {{ cs1: M when M > 0 {guard} -> . }}\n"
    )
    path = tmp_path / "chain.trace"
    path.write_text(text)
    assert run_cli(capsys, "validate", str(path)) == (0, "ok\n", "")
    assert serialize_trace(parse_trace(text)) == text


@pytest.mark.parametrize("ops", [("and",), ("and", "or")], ids=["and", "and-or"])
def test_long_guard_chain_equiv(tmp_path, capsys, ops):
    # `equiv` compares the two parsed traces, so two separately parsed
    # 3 000-term guards are compared with `==`
    guard = " ".join(f"{ops[i % len(ops)]} M > 0" for i in range(1, 3000))
    text = (
        "interleaving { initial: p1\n  p1: send(l1, 1, p1)\n  p1: rec(l1, cs1) }\n"
        f"constraints {{ cs1: M when M > 0 {guard} -> . }}\n"
    )
    a, b = tmp_path / "a.itl", tmp_path / "b.itl"
    a.write_text(text)
    b.write_text(text)
    assert run_cli(capsys, "equiv", str(a), str(b)) == (0, "equivalent\n", "")


# ---------------------------------------------------------------------------
# races / variant / orphans
# ---------------------------------------------------------------------------


def test_races_single_message(capsys):
    code, out, _ = run_cli(capsys, "races", fx("fix_run.trace"), "--message", "l2")
    assert code == 0
    assert out.strip() == "{l6, l8}"


def test_races_all(capsys):
    code, out, _ = run_cli(capsys, "races", fx("fix_run.trace"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # one per receive
    assert "p3[2] rec(l2): races = {l6, l8}" in lines
    assert "p1[4] rec(l5): races = {}" in lines


def test_races_explain(capsys):
    code, out, _ = run_cli(
        capsys, "races", fx("fix_run.trace"), "--message", "l2", "--explain"
    )
    assert code == 0
    assert "l1 (from p5)" in out and "received earlier" in out
    assert "l4 (from p5)" in out and "match=no" in out
    assert "=> races" in out


def test_races_explain_json(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "races", fx("fix_run.trace"), "--message", "l2", "--explain"
    )
    assert code == 0
    records = json_lines(out)
    assert records[0]["racers"] == ["l6", "l8"]
    by_tag = {r["candidate"]: r for r in records[1:]}
    assert by_tag["l6"]["in_race_set"] and not by_tag["l6"]["infeasible"]
    assert by_tag["l1"]["already_received"]


@pytest.mark.parametrize(
    "command",
    [["races", "--message", "nosuch"], ["variant", "--receive", "nosuch", "--with", "l6"]],
    ids=["races", "variant"],
)
def test_unknown_receive_tag_is_a_one_line_diagnostic(capsys, command):
    code, out, err = run_cli(capsys, command[0], fx("fix_run.trace"), *command[1:])
    assert code == 1 and out == ""
    assert err == "no receive event for tag nosuch\n"


def test_variant_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "variant", fx("fix_run.trace"), "--receive", "l2", "--with", "l6"
    )
    assert code == 0
    assert out == fixture_text("variant_run_l2_l6.trace")


def test_variant_json_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "variant", fx("fix_run.trace"), "--receive", "l2", "--with", "l6"
    )
    assert code == 0
    assert json_lines(out) == [{"trace": fixture_text("variant_run_l2_l6.trace")}]
    assert len(out.splitlines()) == 1


def test_variant_to_file(tmp_path, capsys):
    target = tmp_path / "v.trace"
    code, out, _ = run_cli(
        capsys, "variant", fx("fix_run.trace"),
        "--receive", "l2", "--with", "l6", "-o", str(target),
    )
    assert code == 0 and f"wrote {target}" in out
    v = parse_trace(target.read_text())
    assert validate_trace(v) is None


def test_variant_refuses_non_racer(capsys):
    code, _, err = run_cli(
        capsys, "variant", fx("fix_run.trace"), "--receive", "l2", "--with", "l1"
    )
    assert code == 1
    assert "not in the race set" in err and "received earlier" in err


@pytest.mark.parametrize(
    "tag, reason",
    [
        ("l2", "it is the message this receive consumed"),
        ("l3", "no send of l3 is addressed to p3"),
        ("nosuch", "no send of nosuch is addressed to p3"),
    ],
    ids=["own-message", "sent-elsewhere", "never-sent"],
)
def test_variant_refusal_without_a_table_row_names_its_reason(capsys, tag, reason):
    # the receive's own message and a message not sent to its process have
    # no candidate row to word the refusal from
    code, out, err = run_cli(
        capsys, "variant", fx("fix_run.trace"), "--receive", "l2", "--with", tag
    )
    assert code == 1 and out == ""
    assert err == f"{tag} is not in the race set of l2 ({reason})\n"


def test_orphans(capsys):
    code, out, _ = run_cli(capsys, "orphans", fx("fix_run.trace"))
    assert code == 0 and out.strip() == "{l7, l8}"
    code, out, _ = run_cli(capsys, "--json", "orphans", fx("fix_tau_a.trace"))
    (record,) = json_lines(out)
    assert record["orphans"] == ["l2", "l3"]


# ---------------------------------------------------------------------------
# simulate / replay / explore
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    [
        ["variant", fx("fix_run.trace"), "--receive", "l2", "--with", "l6", "-o"],
        ["simulate", fx("proga.prog"), "--emit-trace"],
        ["explore", fx("progc.prog"), "--out"],
    ],
    ids=["variant", "simulate", "explore"],
)
def test_unwritable_output_is_a_one_line_diagnostic(tmp_path, capsys, command):
    # variant and simulate write into a missing directory; explore's --out
    # names an existing file, not a directory
    target = tmp_path / "missing" / "x.trace"
    if command[0] == "explore":
        target = tmp_path / "file"
        target.write_text("")
    code, out, err = run_cli(capsys, *command, str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1


def test_simulate_emit_trace(tmp_path, capsys):
    target = tmp_path / "run.trace"
    code, out, _ = run_cli(
        capsys, "simulate", fx("proga.prog"), "--seed", "3",
        "--emit-trace", str(target),
    )
    assert code == 0 and "outcome: completed" in out
    t = parse_trace(target.read_text())
    assert validate_trace(t) is None


def test_simulate_stdout_contains_trace(capsys):
    paths = sorted(FIXTURES.glob("*.prog"))
    assert len(paths) == 4
    for path in paths:
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 0 and err == ""
        assert "trace { initial: p1" in out


def test_replay_continue(tmp_path, capsys):
    target = tmp_path / "prefix.trace"
    run_cli(capsys, "simulate", fx("proga.prog"), "--seed", "1",
            "--max-steps", "4", "--emit-trace", str(target))
    code, out, _ = run_cli(
        capsys, "replay", fx("proga.prog"), "--prefix", str(target), "--continue"
    )
    assert code == 0 and "outcome: completed" in out


def test_replay_prints_a_prefix_longer_than_max_steps_whole(capsys):
    # --max-steps counts the prefix's actions, but the prefix is replayed
    # whole: its six actions, though N is 1
    code, out, err = run_cli(capsys, "replay", fx("proga.prog"), "--prefix",
                             fx("fix_tau_a.trace"), "--continue", "--max-steps", "1")
    assert (code, err) == (0, "")
    first, *rest = out.splitlines(keepends=True)
    assert first == "outcome: completed\n"
    assert sum(map(len, parse_trace("".join(rest)).procs.values())) == 6


def test_replay_divergence(tmp_path, capsys):
    # progb cannot reproduce proga's trace
    target = tmp_path / "prefix.trace"
    run_cli(capsys, "simulate", fx("proga.prog"), "--seed", "0",
            "--emit-trace", str(target))
    code, out, _ = run_cli(capsys, "replay", fx("progb.prog"), "--prefix", str(target))
    assert code == 1 and "divergence" in out


def test_replay_of_a_send_to_no_process_is_a_one_line_diagnostic(tmp_path, capsys):
    prog, prefix = tmp_path / "p.prog", tmp_path / "prefix.trace"
    prog.write_text(SEND_TO_NO_PROCESS)
    prefix.write_text(SEND_TO_NO_PROCESS_PREFIX)
    code, out, err = run_cli(capsys, "replay", str(prog), "--prefix", str(prefix))
    assert (code, out, err) == (2, "", "p1: send target p2 is not a process\n")


def test_explore_with_oracle_and_out(tmp_path, capsys):
    out_dir = tmp_path / "traces"
    code, out, _ = run_cli(
        capsys, "explore", fx("progc.prog"), "--check-oracle", "--out", str(out_dir)
    )
    assert code == 0
    assert "oracle agreement: 5 traces" in out
    assert "traces explored: 5" in out
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [
        "report.txt",
        "trace-0001.trace",
        "trace-0002.trace",
        "trace-0003.trace",
        "trace-0004.trace",
        "trace-0005.trace",
    ]
    for name in files[1:]:
        t = parse_trace((out_dir / name).read_text())
        assert validate_trace(t) is None


def test_explore_out_names_sort_as_text_in_report_order(tmp_path, capsys, monkeypatch):
    # names padded to 4 digits put trace-10000 between trace-1000 and
    # trace-1001; an explore that returns 10 000 one-event traces shows it.
    # report.txt labels each trace with its file's number (it said
    # "trace 0001" beside trace-00001.trace)
    report = ExplorationReport()
    for n in range(1, 10001):
        t = Trace("p1", {"p1": (Send(f"l{n}", Int(n), "p1"),)})
        report.traces[t.key()] = ExploredTrace(t, Outcome("completed"), (f"l{n}",), 0, None)
    monkeypatch.setattr(cli, "explore", lambda *args, **kwargs: report)
    out_dir = tmp_path / "traces"
    code, _, _ = run_cli(capsys, "explore", fx("progc.prog"), "--out", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.glob("trace-*.trace"))
    assert [int(name[6:-6]) for name in names] == list(range(1, 10001))
    assert (names[0], names[-1]) == ("trace-00001.trace", "trace-10000.trace")
    assert [(out_dir / name).read_text() for name in names] == report.order
    lines = (out_dir / "report.txt").read_text().splitlines()
    labels = [line.split(":")[0][len("trace "):] for line in lines if line.startswith("trace ")]
    assert labels == [name[6:-6] for name in names]


def test_explore_oracle_on_a_long_program(tmp_path, capsys):
    prog = tmp_path / "long.prog"
    prog.write_text(LONG_PROGRAM)
    code, out, err = run_cli(capsys, "explore", str(prog), "--check-oracle")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "oracle agreement: 1 traces"


def test_explore_check_oracle_refuses_a_bounded_run(capsys, monkeypatch):
    # the oracle would report every trace past the bound as missing, so it
    # is not run at all
    monkeypatch.setattr(cli, "enumerate_executions", None)
    code, out, err = run_cli(
        capsys, "explore", fx("progc.prog"), "--max-traces", "1", "--check-oracle"
    )
    assert code == 1 and out == ""
    assert err == (
        "cannot check the oracle: explore stopped at --max-traces 1 before its fixpoint\n"
    )


def test_explore_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "explore", fx("proga.prog"))
    assert code == 0
    assert json_lines(out)[-1] == {"traces": 2, "bounded": False}


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", fx("progc.prog"), "--max-traces", "0"],
        ["explore", fx("progc.prog"), "--max-steps", "-1"],
        ["simulate", fx("progc.prog"), "--max-steps", "-1"],
        ["replay", fx("progc.prog"), "--prefix", fx("fix_run.trace"), "--max-steps", "-1"],
    ],
    ids=["explore-max-traces", "explore-max-steps", "simulate", "replay"],
)
def test_out_of_range_bounds_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    flag, value = argv[-2:]
    low = 1 if flag == "--max-traces" else 0
    assert err.splitlines()[-1] == (
        f"racetrace {argv[0]}: error: argument {flag}: must be at least {low}, got {value}"
    )


def test_usage_errors():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["races"]) == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "racetrace.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "racetrace" in proc.stdout


def _run_program(tmp_path, command, text):
    prog = tmp_path / "bad.prog"
    prog.write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "racetrace.cli", command, str(prog)],
        capture_output=True, text=True,
    )


@pytest.mark.parametrize("command", ["simulate", "explore"])
def test_simulation_error_is_a_one_line_diagnostic(tmp_path, command):
    proc = _run_program(
        tmp_path, command, "program { main f\n def f() { X = foo; send {val,1} to X } }\n"
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "p1: send target evaluates to foo, not a pid\n"


@pytest.mark.parametrize("command", ["simulate", "explore"])
def test_send_to_a_missing_process_is_a_one_line_diagnostic(tmp_path, command):
    proc = _run_program(tmp_path, command, "program { main f def f() { send ok to <p9> } }\n")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "p1: send target p9 is not a process\n"


@pytest.mark.parametrize(
    "receive, message",
    [
        ("{X,X} -> ok", "2:12: constraint cs1: non-linear pattern (repeated variable)"),
        ("X when Y > 0 -> ok", "2:12: constraint cs1: guard uses unbound variable(s) Y"),
    ],
    ids=["non-linear", "unbound-guard-variable"],
)
def test_invalid_receive_clause_is_a_one_line_diagnostic(tmp_path, receive, message):
    proc = _run_program(
        tmp_path, "simulate", f"program {{ main f\n def f() {{ receive {{ {receive} }} }} }}\n"
    )
    assert proc.returncode == 2
    assert proc.stderr == f"{tmp_path / 'bad.prog'}: {message}\n"


# three senders' messages wait at p1.4's first receive; l01 and l1 tie
# under name_sort_key, so only the tie-break by text orders them
TIED_TAGS = """trace { initial: p1
  p1: spawn(p1.1), spawn(p1.2), spawn(p1.3), spawn(p1.4)
  p1.1: send(l01, {val,1}, p1.4)
  p1.2: send(l1, {val,2}, p1.4)
  p1.3: send(l2, {val,3}, p1.4)
  p1.4: rec(l2, csa), rec(l1, csa), rec(l01, csa) }
constraints { csa: {val,M} -> . }
"""


def test_races_output_does_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "tied.trace"
    path.write_text(TIED_TAGS)
    outputs = {
        subprocess.run(
            [sys.executable, "-m", "racetrace.cli", "races", str(path)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(6)
    }
    assert outputs == {
        "p1.4[0] rec(l2): races = {l01, l1}\n"
        "p1.4[1] rec(l1): races = {l01}\n"
        "p1.4[2] rec(l01): races = {}\n"
    }


# pids p01 and p1 tie under name_sort_key, and so do tags l01 and l1; l1's
# sender comes first in event order, and both messages race at rec(l2)
TIED_PIDS_AND_TAGS = """trace { initial: p1
  p1: spawn(p01), spawn(p2), rec(l2, csa), rec(l1, csa), rec(l01, csa)
  p01: spawn(p3), send(l1, {val,1}, p1)
  p2: send(l2, {val,2}, p1)
  p3: send(l01, {val,3}, p1) }
constraints { csa: {val,M} -> . }
"""


@pytest.mark.parametrize("pairs", [False, True], ids=["edges", "pairs"])
def test_hb_lists_tied_pids_in_canonical_order(tmp_path, capsys, pairs):
    # hb sorted by name_sort_key alone, and printed p01[1] -> p1[3] between
    # p1's edges
    path = tmp_path / "tied.trace"
    path.write_text(TIED_PIDS_AND_TAGS)
    code, out, _ = run_cli(capsys, "hb", *(["--pairs"] if pairs else []), str(path))
    assert code == 0
    arrow = " ~> " if pairs else " -> "
    sources = [line.split(arrow)[0] for line in out.splitlines() if arrow in line]
    pids = [src.split("[")[0] for src in sources]
    assert [pid for k, pid in enumerate(pids) if pid != pids[k - 1] or k == 0] == [
        "p01", "p1", "p2", "p3"
    ]
    assert ("p01[1] ~> p1[3]" if pairs else "p01[1] -> p1[3] (message l1)") in out


def test_races_explain_lists_tied_tags_in_racer_order(tmp_path, capsys):
    # the table sorted by name_sort_key alone and kept l1's row, whose sender
    # comes first, before l01's
    path = tmp_path / "tied.trace"
    path.write_text(TIED_PIDS_AND_TAGS)
    code, out, _ = run_cli(capsys, "races", "--explain", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p1[2] rec(l2): races = {l01, l1}"
    assert [line.split()[0] for line in lines[1:3]] == ["l01", "l1"]
    assert all(line.endswith("=> races") for line in lines[1:3])


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_ends_quietly(tmp_path, monkeypatch, capsys):
    with open(tmp_path / "stdout", "w") as real:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(real.fileno()))
        code = main(["explore", fx("progc.prog")])
        err = capsys.readouterr().err
    assert code == 1
    assert err == ""
