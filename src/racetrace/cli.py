"""Command-line interface.

Exit codes: 0 success / analysis-positive, 1 analysis-negative (invalid
document, receive tag not in the trace, non-equivalent, divergence, failed
check) or stdout closed by its reader, 2 usage, parse and program errors
(static, or raised while the program runs) and files that cannot be read or
written. Diagnostics go to stderr, one line each, results to stdout. With
``--json`` each result is emitted as one JSON record per line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .causality import hb_graph
from .explorer import distinctness_check, explore
from .oracles import enumerate_executions, swap_equiv_oracle
from .parsing import ParseError, sorted_names
from .races import explain, orphans, racers_at, receive_of, variant
from .simulator import (
    MAX_STEPS,
    DivergenceError,
    ProgramError,
    SimulationError,
    parse_program,
    replay_prefix,
    run_deterministic,
    run_random,
)
from .traces import (
    Interleaving,
    TraceIndex,
    parse_interleaving,
    parse_trace,
    serialize_trace,
    tr,
    valid_index,
    validate_interleaving,
    validate_trace,
)

OK, FAIL, USAGE = 0, 1, 2


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load(path: str, parse):
    """parse(text of path); a parse or program error names the path."""
    try:
        return parse(_read(path))
    except (ParseError, ProgramError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_document(path: str):
    """Pick trace vs interleaving by extension (.trace / .itl)."""
    if path.endswith(".itl"):
        return _load(path, parse_interleaving)
    if path.endswith(".trace"):
        return _load(path, parse_trace)
    raise CliError(f"{path}: expected a .trace or .itl file")


def _emit(args, record: dict, text: str) -> None:
    print(json.dumps(record, sort_keys=True) if args.json else text)


def _require_valid_trace(path: str) -> TraceIndex:
    t = _load(path, parse_trace)
    try:
        return valid_index(t)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", FAIL) from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _load_document(args.file)
    bad = (
        validate_interleaving(doc)
        if isinstance(doc, Interleaving)
        else validate_trace(doc)
    )
    if bad is None:
        _emit(args, {"result": "ok"}, "ok")
        return OK
    _emit(
        args,
        {"result": "violation", "condition": bad.condition, "where": bad.where,
         "detail": bad.detail},
        str(bad),
    )
    return FAIL


def cmd_hb(args) -> int:
    graph = hb_graph(_require_valid_trace(args.file))
    for src, dst, kind in graph.edges():
        text = f"{src.pid}[{src.index}] -> {dst.pid}[{dst.index}] ({kind})"
        _emit(args, {"from": list(src), "to": list(dst), "kind": kind}, text)
    if args.pairs:
        for src, dst in graph.pairs():
            text = f"{src.pid}[{src.index}] ~> {dst.pid}[{dst.index}]"
            _emit(args, {"pair": [list(src), list(dst)]}, text)
    return OK


def cmd_equiv(args) -> int:
    s1 = _load(args.a, parse_interleaving)
    s2 = _load(args.b, parse_interleaving)
    projected = []
    for path, s in ((args.a, s1), (args.b, s2)):
        try:
            projected.append(tr(s))
        except ValueError as exc:
            raise CliError(f"{path}: {exc}", FAIL) from exc
    equivalent = projected[0] == projected[1]
    if args.oracle:
        by_swaps = swap_equiv_oracle(s1, s2)
        if by_swaps != equivalent:
            raise CliError(
                f"oracle disagrees: trace-equality says {equivalent}, "
                f"swap search says {by_swaps}",
                FAIL,
            )
    _emit(
        args,
        {"equivalent": equivalent},
        "equivalent" if equivalent else "not equivalent",
    )
    return OK if equivalent else FAIL


def _racer_brace_list(tags) -> str:
    return "{" + ", ".join(tags) + "}"


def cmd_races(args) -> int:
    index = _require_valid_trace(args.file)
    tag = args.message
    try:
        receives = index.receives if tag is None else [receive_of(index, tag)]
    except ValueError as exc:
        raise CliError(str(exc), FAIL) from exc
    for r in receives:
        pid, idx, rec = index.events[r]
        found = racers_at(index, r)
        racers = [racer for racer in index.table_header(pid).tags if racer in found]
        if tag is not None and not args.explain:
            _emit(args, {"receive": rec.tag, "racers": racers}, _racer_brace_list(racers))
        else:
            text = f"{pid}[{idx}] rec({rec.tag}): races = {_racer_brace_list(racers)}"
            _emit(args, {"receive": rec.tag, "at": [pid, idx], "racers": racers}, text)
        for c in explain(index, r, found) if args.explain else ():
            text = (
                f"  {c.tag} (from {c.sender}): match={'yes' if c.matches else 'no'}"
                f", received-earlier={'yes' if c.already_received else 'no'}"
                f", hb-excluded={'yes' if c.hb_excluded else 'no'}"
                f", blocked-by={c.blocked_by or '-'}"
                f" => {c.reason()}"
            )
            _emit(
                args,
                {"candidate": c.tag, "sender": c.sender, "matches": c.matches,
                 "already_received": c.already_received,
                 "hb_excluded": c.hb_excluded, "blocked_by": c.blocked_by,
                 "infeasible": c.infeasible, "in_race_set": c.in_race_set},
                text,
            )
    return OK


def cmd_variant(args) -> int:
    t = _require_valid_trace(args.file)
    try:
        v = variant(t, args.receive, args.with_tag)
    except ValueError as exc:
        raise CliError(str(exc), FAIL) from exc
    text = serialize_trace(v)
    if args.output:
        _write(args.output, text)
        _emit(args, {"written": args.output}, f"wrote {args.output}")
    else:
        _emit(args, {"trace": text}, text.rstrip("\n"))
    return OK


def cmd_orphans(args) -> int:
    t = _require_valid_trace(args.file)
    tags = sorted_names(orphans(t))
    _emit(args, {"orphans": tags}, _racer_brace_list(tags))
    return OK


def cmd_simulate(args) -> int:
    program = _load(args.prog, parse_program)
    t, outcome = run_random(program, args.seed, args.max_steps)
    text = serialize_trace(t)
    if args.emit_trace:
        _write(args.emit_trace, text)
    _emit(args, {"outcome": str(outcome), "trace": text}, f"outcome: {outcome}")
    if not args.json and not args.emit_trace:
        sys.stdout.write(text)
    return OK


def cmd_replay(args) -> int:
    program = _load(args.prog, parse_program)
    prefix = _require_valid_trace(args.prefix)
    try:
        state, _ = replay_prefix(program, prefix)
    except DivergenceError as exc:
        _emit(args, {"result": "divergence", "detail": str(exc)}, str(exc))
        return FAIL
    if args.cont:
        t, outcome = run_deterministic(state, args.max_steps)
        record, line = {"outcome": str(outcome)}, f"outcome: {outcome}"
    else:
        t, record, line = state.trace(), {"result": "replayed"}, "replayed prefix"
    text = serialize_trace(t)
    _emit(args, {**record, "trace": text}, line)
    if not args.json:
        sys.stdout.write(text)
    return OK


def cmd_explore(args) -> int:
    program = _load(args.prog, parse_program)
    report = explore(program, seed=args.seed, max_steps=args.max_steps,
                     max_traces=args.max_traces)
    bad = distinctness_check(report)
    if bad is not None:
        raise CliError(f"distinctness check failed: {bad}", FAIL)
    if args.out:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
        width = report.number_width
        for n, key in enumerate(report.order, start=1):
            _write(os.path.join(args.out, f"trace-{n:0{width}d}.trace"), key)
        _write(os.path.join(args.out, "report.txt"), report.render())
    if args.check_oracle:
        if report.bounded:
            raise CliError(f"cannot check the oracle: explore stopped at --max-traces "
                           f"{args.max_traces} before its fixpoint", FAIL)
        expected, limited = enumerate_executions(program, args.max_steps)
        if limited:
            raise CliError(f"oracle hit the step limit on {limited} branches", FAIL)
        if set(expected) != set(report.traces):
            missing = sorted(set(expected) - set(report.traces))
            extra = sorted(set(report.traces) - set(expected))
            raise CliError(
                f"exploration mismatch: {len(missing)} missing, {len(extra)} extra",
                FAIL,
            )
        _emit(args, {"oracle": "ok", "traces": len(expected)},
              f"oracle agreement: {len(expected)} traces")
    _emit(args, {"traces": len(report.traces), "bounded": report.bounded},
          report.render())
    return OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racetrace",
        description="Message-race analysis and exploration for actor traces",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output, one JSON record per line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a .trace or .itl file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hb", help="print happened-before edges of a trace")
    p.add_argument("file")
    p.add_argument("--pairs", action="store_true",
                   help="also print the full reachability relation")
    p.set_defaults(func=cmd_hb)

    p = sub.add_parser("equiv", help="decide causal equivalence of interleavings")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the swap-search oracle")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("races", help="race sets of a trace's receives")
    p.add_argument("file")
    p.add_argument("--message", metavar="TAG", help="only this received tag")
    p.add_argument("--explain", action="store_true",
                   help="per-candidate condition table")
    p.set_defaults(func=cmd_races)

    p = sub.add_parser("variant", help="compute a race variant")
    p.add_argument("file")
    p.add_argument("--receive", required=True, metavar="TAG")
    p.add_argument("--with", dest="with_tag", required=True, metavar="TAG")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(func=cmd_variant)

    p = sub.add_parser("orphans", help="sent-but-never-received tags")
    p.add_argument("file")
    p.set_defaults(func=cmd_orphans)

    p = sub.add_parser("simulate", help="run a program with a random scheduler")
    p.add_argument("prog")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_at_least(0), default=MAX_STEPS)
    p.add_argument("--emit-trace", metavar="FILE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="drive a program along a trace prefix")
    p.add_argument("prog")
    p.add_argument("--prefix", required=True, metavar="FILE")
    p.add_argument("--continue", dest="cont", action="store_true",
                   help="continue deterministically after the prefix")
    p.add_argument("--max-steps", type=_at_least(0), default=MAX_STEPS, metavar="N",
                   help="stop at N actions from the initial state, the prefix's included")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("explore", help="race-variant-driven state-space exploration")
    p.add_argument("prog")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_at_least(0), default=MAX_STEPS)
    p.add_argument("--max-traces", type=_at_least(1), default=10000)
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--check-oracle", action="store_true",
                   help="compare against exhaustive enumeration (small programs)")
    p.set_defaults(func=cmd_explore)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone (e.g. `| head`): as the Python docs
        # on SIGPIPE advise, point stdout at devnull so that the flush at
        # exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return FAIL
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (ParseError, ProgramError, SimulationError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
