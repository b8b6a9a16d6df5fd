"""racetrace benchmark: one generated workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload explore-gencoll --seed 1 --seconds 30 --trace 0

Run from the root of a racetrace checkout; the package is imported from
that checkout's ``src`` directory. With ``--trace 0`` the run measures the
end-to-end metrics; with ``--trace 1`` it measures untraced for half the
time, then traced for the other half, and reports per-layer calls and self
time. Every repetition's output is checked against the workload's
reference. Human-readable lines go first; the last line of standard output
is the JSON result.

Times reported as end-to-end metrics are speed-adjusted: on a shared
machine the speed of one core drifts by a quarter within seconds, so
between repetitions the run times a fixed pure-Python reference loop that
uses no racetrace code, and scales each repetition by REF_NOMINAL_S over
the mean of the reference times just before and just after it. A change to
racetrace moves the repetition, never the reference, so the ratio between
two commits is kept while the machine's drift cancels. Raw times are
printed alongside.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PARSE, SEQUENCE, SPAN_NAMES, Tracer, percentile  # noqa: E402
from workloads import WORKLOADS, Check, Workload  # noqa: E402

SRC = HERE.parent / "src"
MODULES = ("parsing", "terms", "traces", "causality", "races", "simulator", "explorer")
SETUP_PER_REP = 3
# About the reference loop's time on an idle core of the machine the
# baseline was recorded on (Intel Xeon, 2 cores, Python 3.11), so that
# adjusted times read as seconds there.
REF_NOMINAL_S = 0.080


def fresh_import() -> SimpleNamespace:
    """Import racetrace anew, as one CLI invocation would.

    Dropping the modules first means no module-level state survives from
    one repetition to the next."""
    for name in [n for n in sys.modules if n == "racetrace" or n.startswith("racetrace.")]:
        del sys.modules[name]
    package = importlib.import_module("racetrace")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"racetrace imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"racetrace.{m}"] for m in MODULES})


def reference_time() -> float:
    """Seconds for a fixed loop of dict, tuple, string and sort work."""
    gc.collect()
    t0 = perf_counter()
    for _ in range(4):
        table = {}
        for i in range(20000):
            table[(i % 97, i)] = str(i)
        sorted(table, key=lambda k: (k[1] % 13, k))
    return perf_counter() - t0


def repeat(seconds: float, rep) -> list[tuple[float, float]]:
    """Call rep() until the next call would overrun `seconds`; at least once.
    rep returns (raw, adjusted) seconds of what it timed."""
    times: list[tuple[float, float]] = []
    start = perf_counter()
    while True:
        times.append(rep())
        if perf_counter() - start + times[-1][0] > seconds:
            return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """Repetitions of one workload, each in a freshly imported racetrace.

    The run starts with one untimed, checked warm-up: import, parse and
    the sequence, as one CLI invocation. It compiles bytecode on a first
    run, and the process's peak resident memory is read right after it,
    before anything else has allocated: the reference loop holds more than
    a small workload does, and every re-import grows the process a little
    (the interpreter's typing caches keep parts of old imports alive).

    Each repetition first sets up SETUP_PER_REP times (import plus parse,
    timed), so set-up samples are spread over the whole run like the
    repetitions themselves. Garbage from the previous repetition is
    collected before anything is timed. A reference time is taken after
    the warm-up and after every repetition; see the module docstring."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.check = Check(0, 0)
        self.setup_raw: list[float] = []
        self.setup_adjusted: list[float] = []
        mods = fresh_import()
        self._record(wl.run(mods, wl.parse(mods, wl.text)))
        self.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.references = [reference_time()]

    def _record(self, result) -> None:
        c = self.wl.check(result)
        self.check.attempted += c.attempted
        self.check.failed += c.failed
        self.last_result = result

    def _rep(self, sequence) -> tuple[float, float]:
        setups = []
        for _ in range(SETUP_PER_REP):
            gc.collect()
            t0 = perf_counter()
            mods = fresh_import()
            parsed = self.wl.parse(mods, self.wl.text)
            setups.append(perf_counter() - t0)
        result, elapsed = sequence(mods, parsed)
        self._record(result)
        self.references.append(reference_time())
        factor = REF_NOMINAL_S / statistics.fmean(self.references[-2:])
        self.setup_raw.extend(setups)
        self.setup_adjusted.extend(s * factor for s in setups)
        return elapsed, elapsed * factor

    def untraced_rep(self) -> tuple[float, float]:
        def sequence(mods, parsed):
            gc.collect()
            t0 = perf_counter()
            result = self.wl.run(mods, parsed)
            return result, perf_counter() - t0

        return self._rep(sequence)

    def traced_rep(self, tracer: Tracer) -> tuple[float, float]:
        def sequence(mods, _):
            tracer.install()
            gc.collect()
            parsed, _ = tracer.span(PARSE, self.wl.parse, mods, self.wl.text)
            return tracer.span(SEQUENCE, self.wl.run, mods, parsed)

        return self._rep(sequence)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, seconds: float) -> dict:
    raw, adjusted = zip(*repeat(seconds, run.untraced_rep))
    wall = statistics.median(adjusted)
    setup = statistics.median(run.setup_adjusted)
    q1, _, q3 = quartiles(adjusted)
    s1, _, s3 = quartiles(run.setup_adjusted)
    peak_mb = run.peak_mb
    print(f"{run.wl.name}: {len(raw)} repetitions, {len(run.setup_adjusted)} set-ups; "
          f"reference loop median {statistics.median(run.references):.4f} s "
          f"(nominal {REF_NOMINAL_S} s)")
    print(f"  wall_s       {wall:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}; "
          f"raw median {statistics.median(raw):.4f})")
    print(f"  units_per_s  {run.wl.units / wall:.2f} 1/s  ({run.wl.units} units per repetition)")
    print(f"  setup_s      {setup:.5f} s  (q1 {s1:.5f}, q3 {s3:.5f}; "
          f"raw median {statistics.median(run.setup_raw):.5f})")
    print(f"  peak_rss_mb  {peak_mb:.1f} MB")
    return {
        "wall_s": metric(wall, "s"),
        "units_per_s": metric(run.wl.units / wall, "1/s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def per_layer(run: Run, seconds: float, spans_path: Path) -> dict:
    untraced_raw, untraced = zip(*repeat(seconds / 2, run.untraced_rep))
    tracer = Tracer()
    raw, adjusted = zip(*repeat(seconds / 2, lambda: run.traced_rep(tracer)))
    reps = len(raw)
    table = tracer.layer_table(reps)
    tracer.write(spans_path)
    traced = statistics.fmean(raw)
    overhead = statistics.median(adjusted) - statistics.median(untraced)
    validate_us = [d * 1e6 for d in tracer.durations("traces.validate_trace")]

    out: dict[str, dict] = {}
    print(f"{run.wl.name}: {reps} traced repetitions; per repetition:")
    print(f"  {'layer':32} {'calls':>10} {'self_s':>10}")
    for name in SPAN_NAMES:
        row = table[name]
        print(f"  {name:32} {row['calls']:10.0f} {row['self_s']:10.4f}")
        out[f"{name}.calls"] = metric(row["calls"], "count")
        out[f"{name}.self_s"] = metric(row["self_s"], "s")
    self_sum = table[SEQUENCE]["self_sum_s"]
    print(f"  traced layers' self times sum to {self_sum:.4f} s of the traced wall "
          f"{traced:.4f} s ({self_sum / traced:.1%})")
    print(f"  tracing overhead {overhead:.4f} s (speed-adjusted traced minus untraced median)")
    out["traces.validate_trace.p50_us"] = metric(percentile(validate_us, 0.50), "us")
    out["traces.validate_trace.p99_us"] = metric(percentile(validate_us, 0.99), "us")

    races = {k: v / reps for k, v in tracer.race_counts.items()}
    gates = races.get("gates", 0.0)
    for key in ("candidates", "gates", "racers"):
        out[f"races.{key}"] = metric(races.get(key, 0.0), "count")
    out["races.gate_yield"] = metric(races.get("racers", 0.0) / gates if gates else 0.0, "ratio")

    counters = run.wl.counters(run.last_result)
    for key in ("traces", "replays", "duplicate_traces", "duplicate_variants", "divergences"):
        out[f"explorer.{key}"] = metric(counters.get(key, 0), "count")
    traces = counters.get("traces", 0)
    out["explorer.replays_per_trace"] = metric(
        counters.get("replays", 0) / traces if traces else 0.0, "ratio"
    )

    out["bench.self_sum_s"] = metric(self_sum, "s")
    out["bench.traced_wall_s"] = metric(traced, "s")
    out["bench.untraced_wall_s"] = metric(statistics.median(untraced_raw), "s")
    out["bench.tracing_overhead_s"] = metric(overhead, "s")
    out["bench.reference_s"] = metric(statistics.median(run.references), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "racetrace" / "__init__.py").is_file():
        print(f"error: no racetrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(WORKLOADS[args.workload](args.seed))
    if args.trace:
        metrics = per_layer(run, args.seconds, HERE / "out" / f"spans-{args.workload}.bin")
    else:
        metrics = end_to_end(run, args.seconds)
    attempted, failed = run.check.attempted, run.check.failed
    share = failed / attempted
    if args.trace:
        metrics["bench.failed_share"] = metric(share, "ratio")
    print(f"  failed_share {share:.4f}  ({failed} of {attempted} checked outputs wrong)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
