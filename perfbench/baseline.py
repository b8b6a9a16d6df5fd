"""Run the benchmark repeatedly and summarise it, as a baseline to compare against.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json, makes RUNS untraced runs of its
run_seconds with seeds 0, 1, ... and one traced run with seed 0, one process
at a time. Prints, per end-to-end metric, the median, the quartiles and the
spread (q3 - q1) / median, and writes all of it with the traced per-layer
table to `--out`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} wrong outputs")
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        results = [run_once(workload, seed, seconds, 0) for seed in range(RUNS)]
        entry = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in bounds
        }
        print(workload)
        for name, s in entry.items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  WIDE"
            print(f"  {name:12} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {s['spread']:.3f} (bound {bounds[name]}){flag}")
        traced = run_once(workload, 0, seconds, 1)["metrics"]
        entry["per_layer"] = {name: m["value"] for name, m in traced.items()}
        print(f"  tracing overhead {entry['per_layer']['bench.tracing_overhead_s']:.3f} s")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
