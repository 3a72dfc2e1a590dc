"""Run the benchmark repeatedly and print the spread of every metric.

    python3 perfbench/spread.py --seeds 1-10            # every workload, ten seeds
    python3 perfbench/spread.py --seeds 7               # every workload once, seed 7

For each workload in BENCHMARK.json it runs `run.py` once per seed, one run
at a time, for `run_seconds` with tracing off.  It prints each run's
attempted and failed operations, then per metric (with its unit) the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread (q3 - q1) / median, beside the metric's bound.  A run with a wrong output is
flagged and makes the exit code 1.  The raw results go to
perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range such as 1-10, or a list 3,5,8")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']}", flush=True)
            runs.append(run)
        (BENCH_DIR / "out" / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        wrong = sum(1 for r in runs if not r["correct"])
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}, wrong runs {wrong}")
        print(f"  {'metric':42s} {'unit':>8s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:42s} {metric['unit']:>8s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[name]:6.3f}")
        status |= wrong > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
