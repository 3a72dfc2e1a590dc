"""citechain benchmark: one run of one workload.

    python3 perfbench/run.py --workload cli-tables --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the `src/citechain` next to
this directory.  A run makes whole rounds of the workload's operations
until `--seconds` have passed, checks every output against the references in
`references.py`, writes details to `perfbench/out/`, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones in BENCHMARK.json.
With `--trace 1` each round runs in-process twice, untraced and traced
(see tracer.py), and the metrics are the per-layer ones, per round.
Exit code 0 means the run finished, whatever `correct` says; 2 means it
could not run (for example, no `src/citechain` beside the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# every run ends well inside the 180 s a run may take
DEADLINE_S = 170.0
# setup_s is the median of this many fresh interpreters; one import alone
# spread by about 30% between runs
SETUP_IMPORTS = 7

sys.path.insert(0, str(BENCH_DIR))


class BenchError(Exception):
    """The benchmark could not run."""


class Runner:
    """Starts the program's processes, one at a time, through launch.py,
    and reaps each one."""

    def __init__(self, started: float) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = started + DEADLINE_S

    def _run(self, argv: list[str], name: str) -> dict:
        """Run argv with its output in OUT_DIR/<name>.out and .err."""
        out, err = OUT_DIR / f"{name}.out", OUT_DIR / f"{name}.err"
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py"), str(out), str(err), *argv],
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT, start_new_session=True)
        try:
            report, _ = proc.communicate(timeout=max(0.0, self.deadline - time.perf_counter()))
        except BaseException as exc:
            # the launcher leads its own process group, with the program in it
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{argv[1:4]} still running at the {DEADLINE_S:.0f} s deadline") from None
            raise
        if proc.returncode != 0:
            raise BenchError(f"launch.py exited {proc.returncode} for {argv[1:4]}")
        record = json.loads(report)
        record["stderr"] = err.read_text(encoding="utf-8", errors="replace")[-2000:]
        return record

    def setup(self) -> float:
        """Wall time for a fresh interpreter to import citechain.cli: the
        median of SETUP_IMPORTS such interpreters, each started cold."""
        times = []
        for _ in range(SETUP_IMPORTS):
            record = self._run([sys.executable, "-c", "import citechain.cli"], "setup")
            if record["rc"] != 0:
                raise BenchError(f"importing citechain.cli failed: {record['stderr'][-500:]}")
            times.append(record["seconds"])
        return statistics.median(times)

    def cli(self, argv: list[str], index: int) -> tuple[dict, str]:
        record = self._run([sys.executable, "-m", "citechain", *argv], f"op-{index}")
        stdout = _read_output(index) if record["rc"] == 0 else ""
        return record, stdout

    def worker(self, ops: list[dict], trace: bool, keep_outputs: bool) -> dict:
        spec = OUT_DIR / "worker-spec.json"
        result = OUT_DIR / "worker-result.json"
        result.unlink(missing_ok=True)
        spec.write_text(json.dumps({
            "ops": ops, "trace": trace,
            "out_dir": str(OUT_DIR) if keep_outputs else None,
        }), encoding="utf-8")
        record = self._run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(spec), str(result)], "worker")
        if record["rc"] != 0:
            raise BenchError(f"worker exited {record['rc']}: {record['stderr'][-1000:]}")
        out = json.loads(result.read_text(encoding="utf-8"))
        out["maxrss_kb"] = record["maxrss_kb"]
        return out


class Tally:
    """Attempted, failed and wrong operations, and the measurements, kept
    per round so that rates can be taken as medians over rounds."""

    def __init__(self, checker) -> None:
        self.checker = checker
        self.rounds: list[dict] = []
        self.faults: dict[str, int] = {}
        self.wrong: list[str] = []
        self.latencies: list[float] = []  # seconds; a failed operation is inf
        self.maxrss_kb = 0
        self.check_s = 0.0
        self.by_op: dict[str, dict] = {}  # per operation id: count, seconds, ...

    def start_round(self) -> None:
        self.rounds.append({"attempted": 0, "failed": 0, "busy_s": 0.0, "cpu_s": 0.0, "items": 0})

    @property
    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.rounds)

    def add_usage(self, cpu_s: float, maxrss_kb: int) -> None:
        self.rounds[-1]["cpu_s"] += cpu_s
        self.maxrss_kb = max(self.maxrss_kb, maxrss_kb)

    def verify(self, op: dict, record: dict, stdout: str | None) -> None:
        started = time.perf_counter()
        entry = self.by_op.setdefault(op["id"], {"count": 0, "seconds": 0.0, "failed": 0})
        entry["count"] += 1
        entry["seconds"] += record["seconds"]
        try:
            self._verify(op, record, stdout, entry, self.rounds[-1])
        finally:
            self.check_s += time.perf_counter() - started

    def _verify(self, op, record, stdout, entry, rnd) -> None:
        from checks import CheckError, known_fault

        rnd["attempted"] += 1
        rnd["busy_s"] += record["seconds"]
        message = record.get("error")
        if message is None and record.get("rc", 0) != 0:
            message = record.get("stderr") or f"exit {record['rc']}"
        if message is not None:
            rnd["failed"] += 1
            entry["failed"] += 1
            self.latencies.append(float("inf"))
            fault = known_fault(op["check"], message)
            if fault is None:
                self.wrong.append(f"{op['id']}: unexpected failure: {message.strip()[-300:]}")
            else:
                self.faults[fault] = self.faults.get(fault, 0) + 1
            return
        self.latencies.append(record["seconds"])
        try:
            if "argv" in op:
                rnd["items"] += self.checker.cli(op["check"], stdout)
            else:
                rnd["items"] += self.checker.call(op["check"], record["value"])
        except CheckError as exc:
            self.wrong.append(f"{op['id']}: {exc}")

    def end_to_end(self, setup_s: float) -> dict:
        """Rates per round, as the median over the run's rounds; every
        round runs the same operations, so one slow round moves little."""
        def per_round(fn):
            return statistics.median(fn(r) for r in self.rounds)

        return {
            "setup_s": setup_s,
            "ops_per_s": per_round(lambda r: (r["attempted"] - r["failed"]) / r["busy_s"]),
            "items_per_s": per_round(lambda r: r["items"] / r["busy_s"]),
            "op_p50_ms": statistics.median(self.latencies) * 1e3,
            "cpu_ms_per_op": per_round(lambda r: r["cpu_s"] / r["attempted"] * 1e3),
            "peak_rss_mb": self.maxrss_kb / 1024.0,
        }


def _ops_for(workload: str, seed: int, round_index: int, listing: Path) -> list[dict]:
    import workloads

    if workload == "cli-tables":
        return workloads.cli_tables(seed, listing)
    if workload == "library-queries":
        return workloads.library_queries(seed)
    return workloads.sampling(seed, round_index)


def _read_output(index: int) -> str:
    return (OUT_DIR / f"op-{index}.out").read_text(encoding="utf-8")


def run_untraced(workload, seed, seconds, runner, tally, listing) -> int:
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        ops = _ops_for(workload, seed, rounds, listing)
        tally.start_round()
        if workload == "library-queries":
            res = runner.worker(ops, trace=False, keep_outputs=False)
            tally.add_usage(res["cpu_s"], res["maxrss_kb"])
            for op, record in zip(ops, res["records"]):
                tally.verify(op, record, None)
        else:
            for i, op in enumerate(ops):
                record, stdout = runner.cli(op["argv"], i)
                tally.add_usage(record["cpu_s"], record["maxrss_kb"])
                tally.verify(op, record, stdout)
        rounds += 1
    return rounds


def run_traced(workload, seed, seconds, runner, tally, listing) -> tuple[int, dict]:
    """Rounds of (untraced, traced) in-process runs, alternating which goes
    first; per-layer figures are summed over rounds."""
    rounds = 0
    untraced_s = traced_s = 0.0
    functions: dict[str, dict] = {}
    by_op: dict[str, dict] = {}
    counters: dict[str, float] = {}
    output_bytes = 0
    last = None
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        ops = _ops_for(workload, seed, rounds, listing)
        tally.start_round()
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            res = runner.worker(ops, trace=traced, keep_outputs=traced)
            busy = sum(r["seconds"] for r in res["records"])
            if not traced:
                untraced_s += busy
                continue
            traced_s += busy
            output_bytes += res["output_bytes"]
            last = res["trace"]
            for name, f in last["functions"].items():
                acc = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in acc:
                    acc[key] += f[key]
            for name, value in last["counters"].items():
                counters[name] = counters.get(name, 0.0) + value
            for op_id, layers in last["by_op"].items():
                acc = by_op.setdefault(op_id, {})
                for name, value in layers.items():
                    acc[name] = acc.get(name, 0.0) + value
            for i, (op, record) in enumerate(zip(ops, res["records"])):
                tally.verify(op, record, _read_output(i) if "argv" in op else None)
        rounds += 1
    trace = {
        "rounds": rounds,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "output_bytes": output_bytes,
        "functions": functions,
        "self_s_by_op": by_op,
        "counters": counters,
        "wrapped": last["wrapped"],
        "absent": last["absent"],
        "spans_last_round": last["spans"],
    }
    return rounds, trace


def per_layer(names: list[str], trace: dict) -> tuple[dict, list[str]]:
    """Per-round values of the per-layer metrics; a metric whose function or
    counter the program no longer has reads 0 and is listed as absent."""
    rounds = trace["rounds"]
    values, absent = {}, []
    for name in names:
        head, _, field = name.rpartition(".")
        if name == "trace.untraced_s":
            value = trace["untraced_s"]
        elif name == "trace.overhead_s":
            value = trace["traced_s"] - trace["untraced_s"]
        elif name == "cli.output_bytes":
            value = trace["output_bytes"]
        elif field in ("self_s", "calls") and head in trace["functions"]:
            value = trace["functions"][head][field]
        elif name in trace["counters"]:
            value = trace["counters"][name]
        else:
            value = 0.0
            if head not in trace["wrapped"]:
                absent.append(name)
        values[name] = value / rounds
    return values, absent


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "citechain" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: no citechain sources at {ROOT / 'src' / 'citechain'}", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(started)
    try:
        setup_s = runner.setup()
        from checks import Checker

        listing_path = OUT_DIR / f"listing-{args.seed}.csv"
        checker = Checker(listing=workloads.write_listing(listing_path, args.seed))
        tally = Tally(checker)
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            rounds, trace = run_traced(
                args.workload, args.seed, args.seconds, runner, tally, listing_path)
            values, trace["absent_metrics"] = per_layer(
                [m["name"] for m in spec["per_layer"]], trace)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            (OUT_DIR / f"trace-{tag}.json").write_text(json.dumps(trace), encoding="utf-8")
        else:
            rounds = run_untraced(
                args.workload, args.seed, args.seconds, runner, tally, listing_path)
            values = tally.end_to_end(setup_s)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=rounds, wrong=tally.wrong, known_faults=tally.faults,
                  worst_errors=checker.worst, notes=checker.notes,
                  check_s=tally.check_s, by_op=tally.by_op,
                  wall_s=time.perf_counter() - started)
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    for line in tally.wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
