#!/usr/bin/env python3
"""Run one seeded workload of the tropdet benchmark and print its metrics.

    python3 bench/run.py --workload large_n --seed 1 --seconds 15 --trace 0

One process, one client, one op at a time: each op starts when the
previous one ends.  A run does a fixed number of whole rounds of ops (see
workloads.py): the fewest whose CPU time at the defining commit reaches
--seconds.  Every output is checked; the run exits 1 after printing its
result when any output was wrong.

Ops are timed in process CPU seconds.  The benchmark runs on shared
machines where the wall clock also counts the time the process waits for
a core, which here moves a fixed loop's time by up to a quarter between
runs; the wall time is kept in the result file for reference.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the rounds for
half of --seconds, each op twice: untraced, and with every layer's public
functions wrapped (tracer.py).  It prints the per-layer metrics and writes
the spans to bench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The package is imported from src/ of the
checkout this file sits in; without it the run fails before printing a
result.
"""

import os

# One compute thread for numpy and scipy; set before either is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 3
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Record:
    label: str
    seconds: float  # CPU time of the op
    wall: float
    status: str  # "ok", "error" (raised) or "wrong" (failed its check)
    message: str = ""


def import_package() -> None:
    """Import tropdet from this checkout's src/, or exit without a result."""
    if not (SRC / "tropdet" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'tropdet'}")
    sys.path.insert(0, str(SRC))
    import tropdet

    if Path(tropdet.__file__).resolve().parent != SRC / "tropdet":
        sys.exit(f"error: imported tropdet from {tropdet.__file__}, not {SRC}")


def run_op(runner, op) -> Record:
    """Time one op in CPU seconds, then check its output."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        out = runner.call(op)
        status, message = "ok", ""
    except Exception as exc:  # RecursionError and MemoryError included
        status, message = "error", f"{type(exc).__name__}: {exc}"
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    if status == "ok":
        try:
            runner.check(op, out)
        except Exception as exc:
            status, message = "wrong", f"{type(exc).__name__}: {exc}"
    return Record(op.label, cpu, wall, status, message)


def run_rounds(workloads, workload, seed, runner, rounds, tracer=None):
    """Run rounds 0 .. rounds-1 of the workload, one op at a time.

    With a tracer, every op runs twice, untraced and traced, in turns
    which goes first; returns (untraced records, traced records).
    """
    plain: list[Record] = []
    traced: list[Record] = []
    for index in range(rounds):
        for op in workloads.ROUNDS[workload](seed, index):
            runner.prepare(op)
            if tracer is None:
                plain.append(run_op(runner, op))
                continue
            traced_first = len(traced) % 2 == 1
            if not traced_first:
                plain.append(run_op(runner, op))
            tracer.op_id = len(traced)
            tracer.install()
            try:
                traced.append(run_op(runner, op))
            finally:
                tracer.uninstall()
            if traced_first:
                plain.append(run_op(runner, op))
    return plain if tracer is None else (plain, traced)


def setup_seconds(workload: str) -> list[float]:
    """CPU time of fresh processes that import the package and warm up."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile).  With too few samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records: list[Record], setup: list[float]) -> tuple[dict, dict]:
    latencies = [r.seconds for r in records]
    ok = sum(r.status == "ok" for r in records)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ok / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "ops_per_wall_s": ok / sum(r.wall for r in records),
        "error_rate": (len(records) - ok) / len(records),
        "op_tail_percentile": tail_pct,
        "ops_timed": len(records),
        "setup_samples_s": setup,
    }
    return metrics, notes


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def by_label(records: list[Record]) -> dict[str, dict]:
    """Op count, median latency and failures for each op label."""
    groups: dict[str, list[Record]] = {}
    for r in records:
        groups.setdefault(r.label, []).append(r)
    return {
        label: {
            "ops": len(group),
            "p50_ms": statistics.median(r.seconds for r in group) * 1e3,
            "failed": sum(r.status != "ok" for r in group),
        }
        for label, group in sorted(groups.items())
    }


def summarize(records: list[Record]) -> list[str]:
    lines = [
        f"  {label:<22} ops {row['ops']:>5}  p50 {row['p50_ms']:10.3f} ms  failed {row['failed']}"
        for label, row in by_label(records).items()
    ]
    failures = Counter((r.label, r.status, r.message) for r in records if r.status != "ok")
    for (label, status, message), count in failures.most_common(10):
        lines.append(f"  {status}: {label}: {message[:160]} (x{count})")
    return lines


def main() -> int:
    import_package()
    import workloads
    from tracer import Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = environment(args)
    print("env " + json.dumps(env))
    workloads.warm_up(args.workload, OUT / "work")
    runner = workloads.Runner(OUT / "work")

    rounds = workloads.rounds_for(args.workload, args.seconds / (2 if args.trace else 1))
    if args.trace:
        tracer = Tracer()
        untraced, traced = run_rounds(workloads, args.workload, args.seed, runner, rounds, tracer)
        records = untraced + traced
        metrics = tracer.layer_metrics()
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced) - 1
        metrics["trace.overhead_frac"] = (overhead, "frac")
        notes = {"spans": len(tracer.start)}
        tracer.save(OUT / f"trace_{args.workload}_seed{args.seed}.npz")
        summary_records = traced
    else:
        setup = setup_seconds(args.workload)
        records = run_rounds(workloads, args.workload, args.seed, runner, rounds)
        metrics, notes = end_to_end(records, setup)
        summary_records = records
    notes["rounds"] = rounds
    notes["by_label"] = by_label(summary_records)
    runner.close()

    wrong = sum(r.status == "wrong" for r in records)
    failed = sum(r.status != "ok" for r in records)
    passes = "each op untraced and traced" if args.trace else "untraced"
    print(f"{args.workload}: {len(records)} ops, {rounds} rounds {passes}, "
          f"{failed} failed ({wrong} wrong answers, {failed - wrong} raised)")
    print("\n".join(summarize(summary_records)))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"op_tail_ms is p{notes['op_tail_percentile']:.1f} of {notes['ops_timed']} ops "
              f"({TAIL_BEYOND} beyond it)")
        print(f"error_rate = {notes['error_rate']:.6g} ({failed} of {len(records)} ops)")

    result = {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps({"env": env, "notes": notes, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
