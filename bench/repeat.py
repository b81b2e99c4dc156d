#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/repeat.py --workloads large_n sweep oracle --seeds 1-10 \\
        --json bench/out/repeat.json

For every workload and metric this prints the median, the quartiles and
the spread (third minus first quartile, as a share of the median) over
the seeds, next to the metric's bound from BENCHMARK.json.  Each run gets
--seconds run_seconds from BENCHMARK.json, and the runs are sequential,
one process at a time.  --json also writes every
run's metrics together with the machine record of the first run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = json.loads(lines[0].removeprefix("env "))
    return env, json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["large_n", "sweep", "oracle"])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            env, result = run(workload, seed, seconds, args.trace)
            report.setdefault("env", env)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else None
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            limit = f"bound {bound}" if bound is not None else ""
            shown = "-" if spread is None else f"{spread:.4f}"
            print(f"{workload:8} {name:28} median {median:14.6g}  spread {shown:>7}  {limit}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
