"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py

Tiny rounds of every workload run in-process with small sizes patched in.
The command contract is checked end to end on the sweep workload, with
--seconds 1.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tropdet  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload to sizes that run in about a second."""
    monkeypatch.setattr(workloads, "LARGE_N", (30, 41))
    monkeypatch.setattr(workloads, "SWEEP_N", (2, 7))
    monkeypatch.setattr(workloads, "SWEEP_M", (1, 13))
    monkeypatch.setattr(workloads, "ORACLE_CELLS", [(2, 2), (3, 3), (2, 4)])


def one_round(workload, tmp_path, tracer=None):
    runner = workloads.Runner(tmp_path)
    try:
        return run.run_rounds(workloads, workload, 7, runner, 1, tracer)
    finally:
        runner.close()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_round_is_correct(workload, tmp_path):
    records = one_round(workload, tmp_path)
    assert len(records) == len(workloads.ROUNDS[workload](7, 0))
    assert [r for r in records if r.status != "ok"] == []


@pytest.mark.parametrize(
    "workload, layer",
    [("large_n", "cli"), ("sweep", "construct"), ("oracle", "enumerate_ds")],
)
def test_traced_round_reports_layers(workload, layer, tmp_path):
    original = tropdet.tdet
    tracer = Tracer()
    untraced, traced = one_round(workload, tmp_path, tracer)
    assert tropdet.tdet is original
    assert len(untraced) == len(traced)
    assert all(r.status == "ok" for r in untraced + traced)
    metrics = tracer.layer_metrics()
    assert metrics[f"{layer}.calls"][0] > 0
    assert metrics[f"{layer}.self_s"][0] <= metrics[f"{layer}.busy_s"][0] + 1e-9
    if workload == "oracle":  # every pass walks each cell with count_D, brute_L and brute_U
        walks = len(workloads.ORACLE_FUNCS) * workloads.ORACLE_PASSES
        assert metrics["enumerate_ds.visited"][0] == walks * sum(workloads.ref_count(*c) for c in workloads.ORACLE_CELLS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_gives_identical_op_list(workload):
    def op_list(seed):
        return [workloads.ROUNDS[workload](seed, i) for i in range(3)]

    first = op_list(11)
    assert first == op_list(11)
    if workload != "oracle":  # the oracle has no random input
        assert first != op_list(12)
    assert np.array_equal(workloads.member_matrix(5, 40, 3), workloads.member_matrix(5, 40, 3))


def test_wrong_answer_is_counted(monkeypatch, tmp_path):
    real = tropdet.lower_bound_L

    def off_by_one(m, n):
        res = real(m, n)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(tropdet, "lower_bound_L", off_by_one)
    records = one_round("sweep", tmp_path)
    sharp = [r for r in records if r.label == "sharp"]
    assert sharp and all(r.status == "wrong" for r in sharp)


def test_raised_error_is_counted(monkeypatch, tmp_path):
    def overflow(a, t):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(tropdet, "largest_low_block", overflow)
    records = one_round("sweep", tmp_path)
    assert records and all(r.status == "error" for r in records)
    assert "RecursionError" in records[0].message


def test_closed_form_references():
    assert [workloads.ref_L(m, n)[0] for m, n in [(7, 5), (7, 6), (9, 6), (4, 6)]] == [9, 10, 12, 6]
    assert workloads.ref_count(8, 3) == 1035
    assert workloads.ref_count(4, 2) == 5 and workloads.ref_count(1, 5) == 120


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(x) for x in range(100)])
    assert value == 89.0 and pct == 90.0


def _command(cwd, *extra):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = _command(BENCH.parent, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _command(tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
