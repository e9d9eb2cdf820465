"""Fast self-test of the benchmark harness (about a minute).

    python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_declared_names_match_what_the_harness_emits():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in workloads.WORKLOADS if w not in workloads.UNGATED]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.catalog()


@pytest.mark.parametrize("workload,trace", [
    ("closed-form", 0), ("closed-form", 1), ("reproduce-mc", 0),
    ("simulate-pooled", 0), ("cli-cold", 1),
])
def test_tiny_run_emits_every_metric_and_passes_verification(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        metrics = result["metrics"]
        wall_ms = metrics["trace.wall_s"]["value"] * 1e3
        assert abs(metrics["trace.unaccounted_ms"]["value"]) <= 1e-9 * wall_ms


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run("closed-form", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_an_op_failing_in_every_batch_counts_once_per_batch(monkeypatch):
    monkeypatch.setitem(workloads._EXECUTORS, "raises", lambda op, ctx: 1 / 0)
    monkeypatch.setitem(workloads._EXECUTORS, "rows", lambda op, ctx: "header\nrow\n")
    runner = run.Runner([{"id": 0, "kind": "raises"}, {"id": 1, "kind": "rows"}], None)
    for _ in range(3):
        runner.batch()
    assert runner.mismatches == 0
    assert [bool(p) for p in runner.verify_first()][0]
    assert runner.calls == 6 and len(runner.kept_latencies()) == 6


def test_quiet_batch_wall_sums_each_operations_low_quantile():
    runner = run.Runner([{"id": 0}, {"id": 1}], None)
    # Three whole batches, then a partial one that is left out.
    for i, value in enumerate([1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 0.5]):
        runner.latencies[i] = value
    runner.calls = 7
    assert run.quiet_batch_wall(runner, 0.0) == 11.0
    assert run.quiet_batch_wall(runner, 0.5) == 22.0


def test_quantile_interpolates_between_order_statistics():
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.quantile([float(v) for v in range(11)], 0.1) == 1.0
    assert run.quantile([1.0, 2.0], 0.1) == 1.1
    assert run.quantile([5.0], 0.1) == 5.0


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_checks_catch_bad_outputs():
    from repchain.params import builtin_profile

    ctx = workloads.Context(BENCH / "out" / "unused")
    study = {"kind": "study", "study": "fidelity", "id": 0}
    good = workloads.execute(study, ctx)
    assert workloads.verify(study, good, ctx) == []

    lines = good.splitlines()
    cells = lines[1].split(",")
    cells[10] = repr(float(cells[10]) * (1 + 1e-9))          # fidelity column
    assert workloads.verify(study, "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", ctx)
    cells[10] = "nan"
    assert workloads.verify(study, "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", ctx)

    row = dict(zip(checks.COLUMNS, lines[1].split(",")))
    row["fidelity"] = repr(float(row["fidelity"]) + 1e-11)
    assert checks.oracle_problems(row, builtin_profile(row["era"]))

    cli_op = {"kind": "cli", "command": "rate", "entry": next(iter(ctx.catalog)), "row": 0}
    assert workloads.verify(cli_op, (2, "", "error: bad value"), ctx)


def test_binomial_check_bounds():
    assert checks.binomial_problem(500_000, 1_000_000, 0.5) is None
    assert checks.binomial_problem(0, 1_000_000, 0.5)
    assert checks.binomial_problem(1, 16384, 1e-6) is None      # rare, not implausible
    assert checks.binomial_problem(10, 16384, 1e-6)
    assert checks.binomial_problem(0, 100, 0.0) is None
    assert checks.binomial_problem(1, 100, 0.0)


def test_reference_covers_the_catalog():
    reference = catalog.load_reference()
    assert set(reference["sweeps"]) == set(catalog.build_catalog())
    assert set(reference["studies"]) == set(catalog.STUDIES)
