"""Tests of the benchmark itself; run from the root: python3 -m pytest perfbench -q

Each workload gets a short run: every registered metric must be printed with
its unit, no operation may fail, and a reference shifted by 1e-6 must turn
every operation into a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def _bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> tuple[list[str], dict]:
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_registry_matches_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_are_printed_and_nothing_fails(workload):
    lines, result = _result(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines)
    assert len(result["metrics"]) == len(run.END_TO_END)
    failed_frac = [line.split() for line in lines if line.startswith("failed_frac")]
    assert failed_frac and failed_frac[0][1:3] == ["0", "1"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics_are_printed(workload):
    lines, result = _result(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: metrics[name]["unit"] for name in metrics} == dict(run.PER_LAYER)
    for name, unit in run.PER_LAYER:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
    assert metrics["trace.coverage_frac"]["value"] >= 0.9
    assert "absent: none" in lines
    if workload == "report-cli":
        assert metrics["band_analysis.sweeps"]["value"] == 7
        assert metrics["fiber_linalg.eigen_scalar_calls"]["value"] == 42
    else:
        assert metrics["band_analysis.sweeps"]["value"] == 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_shifted_reference_is_counted_as_failure(workload):
    work = ROOT / ".perfbench_work" / f"test-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = run.measure(workload, 5, 0.5, False, work)["ops"]
    finally:
        _remove(work)
    assert not any(run.failures(workload, ops))
    assert all(run.failures(workload, ops, shift=1e-6))


def test_false_verdict_is_counted_as_failure():
    work = ROOT / ".perfbench_work" / "test-verdict"
    work.mkdir(parents=True, exist_ok=True)
    try:
        op = run.measure("report-cli", 5, 0.5, False, work)["ops"][0]
    finally:
        _remove(work)
    assert run.failure_reasons("report-cli", [op]) == [None]
    op["report"]["verdicts"]["loop_graph"] = False
    op["code"] = 1
    assert run.failure_reasons("report-cli", [op]) == [
        "exit code 1; verdict not true: loop_graph"
    ]


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _bench("bands-dense", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        _remove(bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
