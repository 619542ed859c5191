"""Tests of the benchmark itself, on the tiny --smoke sizes.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _smoke(workload: str, trace: int, seed: int = 3) -> tuple[subprocess.CompletedProcess, dict]:
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_listed_metric_and_passes_its_checks(workload, trace):
    proc, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if importlib.util.find_spec("numba") is None:
        assert " backend=numpy " in proc.stdout.splitlines()[0]


def _quality_line(seed: int) -> str:
    proc, _ = _smoke("sweep-k4", 0, seed=seed)
    return next(line for line in proc.stdout.splitlines() if line.startswith("# quality:"))


def test_same_seed_gives_same_inputs_and_quality():
    assert _quality_line(5) == _quality_line(5)
    assert _quality_line(5) != _quality_line(6)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
