"""Smoke runs of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced with ``--smoke``; every
metric that BENCHMARK.json names must be printed, with its unit, in the
single JSON result on the last line of standard output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, str(RUN.relative_to(ROOT)), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_named_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = BENCH["end_to_end" if trace == 0 else "per_layer"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in named}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    info = json.loads(lines[-2].removeprefix("info "))
    assert info["seed"] == 7 and info["blas"]["threads_pinned"] == 1


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(tmp_path, "trials", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
