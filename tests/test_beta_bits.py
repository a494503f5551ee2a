"""tools/beta_bits.py: the bits of every beta of a perfbench workload's ops."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "beta_bits.py"
REASONS = {"gradient", "step", "cost", "max-iter"}


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def perfbench_files():
    return {p: p.stat().st_mtime_ns for p in (ROOT / "perfbench").rglob("*")}


def test_smoke_run_prints_one_line_per_op_and_repeats_exactly():
    before = perfbench_files()
    runs = [run_tool(ROOT, "stream", 7, 3, "--smoke") for _ in range(2)]
    assert perfbench_files() == before
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert [line["op"] for line in lines] == [0, 1, 2]
    for line in lines:
        assert line["failed"] is False
        [beta] = [float.fromhex(b) for b in line["betas"]]
        assert math.isfinite(beta) and beta > 0
        # one estimate per stream op: a stage-1 and a stage-2 solve
        assert len(line["solves"]) == 2
        assert all(n >= 1 and reason in REASONS for n, reason in line["solves"])


@pytest.mark.parametrize("workload", ["bigmap", "trials", "recovery"])
def test_smoke_run_of_every_other_workload(workload):
    proc = run_tool(ROOT, workload, 7, 1, "--smoke")
    assert proc.returncode == 0, proc.stderr
    [line] = [json.loads(line) for line in proc.stdout.splitlines()]
    assert line["op"] == 0 and line["failed"] is False
    betas = [float.fromhex(b) for b in line["betas"]]
    assert betas and all(math.isfinite(beta) and beta > 0 for beta in betas)
    assert line["solves"]
    assert all(n >= 1 and reason in REASONS for n, reason in line["solves"])


def test_a_checkout_without_the_package_is_refused(tmp_path):
    proc = run_tool(tmp_path, "trials", 1, 1)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "no foglab package" in proc.stderr
