"""tools/recovery_seeds.py: the recovery suite's method ordering over seeds."""

import importlib.util
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "recovery_seeds.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def load_tool():
    spec = importlib.util.spec_from_file_location("recovery_seeds", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_smoke_run():
    start = time.perf_counter()
    proc = run_tool(ROOT, 0, 0)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    header, row, holds, means, *ablations = proc.stdout.splitlines()
    assert header.split() == ["seed", "ours", "ours-1stage", "ours-uniform", "li-mod",
                              "li-orig", "ordering"]
    # seed 0 is criterion 7's suite, where the ordering holds
    seed, *rmse, verdict = row.split()
    assert seed == "0" and verdict == "holds"
    assert holds == "ordering holds on 1/1 seeds"
    assert means.split()[:2] == ["mean", "RMSE"]
    assert [m.split("=")[1] for m in means.split()[2:]] == rmse
    assert [line.split(":")[0] for line in ablations] == ["ours - ours-1stage",
                                                          "ours - ours-uniform"]
    assert all("negative on 1/1 seeds, sign test p=1" in line for line in ablations)
    assert elapsed < 3.0


def test_each_line_is_printed_once():
    # the suite forks its stream workers after the header is printed; with
    # stdout on a pipe, and buffered, the header is still in the buffer then
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), "0", "1"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["seed", "0", "1"]
    assert lines[3].startswith("ordering holds on ") and lines[3].count("/2 seeds") == 1
    assert [line.split()[0] for line in lines[4:]] == ["mean", "ours", "ours"]


def test_refusals():
    # a checkout without the package: tests/test_tools.py
    assert run_tool(ROOT, 3, 2).returncode == 2


def test_ordering_and_paired_statistics():
    tool = load_tool()
    rmse = dict(zip(tool.METHODS, [1.0, 2.0, 3.0, 4.0, 5.0]))
    assert tool.ordering_holds(rmse)
    assert not tool.ordering_holds({**rmse, "li-orig": 3.5})
    assert not tool.ordering_holds({**rmse, "ours-uniform": 1.0})
    # sign test: 2 * P(X <= k) for X ~ Binomial(n, 1/2); ties are dropped
    assert tool.sign_test([-1.0] * 20) == 2.0 / 2 ** 20
    assert math.isclose(tool.sign_test([-1.0] * 17 + [1.0] * 3), 2.0 * 1351 / 2 ** 20)
    assert tool.sign_test([-1.0, 1.0, 0.0]) == 1.0 and tool.sign_test([0.0]) == 1.0
    diffs = np.random.default_rng(1).normal(-1.0, 0.5, 20)
    lo, hi = tool.bootstrap_interval(diffs, np.random.default_rng(0))
    assert lo < diffs.mean() < hi < 0.0
    assert tool.bootstrap_interval([2.0, 2.0], np.random.default_rng(0)) == (2.0, 2.0)
