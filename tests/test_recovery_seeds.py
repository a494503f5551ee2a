"""tools/recovery_seeds.py: the recovery suite's method ordering over seeds."""

import importlib.util
import math
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


def test_refusals():
    assert run_tool(ROOT, 3, 2).returncode == 2
    proc = run_tool(ROOT / "tools", 0, 0)
    assert proc.returncode == 2 and "no foglab package" in proc.stderr


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
