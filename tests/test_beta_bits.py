"""tools/beta_bits.py: the bits of every beta of a perfbench workload's ops."""

import hashlib
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from foglab.localmap import ObservationSet

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "beta_bits.py"
REASONS = {"gradient", "step", "cost", "max-iter"}
SHA256 = re.compile("[0-9a-f]{64}")


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
        assert line["baseline_betas"] == []
        assert math.isfinite(beta) and beta > 0
        # one estimate per stream op: a stage-1 and a stage-2 solve
        assert len(line["solves"]) == 2
        assert all(n >= 1 and reason in REASONS for n, reason in line["solves"])
        assert SHA256.fullmatch(line["observations"])
    # each op estimates from another prefix of its scene
    assert len({line["observations"] for line in lines}) == 3


@pytest.mark.parametrize("workload", ["bigmap", "trials", "recovery"])
def test_smoke_run_of_every_other_workload(workload):
    proc = run_tool(ROOT, workload, 7, 1, "--smoke")
    assert proc.returncode == 0, proc.stderr
    [line] = [json.loads(line) for line in proc.stdout.splitlines()]
    assert line["op"] == 0 and line["failed"] is False
    betas = [float.fromhex(b) for b in line["betas"]]
    assert betas and all(math.isfinite(beta) and beta > 0 for beta in betas)
    baseline_betas = [float.fromhex(b) for b in line["baseline_betas"]]
    # li-orig and li-mod for each recovery scenario, no Li baseline elsewhere
    assert len(baseline_betas) == (2 if workload == "recovery" else 0)
    assert all(math.isfinite(beta) for beta in baseline_betas)
    # two solves per two-stage estimate, one per one-stage estimate: a bigmap
    # op makes one estimate, a trials op four, and a recovery op three per
    # stream (two frame prefixes, then the whole map) for each of ours,
    # ours-uniform (two-stage) and ours-1stage (one-stage)
    assert len(line["solves"]) == {"bigmap": 2, "trials": 8, "recovery": 15}[workload]
    assert all(n >= 1 and reason in REASONS for n, reason in line["solves"])
    assert SHA256.fullmatch(line["observations"])


def test_the_observation_digest_covers_every_column_of_every_set():
    spec = importlib.util.spec_from_file_location("beta_bits", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    columns = {"frame": [0, 1, 2], "landmark": [7, 7, 9],
               "distance": [5.0, 6.0, 7.0], "radiance": [100.0, 90.0, 80.0]}
    sets = [ObservationSet.from_columns(**columns),
            ObservationSet.from_columns(**{**columns, "distance": [1.0, 2.0, 3.0]})]
    expected = hashlib.sha256()
    for obs in sets:
        for name in ("frame", "landmark", "distance", "radiance"):
            expected.update(getattr(obs, name).tobytes())
    digest = tool.observation_digest(sets)
    assert digest == expected.hexdigest()
    assert tool.observation_digest([]) == hashlib.sha256().hexdigest()
    for name, value in columns.items():
        changed = {**columns, name: np.add(value, 1).tolist()}
        assert tool.observation_digest([ObservationSet.from_columns(**changed), sets[1]]) != digest
