"""tools/map_digest.py: what load_map makes of seeded mutations of a map."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "map_digest.py"
SHA256 = re.compile("[0-9a-f]{64}")


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_smoke_run_prints_one_line_per_mutation_and_repeats_exactly():
    runs = [run_tool(ROOT, 1, 50) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert [line["mutation"] for line in lines] == list(range(50))
    loads = [line["digest"] for line in lines if "digest" in line]
    errors = [line["error"] for line in lines if "error" in line]
    assert len(loads) + len(errors) == 50 and loads and errors
    assert all(SHA256.fullmatch(digest) for digest in loads)
    assert all(re.match("line [0-9]+: |header promises |empty file", error)
               for error in errors)
    assert run_tool(ROOT, 2, 50).stdout != runs[0].stdout
