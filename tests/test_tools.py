"""What the tools under tools/ share: the checkouts they refuse."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the arguments after CHECKOUT of one small run of each tool
TOOLS = {"beta_bits": ("trials", 1, 1), "map_digest": (1, 1), "recovery_seeds": (0, 0)}


def run_tool(tool, checkout, **env):
    return subprocess.run([sys.executable, str(ROOT / "tools" / f"{tool}.py"), str(checkout),
                           *map(str, TOOLS[tool])],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, **env})


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_a_checkout_without_the_package_is_refused(tmp_path, tool):
    proc = run_tool(tool, tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "no foglab package" in proc.stderr
    # a src/foglab without __init__.py loses to the package on PYTHONPATH
    (tmp_path / "src" / "foglab").mkdir(parents=True)
    proc = run_tool(tool, tmp_path, PYTHONPATH=str(ROOT / "src"))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"foglab was imported from {ROOT / 'src' / 'foglab' / '__init__.py'}, "
                           f"not {tmp_path.resolve() / 'src'}\n")
    # and with no other copy on the path, it imports as an empty namespace
    proc = run_tool(tool, tmp_path, PYTHONPATH="")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("foglab was imported from ")
