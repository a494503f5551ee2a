"""The test suite's own pytest settings (pyproject.toml)."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # hypothesis's failure report imports libcst, which warns that
    # mypy_extensions.TypedDict is deprecated; with DeprecationWarning an
    # error, that warning ended the run with INTERNALERROR (exit code 3)
    # and no later test ran
    (tmp_path / "test_one_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_one_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
