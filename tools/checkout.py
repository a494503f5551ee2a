"""Import ``foglab`` from a given checkout, for the tools in this directory.

Each tool calls :func:`import_foglab` first thing in ``main()``, so that
loading a tool as a module (as the tests do) changes nothing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def import_foglab(checkout: Path, *paths: Path) -> bool:
    """Import ``foglab`` from ``checkout/src``, with ``paths`` after it at
    the front of ``sys.path``. BLAS is pinned to one thread first, as in
    perfbench, since the LM path depends on the BLAS reduction order, and no
    bytecode is written into either tree. Returns False after saying on
    stderr why the checkout is refused: it has no ``foglab`` package, or
    another copy of it was imported."""
    src = (checkout / "src").resolve()
    if not (src / "foglab").is_dir():
        print(f"no foglab package under {src}", file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"               # before numpy is imported
    sys.path[:0] = [str(src), *map(str, paths)]
    sys.dont_write_bytecode = True
    import foglab
    # __file__ is None when src/foglab, without __init__.py, is all there is
    if foglab.__file__ is None or Path(foglab.__file__).resolve().parent != src / "foglab":
        print(f"foglab was imported from {foglab.__file__}, not {src}", file=sys.stderr)
        return False
    return True
