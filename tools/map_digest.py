#!/usr/bin/env python3
"""Print what ``load_map`` makes of seeded mutations of one small map.

    python3 tools/map_digest.py CHECKOUT SEED N

Writes N mutations of a small map file, one after another, to one temporary
file outside both trees, and loads each with ``foglab`` imported from
``CHECKOUT/src``. The map has comments, a blank line, positions and edges.
Each mutation applies one to three edits to it: insert a token from a fixed
list (numbers in spellings that are accepted and refused, keywords, ``#``,
whitespace, NUL, a line end, a byte that is not ASCII), delete a span of up
to eight characters, or swap two lines. Prints one JSON line per mutation:
its index and either the SHA-256 digest of the graph loaded (channel count,
frames and landmarks with their positions, in dict order, and the bytes of
the edge table) or the ``MapFormatError`` text. Two checkouts load every map
file alike, graph or error, when their outputs are equal:

    python3 tools/map_digest.py ../parent 1 2000 > parent.txt
    python3 tools/map_digest.py . 1 2000 > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

MAP = """\
# three frames, four landmarks
localmap 3 4 9 1
frame 0 0.0 0.0 0.0
frame 1 4.0 0.0 0.0   # moved ahead
frame 2 8.0 0.5 -1e-3

landmark 7 1.5 -2.0 30.0
landmark 9
landmark 11 0.25 3.0 45.5 # far
landmark 12
edge 0 7 52.0 141.0
edge 0 9 38.5 97.0
edge 0 11 60.25 170.0
edge 1 7 48.0 138.0
edge 1 9 34.5 92.0   # a note
edge 1 12 20.0 55.0
edge 2 7 44.0 135.5
edge 2 9 30.5 88.0
edge 2 11 52.25 160.0
"""

TOKENS = (
    "edge", "frame", "landmark", "localmap", "edges", "#", " ", "\t", "\n", "\r\n",
    "\0", "\x0b", "é", "0", "1", "-1", "+3", "05", "7", "12", "3", "255", "256",
    "-5.0", "1.0", "1e5", "0x10", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809", ".5", "5.", "1e-320", "1e400", "nan", "-inf", "Infinity",
    "nan(1)", "1d5", "0x1p3", ".", "5e", "1_0")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", type=Path, help="foglab checkout whose src/ is imported")
    p.add_argument("seed", type=int)
    p.add_argument("n", type=int, help="number of mutations")
    return p.parse_args(argv)


def mutate(text: str, rng: np.random.Generator) -> str:
    """``text`` after one to three random edits."""
    for _ in range(rng.integers(1, 4)):
        edit = rng.integers(3)
        if edit == 0:
            at = rng.integers(len(text) + 1)
            text = text[:at] + TOKENS[rng.integers(len(TOKENS))] + text[at:]
        elif edit == 1:
            at = rng.integers(len(text))
            text = text[:at] + text[at + rng.integers(1, 9):]
        else:
            lines = text.split("\n")
            i, j = rng.integers(len(lines), size=2)
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def graph_digest(graph) -> str:
    """SHA-256 of the channel count, frames, landmarks and edge table."""
    digest = hashlib.sha256()
    for part in (graph.n_channels, list(graph.frames.items()),
                 list(graph.landmarks.items())):
        digest.update(repr(part).encode())
    digest.update(graph.edges.tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    from checkout import import_foglab
    if not import_foglab(args.checkout):
        return 2
    import numpy as np
    from foglab.errors import MapFormatError
    from foglab.localmap import load_map

    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory(prefix="map_digest-") as workdir, \
            open(Path(workdir) / "mutant.map", "wb") as out:
        for i in range(args.n):
            # rewritten through one handle: reopening the file to truncate it
            # took ~60 ms a call on a 2-core VM's virtio disk
            out.seek(0)
            out.write(mutate(MAP, rng).encode("utf-8"))
            out.truncate()
            out.flush()
            try:
                line = {"mutation": i, "digest": graph_digest(load_map(out.name))}
            except MapFormatError as exc:
                line = {"mutation": i, "error": str(exc)}
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
