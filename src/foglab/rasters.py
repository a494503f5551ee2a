"""Image and distance-map file I/O.

Images are 8-bit netpbm: P5 (gray) / P6 (color) written binary, the ASCII
variants P2 / P3 also accepted on read. Distance maps are row-major
little-endian float32 rasters with a two-line ASCII header:

    distmap float32
    <width> <height>
"""

from __future__ import annotations

import numpy as np

from .errors import MapFormatError, parse_number

_DIST_MAGIC = b"distmap float32"


def write_image(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError("images are written as uint8; quantize first")
    if image.ndim == 2:
        magic = b"P5"
    elif image.ndim == 3 and image.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError("image must be HxW or HxWx3")
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(image.tobytes())


def _read_pnm_tokens(data: bytes, count: int):
    """First ``count`` whitespace/comment-delimited ASCII tokens and the
    offset one byte past the last one."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MapFormatError("truncated netpbm header")
        tokens.append(data[start:pos])
    return tokens, pos + 1


def _ints(tokens: list[bytes], what: str) -> list[int]:
    out = []
    for t in tokens:
        t = t.decode("ascii", "replace")
        try:
            out.append(parse_number(t, int))
        except ValueError:
            raise MapFormatError(f"{what} {t!r} is not an integer") from None
    return out


def read_image(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    (magic,), _ = _read_pnm_tokens(data, 1)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise MapFormatError(f"unsupported netpbm magic {magic!r}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    tokens, offset = _read_pnm_tokens(data, 4)
    w, h, maxval = _ints(tokens[1:4], "netpbm header value")
    if maxval != 255:
        raise MapFormatError("only 8-bit images are supported")
    if w < 1 or h < 1:
        raise MapFormatError(f"netpbm size {w}x{h} is empty or negative")
    n = w * h * channels
    if magic in (b"P5", b"P6"):
        raw = data[offset:offset + n]
        if len(raw) != n:
            raise MapFormatError("truncated pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8)
    else:
        values = data[offset:].split()
        if len(values) != n:
            raise MapFormatError("ascii pixel count does not match header")
        samples = _ints(values, "ascii sample")
        bad = [v for v in samples if not 0 <= v <= 255]
        if bad:
            raise MapFormatError(f"ascii sample {bad[0]} outside [0, 255]")
        pixels = np.array(samples, dtype=np.uint8)
    shape = (h, w) if channels == 1 else (h, w, 3)
    return pixels.reshape(shape)


def write_distance_map(path, distances: np.ndarray) -> None:
    d = np.asarray(distances, dtype=np.float32)
    if d.ndim != 2:
        raise ValueError("distance map must be 2-D")
    h, w = d.shape
    with open(path, "wb") as fh:
        fh.write(_DIST_MAGIC + b"\n%d %d\n" % (w, h))
        fh.write(d.astype("<f4").tobytes())


def read_distance_map(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != _DIST_MAGIC:
            raise MapFormatError(f"bad distance map magic {magic!r}")
        try:
            w, h = (parse_number(t.decode("ascii", "replace"), int)
                    for t in fh.readline().split())
        except ValueError as exc:
            raise MapFormatError(f"bad distance map size line: {exc}") from exc
        if w < 1 or h < 1:
            raise MapFormatError(f"distance map size {w}x{h} is empty or negative")
        raw = fh.read()
    if len(raw) != 4 * w * h:
        raise MapFormatError("truncated distance map payload")
    return np.frombuffer(raw, dtype="<f4").reshape(h, w).astype(np.float32)
