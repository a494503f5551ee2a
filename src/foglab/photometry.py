"""Radiometric camera response: gamma expansion/compression and its calibration.

A gamma map relates an 8-bit intensity ``i`` to scene radiance ``l`` through

    l = expand(i) = alpha * i**gamma + zeta

and ``compress`` is its inverse. Maps are calibrated per channel from
(intensity, optical power) series by least squares: for a fixed gamma the
best (alpha, zeta) is a linear problem, and gamma itself is found by a grid
scan plus golden-section refinement over [0.2, 5].

``expand`` and ``compress`` evaluate the power with numpy's ``power``, which
gives the same bits for one element as for that element inside a longer
array, so callers may stack their inputs into one call. Python's ``**`` on
floats does not always agree with it in the last bit. A map's
``radiance_range`` is ``expand`` at intensities 0 and 255, so ``compress``
accepts every radiance ``expand`` gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError, MapFormatError, parse_number, read_ascii

GAMMA_SEARCH_RANGE = (0.2, 5.0)
# gray first, then the color channels in the order a color map stores them
CHANNEL_NAMES = ("gray", "r", "g", "b")


def check_channel(channel: str) -> str:
    """``channel`` if it is one of :data:`CHANNEL_NAMES`; ValueError otherwise."""
    if channel not in CHANNEL_NAMES:
        raise ValueError(f"unknown channel {channel!r}; expected one of {CHANNEL_NAMES}")
    return channel


@dataclass(frozen=True)
class GammaMap:
    alpha: float
    gamma: float
    zeta: float

    def __post_init__(self):
        for name in ("alpha", "gamma", "zeta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha <= 0 or self.gamma <= 0:
            raise ValueError("alpha and gamma must be positive")

    @classmethod
    def identity(cls) -> "GammaMap":
        return cls(1.0, 1.0, 0.0)

    @functools.cached_property
    def radiance_range(self) -> tuple[float, float]:
        """Radiances reachable from intensities in [0, 255]: ``expand`` at 0
        and 255, computed once per map (``compress`` reads it on each call)."""
        return tuple(expand(self, [0.0, 255.0]).tolist())


def expand(gmap: GammaMap, i):
    """Map intensities in [0, 255] to radiances."""
    i = np.asarray(i, dtype=float)
    # NaN fails both comparisons
    if i.size and not (np.minimum.reduce(i, axis=None) >= 0
                       and np.maximum.reduce(i, axis=None) <= 255):
        raise ValueError("intensities must lie in [0, 255]")
    out = gmap.alpha * i ** gmap.gamma + gmap.zeta
    return float(out) if np.ndim(out) == 0 else out


def compress(gmap: GammaMap, l, clamp: bool = False):
    """Inverse of :func:`expand`; radiances outside the map's range raise
    unless ``clamp`` is set."""
    l = np.asarray(l, dtype=float)
    lo, hi = gmap.radiance_range
    if clamp:
        l = np.minimum(np.maximum(l, lo), hi)
    elif l.size and not (np.minimum.reduce(l, axis=None) >= lo
                         and np.maximum.reduce(l, axis=None) <= hi):
        raise ValueError(f"radiance outside [{lo}, {hi}]; pass clamp=True to clip")
    out = ((l - gmap.zeta) / gmap.alpha) ** (1.0 / gmap.gamma)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class CalibrationSeries:
    """Measured (intensity, optical power) samples for one channel."""

    intensities: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        i = np.asarray(self.intensities, dtype=float)
        p = np.asarray(self.powers, dtype=float)
        object.__setattr__(self, "intensities", i)
        object.__setattr__(self, "powers", p)
        if i.ndim != 1 or i.shape != p.shape:
            raise ValueError("intensities and powers must be 1-D and equally long")
        if i.size < 4:
            raise ValueError("calibration needs at least 4 samples")
        if not (np.all(np.isfinite(i)) and np.all(np.isfinite(p))):
            raise ValueError("calibration samples must be finite")
        if np.any(i < 0) or np.any(i > 255):
            raise ValueError("intensities must lie in [0, 255]")
        order = np.argsort(i)
        if np.any(np.diff(i[order]) <= 0):
            raise ValueError("intensities must be distinct")
        if np.any(np.diff(p[order]) <= 0):
            raise ValueError("power must increase strictly with intensity")


def _profiled_sse(i: np.ndarray, p: np.ndarray, gamma: float):
    # linear LS in (alpha, zeta) for a fixed gamma
    design = np.column_stack([i ** gamma, np.ones_like(i)])
    coef, *_ = np.linalg.lstsq(design, p, rcond=None)
    r = p - design @ coef
    return float(r @ r), float(coef[0]), float(coef[1])


def fit_gamma_map(series: CalibrationSeries) -> tuple[GammaMap, float]:
    """Fit (alpha, gamma, zeta) to a calibration series.

    Returns the map and the residual norm of the fit.
    """
    i = series.intensities
    p = series.powers
    lo, hi = GAMMA_SEARCH_RANGE
    grid = np.linspace(lo, hi, 97)
    sse = [_profiled_sse(i, p, g)[0] for g in grid]
    k = int(np.argmin(sse))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, grid.size - 1)]

    # golden-section refinement of the bracketed minimum
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _profiled_sse(i, p, c)[0]
    fd = _profiled_sse(i, p, d)[0]
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _profiled_sse(i, p, c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _profiled_sse(i, p, d)[0]
    gamma = float(0.5 * (a + b))
    best_sse, alpha, zeta = _profiled_sse(i, p, gamma)
    if alpha <= 0:
        raise DegenerateDataError("fitted response is not increasing (alpha <= 0)")
    return GammaMap(alpha, gamma, zeta), math.sqrt(best_sse)


@dataclass(frozen=True)
class ChannelGammaMaps:
    """One gamma map per color channel plus one for grayscale."""

    gray: GammaMap
    r: GammaMap
    g: GammaMap
    b: GammaMap

    @classmethod
    def from_dict(cls, maps: dict[str, GammaMap]) -> "ChannelGammaMaps":
        """Maps by channel name: gray is required and a missing color falls
        back to gray."""
        if "gray" not in maps:
            raise DataError("the gray channel is required; other channels fall back to it")
        return cls(*(maps.get(name, maps["gray"]) for name in CHANNEL_NAMES))

    def for_channel(self, channel: str) -> GammaMap:
        return getattr(self, check_channel(channel))


def save_gamma_file(maps: ChannelGammaMaps, path) -> None:
    """Write one ``<channel> <alpha> <gamma> <zeta>`` line per channel."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# gamma map: channel alpha gamma zeta\n")
        for name in CHANNEL_NAMES:
            m = maps.for_channel(name)
            fh.write(f"{name} {float(m.alpha)!r} {float(m.gamma)!r} "
                     f"{float(m.zeta)!r}\n")


def load_gamma_file(path) -> ChannelGammaMaps:
    """Read a gamma map file; channels other than gray default to gray
    (:meth:`ChannelGammaMaps.from_dict`)."""
    found: dict[str, GammaMap] = {}
    for lineno, raw in enumerate(read_ascii(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise MapFormatError("expected: channel alpha gamma zeta", lineno)
        name = parts[0]
        if name in found:
            raise MapFormatError(f"duplicate channel {name!r}", lineno)
        try:
            alpha, gamma, zeta = map(parse_number, parts[1:])
            found[check_channel(name)] = GammaMap(alpha, gamma, zeta)
        except ValueError as exc:
            raise MapFormatError(str(exc), lineno) from exc
    return ChannelGammaMaps.from_dict(found)
