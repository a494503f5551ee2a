"""Sequential baseline estimators for atmospheric light and beta.

Atmospheric light comes from the dark channel of a single image: among the
pixels with the top 0.1 percent dark-channel values, the original rule takes
the maximum image intensity and the modified rule the median. Beta comes
from pairwise inversion of the intensity model within each landmark track:

    beta = ln((i2 - a) / (i1 - a)) / (d1 - d2)

over pairs with enough inverse-depth separation and consistent signs, voted
through a histogram. The unbounded variant keeps every finite value; the
bounded variant first discards values outside the plausible beta range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotEnoughDataError
from .estimator import DEFAULT_BETA_BOUNDS
from .localmap import ObservationSet


DARK_CHANNEL_RADIUS = 3


@dataclass(frozen=True)
class HistogramConfig:
    bin_width: float = 0.001
    min_inverse_depth_gap: float = 0.01   # 1/m between paired observations
    beta_range: Optional[tuple[float, float]] = None  # None = unbounded

    def __post_init__(self):
        if not 0 < self.bin_width < math.inf:
            raise ValueError("bin_width must be positive and finite")
        if not self.min_inverse_depth_gap >= 0:
            raise ValueError("min_inverse_depth_gap must be non-negative")
        if self.beta_range is not None and not self.beta_range[0] < self.beta_range[1]:
            raise ValueError("beta_range must be ordered")

    @classmethod
    def bounded(cls) -> "HistogramConfig":
        return cls(beta_range=DEFAULT_BETA_BOUNDS)


def _min_filter(a: np.ndarray, radius: int) -> np.ndarray:
    """Square min filter with edge clamping (separable)."""
    if radius == 0:
        return a.copy()
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(a, pad, mode="edge")
        shifted = [np.take(padded, np.arange(k, k + a.shape[axis]), axis=axis)
                   for k in range(2 * radius + 1)]
        a = np.minimum.reduce(shifted)
    return a


def dark_channel(image: np.ndarray, radius: int = DARK_CHANNEL_RADIUS) -> np.ndarray:
    """Per-pixel minimum over channels and a (2*radius+1)^2 patch."""
    image = np.asarray(image, dtype=float)
    if image.ndim == 3:
        image = image.min(axis=2)
    elif image.ndim != 2:
        raise ValueError("image must be HxW or HxWx3")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return _min_filter(image, radius)


def _top_dark_pixels(image: np.ndarray, radius: int):
    image = np.asarray(image, dtype=float)
    dc = dark_channel(image, radius)
    flat = dc.ravel()
    count = max(1, int(round(0.001 * flat.size)))
    # stable selection: sort by (dark value desc, flat index asc)
    order = np.lexsort((np.arange(flat.size), -flat))
    idx = order[:count]
    if image.ndim == 3:
        return image.reshape(-1, image.shape[2])[idx]
    return image.ravel()[idx]


def estimate_a_original(image: np.ndarray, radius: int = DARK_CHANNEL_RADIUS):
    """Maximum image intensity among the top-0.1% dark-channel pixels."""
    vals = _top_dark_pixels(image, radius)
    out = vals.max(axis=0)
    return float(out) if np.ndim(out) == 0 else out


def estimate_a_modified(image: np.ndarray, radius: int = DARK_CHANNEL_RADIUS):
    """Median image intensity among the top-0.1% dark-channel pixels."""
    vals = _top_dark_pixels(image, radius)
    out = np.median(vals, axis=0)
    return float(out) if np.ndim(out) == 0 else out


def pairwise_betas(obs: ObservationSet, a: float,
                   config: HistogramConfig = HistogramConfig()) -> np.ndarray:
    """All valid pairwise beta values from intensity-domain observations."""
    values = []
    distances, levels = obs.distance.tolist(), obs.radiance.tolist()
    for first, last in zip(obs.near.tolist(), obs.far.tolist()):
        for i in range(first, last + 1):
            for j in range(i + 1, last + 1):
                d1, d2 = distances[i], distances[j]
                if abs(1.0 / d1 - 1.0 / d2) < config.min_inverse_depth_gap:
                    continue
                num = levels[j] - a
                den = levels[i] - a
                if num == 0 or den == 0 or (num > 0) != (den > 0):
                    continue
                b = math.log(num / den) / (d1 - d2)
                if math.isfinite(b):
                    values.append(b)
    return np.array(values)


def estimate_beta_histogram(obs: ObservationSet, a: float,
                            config: HistogramConfig = HistogramConfig()):
    """Histogram vote over pairwise beta values.

    Returns (beta, (bin centers, counts)); beta is the center of the
    highest-count bin, ties resolved toward the lower bin.
    """
    values = pairwise_betas(obs, a, config)
    if config.beta_range is not None:
        lo, hi = config.beta_range
        values = values[(values >= lo) & (values <= hi)]
    if values.size == 0:
        raise NotEnoughDataError("no valid observation pairs for the beta histogram")
    # bins anchored at zero: value v lands in bin floor(v / width)
    bins = np.floor(values / config.bin_width).astype(int)
    uniq, counts = np.unique(bins, return_counts=True)
    best = uniq[np.argmax(counts)]  # np.argmax takes the first (lowest bin) on ties
    centers = (uniq + 0.5) * config.bin_width
    beta = float((best + 0.5) * config.bin_width)
    return beta, (centers, counts)


def dump_histogram(path, centers: np.ndarray, counts: np.ndarray) -> None:
    """Two-column text dump: bin center, count."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# bin_center count\n")
        for c, k in zip(centers, counts):
            fh.write(f"{float(c)!r} {int(k)}\n")


def load_histogram(path):
    centers, counts = [], []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            c, k = line.split()
            centers.append(float(c))
            counts.append(int(k))
    return np.array(centers), np.array(counts, dtype=int)
