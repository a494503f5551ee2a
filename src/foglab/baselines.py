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
    """Square min filter with edge clamping (separable): the minimum over the
    shifted slices of the edge-padded image, rows then columns. Each axis's
    radius is cut to its extent, past which a window adds nothing."""
    h, w = a.shape
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    padded = np.pad(a, ((ry, ry), (rx, rx)), mode="edge")
    rows = np.minimum.reduce([padded[k:k + h] for k in range(2 * ry + 1)])
    return np.minimum.reduce([rows[:, k:k + w] for k in range(2 * rx + 1)])


def dark_channel(image: np.ndarray, radius: int = DARK_CHANNEL_RADIUS) -> np.ndarray:
    """Per-pixel minimum over channels and a (2*radius+1)^2 patch."""
    image = np.asarray(image, dtype=float)
    if image.ndim == 3:
        image = image.min(axis=2)
    elif image.ndim != 2:
        raise ValueError("image must be HxW or HxWx3")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if image.size == 0:
        raise ValueError("image must not be empty")
    return _min_filter(image, radius)


def estimate_a(image: np.ndarray, radius: int = DARK_CHANNEL_RADIUS):
    """Atmospheric light by the original and the modified rule, from one
    dark-channel pass: (maximum, median) image intensity among the pixels
    with the top-0.1% dark-channel values, per channel for a color image."""
    image = np.asarray(image, dtype=float)
    flat = dark_channel(image, radius).ravel()
    count = max(1, int(round(0.001 * flat.size)))
    # stable selection: sort by (dark value desc, flat index asc)
    idx = np.argsort(-flat, kind="stable")[:count]
    vals = image.reshape(flat.size, *image.shape[2:])[idx]
    out = (vals.max(axis=0), np.median(vals, axis=0))
    return out if image.ndim == 3 else tuple(map(float, out))


# perfbench's span table looks these names up; each gives one rule of estimate_a
def estimate_a_original(image: np.ndarray, radius: int = DARK_CHANNEL_RADIUS):
    return estimate_a(image, radius)[0]


def estimate_a_modified(image: np.ndarray, radius: int = DARK_CHANNEL_RADIUS):
    return estimate_a(image, radius)[1]


def pairwise_betas(obs: ObservationSet, a: float,
                   config: HistogramConfig = HistogramConfig()) -> np.ndarray:
    """All valid pairwise beta values from intensity-domain observations,
    over each landmark's row pairs i < j in (landmark, i, j) order; pairs at
    equal distance carry no beta and are skipped."""
    if np.ndim(a) or not math.isfinite(a):
        raise ValueError(f"pairwise betas take one finite atmospheric value, got {a}")
    n = obs.n_observations
    partners = obs.far[obs.slot] - np.arange(n)
    i = np.repeat(np.arange(n), partners)
    # j runs from i + 1 to the last row of i's landmark
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(partners) - partners, partners)
    d1, d2 = obs.distance[i], obs.distance[j]
    num, den = obs.radiance[j] - a, obs.radiance[i] - a
    keep = ((np.abs(1.0 / d1 - 1.0 / d2) >= config.min_inverse_depth_gap) & (d1 != d2)
            & (num != 0) & (den != 0) & ((num > 0) == (den > 0)))
    # math.log, not np.log: np.log differs in the last bit on some ratios
    logs = np.array([math.log(r) for r in (num[keep] / den[keep]).tolist()])
    values = logs / (d1[keep] - d2[keep])
    return values[np.isfinite(values)]


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
    # bins anchored at zero: value v lands in bin floor(v / width), kept a
    # float so that a tiny width cannot overflow an integer cast
    with np.errstate(over="ignore"):
        bins = np.floor(values / config.bin_width)
    if not np.all(np.isfinite(bins)):
        raise ValueError(f"bin_width {config.bin_width!r} is too small: a beta value "
                         "over it is not finite")
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
