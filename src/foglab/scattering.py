"""Atmospheric scattering forward model.

Radiance domain: an object with clear-air radiance ``lc`` seen through fog
with scattering coefficient ``beta`` at distance ``d`` has apparent radiance

    L = lc * t + l_inf * (1 - t),   t = exp(-beta * d)

where ``l_inf`` is the radiance of the horizon fog (atmospheric light).
The same relation holds between 8-bit intensities ``j``/``a`` when the camera
response is linear; :func:`synthesize_fog_pixel` uses that intensity form.

Meteorological optical range (visibility) is the distance at which the
transmission drops to 5 percent, so ``v = -ln(0.05) / beta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# transmission threshold defining the meteorological optical range
MOR_TRANSMISSION = 0.05
_LN_MOR = -math.log(MOR_TRANSMISSION)

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def luma(values: np.ndarray) -> np.ndarray:
    """The gray value of r, g, b values along the last axis."""
    w = LUMA_WEIGHTS
    return w[0] * values[..., 0] + w[1] * values[..., 1] + w[2] * values[..., 2]


@dataclass(frozen=True)
class FogParams:
    """Fog state in the radiance domain."""

    beta: float
    l_inf: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.l_inf):
            raise ValueError(f"l_inf must be finite, got {self.l_inf}")

    @property
    def visibility(self) -> float:
        return visibility_from_beta(self.beta)


@dataclass(frozen=True)
class IntensityFogParams:
    """Fog state in the 8-bit intensity domain (linear camera)."""

    beta: float
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        check_atmospheric_intensity(self.a)


def check_atmospheric_intensity(a: float) -> float:
    """``a`` if it is an 8-bit atmospheric intensity, in [0, 255];
    ValueError otherwise."""
    if not (0.0 <= a <= 255.0):
        raise ValueError(f"atmospheric intensity must lie in [0, 255], got {a}")
    return a


def _check_distance(d) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    # NaN fails both tests
    if d.size and not (np.minimum.reduce(d, axis=None) >= 0
                       and np.maximum.reduce(d, axis=None) < np.inf):
        raise ValueError("distances must be finite and non-negative")
    return d


def transmission(beta: float, d):
    """Fraction of object radiance surviving a path of length ``d``."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    t = np.exp(-beta * _check_distance(d))
    return float(t) if np.isscalar(d) or np.ndim(d) == 0 else t


def visibility_from_beta(beta: float) -> float:
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return _LN_MOR / beta


def beta_from_visibility(v: float) -> float:
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"visibility must be positive and finite, got {v}")
    return _LN_MOR / v


def predict_radiance(lc, params: FogParams, d):
    """Apparent radiance of an object with clear radiance ``lc`` at distance ``d``."""
    t = transmission(params.beta, d)
    out = np.asarray(lc, dtype=float) * t + params.l_inf * (1.0 - np.asarray(t))
    return float(out) if np.ndim(out) == 0 else out


def synthesize_fog_pixel(j, params: IntensityFogParams, d):
    """Foggy intensity of a clear pixel ``j``; convex combination of j and a."""
    j = np.asarray(j, dtype=float)
    if not np.all((j >= 0) & (j <= 255)):
        raise ValueError("clear intensities must lie in [0, 255]")
    return predict_radiance(j, FogParams(params.beta, params.a), d)


def synthesize_fog_image(clear: np.ndarray, distance_map: np.ndarray, params) -> np.ndarray:
    """Apply fog to a clear image given per-pixel distances.

    ``clear`` is HxW (gray) or HxWx3; ``params`` is a single
    :class:`IntensityFogParams` for every channel or a sequence of one per
    channel. Returns a float array; quantize explicitly with :func:`quantize_to_u8`.
    """
    clear = np.asarray(clear, dtype=float)
    if clear.ndim not in (2, 3) or clear.shape[2:] not in ((), (3,)):
        raise ValueError("clear image must be HxW or HxWx3")
    if np.shape(distance_map) != clear.shape[:2]:
        raise ValueError("distance map shape must match the image")
    channels = np.atleast_3d(clear)
    n = channels.shape[2]
    per_channel = [params] * n if isinstance(params, IntensityFogParams) else list(params)
    if len(per_channel) != n:
        raise ValueError(f"one parameter set per channel ({n}) expected, got {len(per_channel)}")
    out = np.stack([synthesize_fog_pixel(channels[..., c], p, distance_map)
                    for c, p in enumerate(per_channel)], axis=-1)
    return out.reshape(clear.shape)


def quantize_to_u8(image: np.ndarray) -> np.ndarray:
    """Round to the nearest 8-bit level, clamping to [0, 255]."""
    image = np.asarray(image, dtype=float)
    if not np.all(np.isfinite(image)):
        raise ValueError("image must be finite")
    return np.clip(np.rint(image), 0, 255).astype(np.uint8)

