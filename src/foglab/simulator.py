"""Synthetic landmark scenes with controlled fog, noise and quantization.

A scene is a set of landmarks approached along a straight trajectory: each
landmark gets a clear radiance and a per-frame distance schedule, apparent
radiances follow the scattering model, and the camera response maps them to
intensities. Noise can be injected in the intensity domain (default) or in
the radiance domain before compression; quantization to 8-bit levels is
optional. Everything is driven by one seed, and per-trial seeds are derived
from (seed, trial index), so runs are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError
from .estimator import EstimatorState, estimate
from .localmap import LocalMapGraph, ObservationSet
from .photometry import GammaMap, compress, expand
from .scattering import FogParams, IntensityFogParams, predict_radiance


@dataclass(frozen=True)
class SceneSpec:
    n_landmarks: int = 20
    n_frames: int = 6
    # clear values drawn uniformly; None = full sensor range with margins,
    # i.e. intensities [20, 235] pushed through the gamma map
    value_range: Optional[tuple[float, float]] = None
    start_distance_range: tuple[float, float] = (30.0, 90.0)
    frame_spacing: float = 4.0
    explicit_distances: Optional[np.ndarray] = None   # (n_landmarks, n_frames)

    def __post_init__(self):
        if self.n_landmarks < 1 or self.n_frames < 2:
            raise ValueError("need at least 1 landmark and 2 frames")
        start_min, start_max = self.start_distance_range
        if not -np.inf < start_min <= start_max < np.inf:
            raise ValueError("start_distance_range must be finite and ordered")
        if not np.isfinite(self.frame_spacing):
            raise ValueError("frame_spacing must be finite")
        if self.explicit_distances is None:
            closest = start_min - (self.n_frames - 1) * self.frame_spacing
            if closest <= 0:
                raise ValueError("distance schedule reaches zero; raise start distances")
        else:
            d = np.asarray(self.explicit_distances, dtype=float)
            if d.shape != (self.n_landmarks, self.n_frames):
                raise ValueError("explicit_distances must be (n_landmarks, n_frames)")
            if np.any(d <= 0) or not np.all(np.isfinite(d)):
                raise ValueError("distances must be positive and finite")


@dataclass(frozen=True)
class NoiseSpec:
    std: float = 1.0
    seed: int = 0
    quantize: bool = True
    domain: str = "intensity"           # "intensity" | "radiance"
    outlier_fraction: float = 0.0       # intensity-domain gross corruption
    outlier_std: float = 0.0
    # off-model landmarks: a fraction of landmarks whose every observation
    # carries one persistent intensity bias (specular or misassociated
    # surfaces look like this: wrong in the same way in every frame)
    offmodel_fraction: float = 0.0
    offmodel_bias_std: float = 0.0

    def __post_init__(self):
        if not all(0 <= s < np.inf
                   for s in (self.std, self.outlier_std, self.offmodel_bias_std)):
            raise ValueError("noise levels must be finite and non-negative")
        if self.domain not in ("intensity", "radiance"):
            raise ValueError("noise domain must be 'intensity' or 'radiance'")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1]")
        if not 0.0 <= self.offmodel_fraction <= 1.0:
            raise ValueError("offmodel_fraction must lie in [0, 1]")


@dataclass
class GroundTruth:
    beta: float
    atmospheric: float                 # l_inf or a, per domain
    clear: dict[int, float]            # per-landmark lc or j, per domain
    domain: str                        # "radiance" | "intensity"


def _sample(spec: SceneSpec, fog: FogParams, gmap: GammaMap, noise: NoiseSpec,
            spawn_key: tuple[int, ...] = ()):
    """Draw one scene as (n_landmarks, n_frames) distances, radiances and
    intensities, plus the clear radiance of each landmark. Radiance-domain
    noise stays in the radiances; the intensities carry every corruption.
    The draws come from ``noise.seed``, spawned by ``spawn_key`` per trial."""
    seq = np.random.SeedSequence(noise.seed, spawn_key=spawn_key)
    rng_vals, rng_dist, rng_noise = (np.random.default_rng(c) for c in seq.spawn(3))
    if spec.explicit_distances is not None:
        d = np.asarray(spec.explicit_distances, dtype=float)
    else:
        starts = rng_dist.uniform(*spec.start_distance_range, size=spec.n_landmarks)
        d = starts[:, None] - (np.arange(spec.n_frames) * spec.frame_spacing)[None, :]
    if spec.value_range is not None:
        lo, hi = spec.value_range
    else:
        lo, hi = expand(gmap, 20.0), expand(gmap, 235.0)
    clear = rng_vals.uniform(lo, hi, size=spec.n_landmarks)
    radiance = predict_radiance(clear[:, None], fog, d)
    if noise.domain == "radiance":
        radiance = radiance + noise.std * rng_noise.standard_normal(d.shape)
    intensity = compress(gmap, radiance, clamp=True)
    if noise.domain == "intensity":
        intensity = intensity + noise.std * rng_noise.standard_normal(d.shape)
    if noise.outlier_fraction > 0:
        hit = rng_noise.random(d.shape) < noise.outlier_fraction
        intensity = intensity + hit * noise.outlier_std * rng_noise.standard_normal(d.shape)
    n_bad = int(round(noise.offmodel_fraction * spec.n_landmarks))
    if n_bad:
        bad = rng_noise.choice(spec.n_landmarks, size=n_bad, replace=False)
        bias = noise.offmodel_bias_std * rng_noise.standard_normal(n_bad)
        intensity[bad, :] = intensity[bad, :] + bias[:, None]
    intensity = np.clip(intensity, 0.0, 255.0)
    if noise.quantize:
        intensity = np.rint(intensity)
    return d, clear, radiance, intensity


def generate_scene(spec: SceneSpec, fog, gmap: GammaMap | None,
                   noise: NoiseSpec) -> tuple[LocalMapGraph, GroundTruth]:
    """Simulate one scene as a gray local map graph plus its ground truth.

    ``fog`` in the radiance domain (:class:`FogParams`) draws clear radiances,
    predicts apparent radiances and compresses them through ``gmap``. In the
    intensity domain (:class:`IntensityFogParams`) ``gmap`` is ignored: the
    scene is the radiance scene of ``FogParams(beta, a)`` under the identity
    map, whose radiances are intensities, so both give the same edges; only
    the ground truth's domain differs.
    """
    if isinstance(fog, IntensityFogParams):
        if noise.domain != "intensity":
            raise ValueError("intensity-domain scenes take intensity-domain noise")
        if spec.value_range is not None and \
                not all(0.0 <= v <= 255.0 for v in spec.value_range):
            raise ValueError("clear intensities must lie in [0, 255]")
        fog, gmap, domain = FogParams(fog.beta, fog.a), GammaMap.identity(), "intensity"
    elif isinstance(fog, FogParams):
        if gmap is None:
            raise ValueError("radiance-domain scenes need a gamma map")
        domain = "radiance"
    else:
        raise ValueError("fog must be FogParams or IntensityFogParams")

    d, clear, _, intensity = _sample(spec, fog, gmap, noise)
    truth = GroundTruth(fog.beta, fog.l_inf,
                        {n: float(clear[n]) for n in range(spec.n_landmarks)}, domain)
    landmark, frame = np.indices(d.shape).reshape(2, -1)
    graph = LocalMapGraph.from_edges(
        frame, landmark, d.ravel(), intensity.reshape(-1, 1),
        frames={m: (m * spec.frame_spacing, 0.0, 0.0) for m in range(spec.n_frames)})
    return graph, truth


@dataclass
class GammaBiasResult:
    pairs: list[tuple[float, float]]    # (beta from radiances, beta from intensities)
    failures: int

    @property
    def radiance_betas(self) -> np.ndarray:
        return np.array([p[0] for p in self.pairs])

    @property
    def intensity_betas(self) -> np.ndarray:
        return np.array([p[1] for p in self.pairs])


# atmospheric intensity a of the gamma-bias scene
GAMMA_BIAS_A_INTENSITY = 178.5


def gamma_bias_experiment(trials: int, beta_gt: float, gmap: GammaMap,
                          noise: NoiseSpec = NoiseSpec(std=1.0, domain="radiance",
                                                       quantize=False)) -> GammaBiasResult:
    """Estimate beta per trial from radiance data and from the same data
    expressed as intensities, ignoring the camera response.

    Clean radiances follow the scattering model with l_inf = expand(a), get
    Gaussian noise (radiance domain by default), and are compressed through
    ``gmap`` to intensities. The radiance variant runs the estimator with the
    true response ``gmap``; the intensity variant treats intensities as
    radiances under an identity map. Failed trials are counted, not raised.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    # dark landmarks against bright fog: the high-contrast regime where the
    # response nonlinearity matters most
    spec = SceneSpec(n_landmarks=15, n_frames=6,
                     value_range=(expand(gmap, 20.0), expand(gmap, 120.0)),
                     start_distance_range=(60.0, 110.0), frame_spacing=10.0)
    fog = FogParams(beta_gt, expand(gmap, GAMMA_BIAS_A_INTENSITY))

    identity = GammaMap.identity()
    landmark, frame = np.indices((spec.n_landmarks, spec.n_frames)).reshape(2, -1)
    pairs: list[tuple[float, float]] = []
    failures = 0
    for t in range(trials):
        d, _, radiance, intensity = _sample(spec, fog, gmap, noise, (t,))
        try:
            b_rad = estimate(
                ObservationSet.from_columns(frame, landmark, d.ravel(), radiance.ravel()),
                gmap, EstimatorState()).estimate.beta
            b_int = estimate(
                ObservationSet.from_columns(frame, landmark, d.ravel(), intensity.ravel()),
                identity, EstimatorState()).estimate.beta
        except DataError:
            failures += 1
            continue
        pairs.append((b_rad, b_int))
    return GammaBiasResult(pairs, failures)
