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
from .estimator import EstimatorConfig, EstimatorState, estimate
from .localmap import LocalMapGraph, ObservationSet
from .photometry import ChannelGammaMaps, GammaMap, compress, expand
from .scattering import FogParams, IntensityFogParams, predict_radiance, synthesize_fog_pixel


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
        if self.explicit_distances is None:
            closest = self.start_distance_range[0] - (self.n_frames - 1) * self.frame_spacing
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
        if self.std < 0 or self.outlier_std < 0 or self.offmodel_bias_std < 0:
            raise ValueError("noise levels must be non-negative")
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


def _scene_rngs(seed) -> tuple[np.random.Generator, ...]:
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def _distances(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.explicit_distances is not None:
        return np.asarray(spec.explicit_distances, dtype=float)
    starts = rng.uniform(*spec.start_distance_range, size=spec.n_landmarks)
    steps = np.arange(spec.n_frames) * spec.frame_spacing
    return starts[:, None] - steps[None, :]


def generate_scene(spec: SceneSpec, fog, gmap: GammaMap | ChannelGammaMaps | None,
                   noise: NoiseSpec) -> tuple[LocalMapGraph, GroundTruth]:
    """Simulate one scene as a gray local map graph plus its ground truth.

    ``fog`` in the radiance domain (:class:`FogParams`) draws clear radiances,
    predicts apparent radiances and compresses them through ``gmap``; in the
    intensity domain (:class:`IntensityFogParams`) the linear intensity model
    is used directly and ``gmap`` is ignored.
    """
    rng_vals, rng_dist, rng_noise = _scene_rngs(noise.seed)
    d = _distances(spec, rng_dist)

    if isinstance(fog, FogParams):
        if isinstance(gmap, ChannelGammaMaps):
            gmap = gmap.gray
        if gmap is None:
            raise ValueError("radiance-domain scenes need a gamma map")
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
        truth = GroundTruth(fog.beta, fog.l_inf,
                            {n: float(clear[n]) for n in range(spec.n_landmarks)},
                            "radiance")
    elif isinstance(fog, IntensityFogParams):
        if noise.domain != "intensity":
            raise ValueError("intensity-domain scenes take intensity-domain noise")
        lo, hi = spec.value_range if spec.value_range is not None else (20.0, 235.0)
        clear = rng_vals.uniform(lo, hi, size=spec.n_landmarks)
        intensity = synthesize_fog_pixel(clear[:, None], fog, d)
        intensity = intensity + noise.std * rng_noise.standard_normal(d.shape)
        truth = GroundTruth(fog.beta, fog.a,
                            {n: float(clear[n]) for n in range(spec.n_landmarks)},
                            "intensity")
    else:
        raise ValueError("fog must be FogParams or IntensityFogParams")

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

    graph = LocalMapGraph(n_channels=1)
    for m in range(spec.n_frames):
        graph.add_frame(m, (m * spec.frame_spacing, 0.0, 0.0))
    for n in range(spec.n_landmarks):
        for m in range(spec.n_frames):
            graph.add_edge(m, n, float(d[n, m]), [float(intensity[n, m])])
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


def gamma_bias_experiment(trials: int, beta_gt: float, gmap: GammaMap,
                          noise: NoiseSpec = NoiseSpec(std=1.0, domain="radiance",
                                                       quantize=False),
                          config: EstimatorConfig = EstimatorConfig(),
                          spec: Optional[SceneSpec] = None,
                          a_intensity: float = 178.5) -> GammaBiasResult:
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
    if spec is None:
        # dark landmarks against bright fog: the high-contrast regime where
        # the response nonlinearity matters most
        spec = SceneSpec(n_landmarks=15, n_frames=6,
                         value_range=(expand(gmap, 20.0), expand(gmap, 120.0)),
                         start_distance_range=(60.0, 110.0), frame_spacing=10.0)
    fog = FogParams(beta_gt, expand(gmap, a_intensity))
    lo, hi = spec.value_range if spec.value_range is not None else (
        expand(gmap, 20.0), expand(gmap, 235.0))

    identity = GammaMap.identity()
    landmark, frame = np.indices((spec.n_landmarks, spec.n_frames)).reshape(2, -1)
    pairs: list[tuple[float, float]] = []
    failures = 0
    for t in range(trials):
        seq = np.random.SeedSequence(entropy=noise.seed, spawn_key=(t,))
        rng_vals, rng_dist, rng_noise = (np.random.default_rng(c) for c in seq.spawn(3))
        d = _distances(spec, rng_dist)
        clear = rng_vals.uniform(lo, hi, size=spec.n_landmarks)
        radiance = predict_radiance(clear[:, None], fog, d)
        if noise.domain == "radiance":
            radiance = radiance + noise.std * rng_noise.standard_normal(d.shape)
            intensity = compress(gmap, radiance, clamp=True)
        else:
            intensity = compress(gmap, radiance, clamp=True)
            intensity = np.clip(
                intensity + noise.std * rng_noise.standard_normal(d.shape), 0.0, 255.0)
        if noise.quantize:
            intensity = np.rint(intensity)
        try:
            b_rad = estimate(
                ObservationSet.from_columns(frame, landmark, d.ravel(), radiance.ravel()),
                gmap, EstimatorState(), config).estimate.beta
            b_int = estimate(
                ObservationSet.from_columns(frame, landmark, d.ravel(), intensity.ravel()),
                identity, EstimatorState(), config).estimate.beta
        except DataError:
            failures += 1
            continue
        pairs.append((b_rad, b_int))
    return GammaBiasResult(pairs, failures)
