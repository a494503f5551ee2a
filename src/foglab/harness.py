"""Recovery experiment suite comparing the joint estimator to baselines.

For each visibility level and repeat, one synthetic scene is generated and
every method estimates beta (and the atmospheric value). The joint-solve
variants consume the scene as a frame stream (sequential updates with
carried state); the Li variants are single-shot and get the full map plus a
companion image. Methods:

  ours          two-stage weighted robust solve
  ours-1stage   stage 1 only
  ours-uniform  both stages with unit weights
  li-orig       max-rule atmospheric light + unbounded pairwise histogram
  li-mod        median-rule atmospheric light + bounded pairwise histogram

The Li variants read the atmospheric light off a companion image rendered
from the same fog state (sky region, textured ground, one bright near
object: the classic failure case of the max rule). Per-scenario rows and
per-method summaries are written as CSV; failures are recorded per row
rather than aborting the sweep. Summary metrics are computed per visibility
level (relative forms against that level's ground truth) and averaged over
levels.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import (HistogramConfig, estimate_a_modified, estimate_a_original,
                        estimate_beta_histogram)
from .errors import DataError
from .estimator import EstimatorConfig, EstimatorState, estimate
from .localmap import ObservationSet, generate_dr_pairs
from .metrics import MetricsReport, compute_metrics
from .photometry import GammaMap
from .scattering import IntensityFogParams, beta_from_visibility, quantize_to_u8, \
    synthesize_fog_pixel
from .simulator import NoiseSpec, SceneSpec, generate_scene

METHODS = ("ours", "ours-1stage", "ours-uniform", "li-orig", "li-mod")
SCENARIO_CSV_FIELDS = ("visibility", "repeat", "method",
                       "beta_gt", "beta_est", "a_gt", "a_est", "failed")
SUMMARY_CSV_FIELDS = ("method", "parameter", "rmse", "rmse_rel",
                      "mae", "mae_rel", "sd", "sd_rel", "n")


# atmospheric intensity of the recovery and histogram-demonstration scenes
A_INTENSITY = 204.0


@dataclass(frozen=True)
class RecoveryConfig:
    visibilities: tuple[float, ...] = (30.0, 40.0, 50.0, 60.0, 70.0, 80.0)
    repeats: int = 3
    seed: int = 0
    scene: SceneSpec = field(default_factory=lambda: SceneSpec(
        n_landmarks=40, n_frames=6, start_distance_range=(30.0, 90.0),
        frame_spacing=4.0))
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec(
        std=1.0, quantize=True, outlier_fraction=0.1, outlier_std=40.0))

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError(f"repeats must be at least 1, got {self.repeats}")
        if not self.visibilities:
            raise ValueError("need at least one visibility")


@dataclass
class ScenarioRow:
    visibility: float
    repeat: int
    method: str
    beta_gt: float
    beta_est: float      # nan when failed
    a_gt: float
    a_est: float         # nan when failed
    failed: bool = False


@dataclass
class RecoveryReport:
    rows: list[ScenarioRow]
    summary: dict[tuple[str, str], MetricsReport]   # (method, "beta"|"a")

    def beta_rmse(self, method: str) -> float:
        return self.summary[(method, "beta")].rmse


def _scenario_image(rng: np.random.Generator, fog: IntensityFogParams,
                    noise_std: float) -> np.ndarray:
    """Companion frame: sky band, receding textured ground, one bright
    near object large enough to survive the dark-channel min filter."""
    h, w, sky_rows = 64, 96, 16
    clear = rng.uniform(25.0, 120.0, size=(h, w))
    dmap = np.empty((h, w))
    dmap[:sky_rows, :] = 3000.0
    dmap[sky_rows:, :] = np.linspace(80.0, 5.0, h - sky_rows)[:, None]
    clear[50:57, 60:68] = 250.0
    dmap[50:57, 60:68] = 6.0
    foggy = synthesize_fog_pixel(clear, fog, dmap)
    foggy = foggy + noise_std * rng.standard_normal(foggy.shape)
    return quantize_to_u8(foggy)


def _run_ours(prefixes: list[ObservationSet], config: EstimatorConfig):
    """Sequential updates over the frame stream; scores the final estimate.

    ``prefixes`` holds the observations of the growing frame prefixes, the
    whole map last. The estimator re-runs on each with carried state, the
    way it operates on a live mapping session: warm starts and accumulated
    inlier counts are part of the method.
    """
    state = EstimatorState()
    for obs in prefixes:
        res = estimate(obs, GammaMap.identity(), state, config)
    return res.estimate.beta, res.estimate.l_inf


def run_recovery_suite(config: RecoveryConfig = RecoveryConfig(),
                       out_dir=None) -> RecoveryReport:
    estimator = EstimatorConfig()
    one_stage = replace(estimator, two_stage=False)
    uniform = replace(estimator, uniform_weights=True)

    n_scenarios = len(config.visibilities) * config.repeats
    seeds = np.random.SeedSequence(config.seed).generate_state(2 * n_scenarios)

    rows: list[ScenarioRow] = []
    idx = 0
    for v in config.visibilities:
        beta_gt = beta_from_visibility(v)
        fog = IntensityFogParams(beta_gt, A_INTENSITY)
        for rep in range(config.repeats):
            scene_seed = int(seeds[2 * idx])
            image_rng = np.random.default_rng(int(seeds[2 * idx + 1]))
            idx += 1
            graph, _truth = generate_scene(
                config.scene, fog, None, replace(config.noise, seed=scene_seed))
            # frames are revealed in id order once enough are present; the
            # whole map closes the stream and is what the Li variants see
            frame_ids = sorted(graph.frames)
            obs = generate_dr_pairs(graph, GammaMap.identity(), "gray", estimator.xi_f)
            prefixes = [generate_dr_pairs(graph.frame_subset(frame_ids[:upto]),
                                          GammaMap.identity(), "gray", estimator.xi_f)
                        for upto in range(estimator.xi_f, len(frame_ids))] + [obs]
            image = _scenario_image(image_rng, fog, config.noise.std)
            a_orig = estimate_a_original(image)
            a_mod = estimate_a_modified(image)

            runs = (
                ("ours", lambda: _run_ours(prefixes, estimator)),
                ("ours-1stage", lambda: _run_ours(prefixes, one_stage)),
                ("ours-uniform", lambda: _run_ours(prefixes, uniform)),
                ("li-orig", lambda: (
                    estimate_beta_histogram(obs, a_orig)[0], a_orig)),
                ("li-mod", lambda: (
                    estimate_beta_histogram(obs, a_mod, HistogramConfig.bounded())[0],
                    a_mod)),
            )
            for name, run in runs:
                try:
                    beta_est, a_est = run()
                    rows.append(ScenarioRow(v, rep, name, beta_gt, beta_est,
                                            A_INTENSITY, a_est))
                except DataError:
                    rows.append(ScenarioRow(v, rep, name, beta_gt, math.nan,
                                            A_INTENSITY, math.nan, failed=True))

    report = RecoveryReport(rows, _summarize(rows, config))
    if out_dir is not None:
        import os
        os.makedirs(out_dir, exist_ok=True)
        write_scenario_csv(os.path.join(out_dir, "scenarios.csv"), rows)
        write_summary_csv(os.path.join(out_dir, "summary.csv"), report.summary)
    return report


def _summarize(rows: list[ScenarioRow],
               config: RecoveryConfig) -> dict[tuple[str, str], MetricsReport]:
    summary: dict[tuple[str, str], MetricsReport] = {}
    for method in METHODS:
        for param in ("beta", "a"):
            per_level: list[MetricsReport] = []
            for v in config.visibilities:
                ok = [r for r in rows
                      if r.method == method and r.visibility == v and not r.failed]
                if not ok:
                    continue
                if param == "beta":
                    per_level.append(compute_metrics([r.beta_est for r in ok],
                                                     ok[0].beta_gt))
                else:
                    per_level.append(compute_metrics([r.a_est for r in ok],
                                                     ok[0].a_gt))
            if not per_level:
                continue
            summary[(method, param)] = MetricsReport(
                rmse=float(np.mean([m.rmse for m in per_level])),
                mae=float(np.mean([m.mae for m in per_level])),
                sd=float(np.mean([m.sd for m in per_level])),
                rmse_rel=float(np.mean([m.rmse_rel for m in per_level])),
                mae_rel=float(np.mean([m.mae_rel for m in per_level])),
                sd_rel=float(np.mean([m.sd_rel for m in per_level])),
                n=int(sum(m.n for m in per_level)))
    return summary


# --- bounded vs unbounded histogram demonstration ---------------------------

# Near landmarks carry the real distance-intensity signal. Far landmarks are
# seen from a close pass and a fog-opaque background position: their
# quantized intensities differ by at most a level or two over a huge
# distance baseline, so their pairwise estimates pile up around zero.
_DEMO_NEAR = SceneSpec(n_landmarks=80, n_frames=6, value_range=(50.0, 70.0),
                       start_distance_range=(25.0, 31.0), frame_spacing=4.0)
_DEMO_FAR = SceneSpec(n_landmarks=30, n_frames=6, value_range=(50.0, 70.0),
                      explicit_distances=np.tile((470.0, 450.0, 430.0, 62.0, 60.0, 58.0),
                                                 (30, 1)))


@dataclass(frozen=True)
class HistogramDemoConfig:
    """A scene with a fog-washed background that breaks the unbounded histogram.

    The atmospheric value handed to the pairwise estimator is deliberately
    off by ``a_perturbation`` intensity levels, emulating an upstream
    dark-channel error.
    """
    visibility: float = 30.0
    a_perturbation: float = 4.0
    noise_std: float = 1.0
    seed: int = 0


@dataclass
class HistogramDemoResult:
    beta_gt: float
    a_used: float                       # perturbed value fed to the baseline
    unbounded_beta: float
    bounded_beta: float
    unbounded_hist: tuple[np.ndarray, np.ndarray]
    bounded_hist: tuple[np.ndarray, np.ndarray]
    n_pairs_unbounded: int
    n_pairs_bounded: int


def _merge_observations(first: ObservationSet, second: ObservationSet) -> ObservationSet:
    offset = 1 + max(first.landmark_ids)
    return ObservationSet.from_columns(
        np.concatenate((first.frame, second.frame)),
        np.concatenate((first.landmark, second.landmark + offset)),
        np.concatenate((first.distance, second.distance)),
        np.concatenate((first.radiance, second.radiance)))


def run_histogram_demo(config: HistogramDemoConfig = HistogramDemoConfig()) -> HistogramDemoResult:
    beta_gt = beta_from_visibility(config.visibility)
    fog = IntensityFogParams(beta_gt, A_INTENSITY)
    seed_near, seed_far = np.random.SeedSequence(config.seed).generate_state(2)
    graph_near, _ = generate_scene(_DEMO_NEAR, fog, None, NoiseSpec(
        std=config.noise_std, quantize=True, seed=int(seed_near)))
    graph_far, _ = generate_scene(_DEMO_FAR, fog, None, NoiseSpec(
        std=config.noise_std, quantize=True, seed=int(seed_far)))
    obs = _merge_observations(
        generate_dr_pairs(graph_near, GammaMap.identity(), "gray"),
        generate_dr_pairs(graph_far, GammaMap.identity(), "gray"))

    a_used = A_INTENSITY + config.a_perturbation
    beta_u, hist_u = estimate_beta_histogram(obs, a_used)
    beta_b, hist_b = estimate_beta_histogram(obs, a_used, HistogramConfig.bounded())
    return HistogramDemoResult(
        beta_gt=beta_gt, a_used=a_used,
        unbounded_beta=beta_u, bounded_beta=beta_b,
        unbounded_hist=hist_u, bounded_hist=hist_b,
        n_pairs_unbounded=int(hist_u[1].sum()),
        n_pairs_bounded=int(hist_b[1].sum()))


def write_scenario_csv(path, rows: list[ScenarioRow]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCENARIO_CSV_FIELDS)
        for r in rows:
            writer.writerow([repr(r.visibility), r.repeat, r.method,
                             repr(r.beta_gt), repr(r.beta_est),
                             repr(r.a_gt), repr(r.a_est), int(r.failed)])


def load_scenario_csv(path) -> list[ScenarioRow]:
    rows = []
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != SCENARIO_CSV_FIELDS:
            raise ValueError(f"unexpected scenario csv header {header}")
        for rec in reader:
            rows.append(ScenarioRow(float(rec[0]), int(rec[1]), rec[2],
                                    float(rec[3]), float(rec[4]),
                                    float(rec[5]), float(rec[6]),
                                    bool(int(rec[7]))))
    return rows


def write_summary_csv(path, summary: dict[tuple[str, str], MetricsReport]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_CSV_FIELDS)
        for (method, param), m in sorted(summary.items()):
            writer.writerow([method, param, repr(m.rmse), repr(m.rmse_rel),
                             repr(m.mae), repr(m.mae_rel),
                             repr(m.sd), repr(m.sd_rel), m.n])


def load_summary_csv(path) -> dict[tuple[str, str], MetricsReport]:
    summary = {}
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != SUMMARY_CSV_FIELDS:
            raise ValueError(f"unexpected summary csv header {header}")
        for rec in reader:
            summary[(rec[0], rec[1])] = MetricsReport(
                rmse=float(rec[2]), rmse_rel=float(rec[3]),
                mae=float(rec[4]), mae_rel=float(rec[5]),
                sd=float(rec[6]), sd_rel=float(rec[7]), n=int(rec[8]))
    return summary
