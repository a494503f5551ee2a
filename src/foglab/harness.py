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
import itertools
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import HistogramConfig, estimate_a, estimate_beta_histogram
from .errors import DataError, NotEnoughDataError
from .estimator import EstimatorConfig, EstimatorState, estimate
from .localmap import ObservationSet, generate_dr_pairs
from .metrics import MetricsReport, compute_metrics
from .photometry import GammaMap
from .scattering import IntensityFogParams, beta_from_visibility, check_atmospheric_intensity, \
    quantize_to_u8, synthesize_fog_image
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
        if len(set(self.visibilities)) < len(self.visibilities):
            raise ValueError(f"visibilities must not repeat, got {self.visibilities}")


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
        if method in METHODS and (method, "beta") not in self.summary:
            raise NotEnoughDataError(f"{method} failed in every scenario")
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
    foggy = synthesize_fog_image(clear, dmap, fog)
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


def _or_none(run):
    """``run()``, or None where it raises a DataError: a failed row."""
    try:
        return run()
    except DataError:
        return None


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot tell or cannot fork."""
    from multiprocessing import get_all_start_methods
    if hasattr(os, "sched_getaffinity") and "fork" in get_all_start_methods():
        return len(os.sched_getaffinity(0))
    return 1


def _run_streams(jobs: list) -> list:
    """``(beta, l_inf)`` of each ``(prefixes, config)`` stream in ``jobs``, or
    None where it raised a DataError, on every usable CPU: this process runs
    the first of one contiguous run per CPU, and a forked worker, started
    from this process's memory, each other. No pool or executor: they start
    threads, and a process with threads must not fork."""
    import multiprocessing

    def outcomes(run):
        try:
            return [_or_none(lambda: _run_ours(*job)) for job in run]
        except Exception as exc:        # raised below, once every worker is joined
            return exc

    n = max(1, min(_usable_cpus(), len(jobs)))
    cuts = [(len(jobs) * k + n - 1) // n for k in range(n + 1)]
    workers = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            receive, send = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.get_context("fork").Process(
                target=lambda run=jobs[lo:hi], conn=send: conn.send(outcomes(run)))
            workers.append((worker, receive))
            worker.start()
            send.close()
        parts = [outcomes(jobs[:cuts[1]])] + [receive.recv() for _, receive in workers]
    finally:
        for worker, receive in workers:
            receive.close()             # a worker still sending then stops
            worker.join()
    for part in parts:
        if isinstance(part, Exception):
            raise part
    return [outcome for part in parts for outcome in part]


def run_recovery_suite(config: RecoveryConfig = RecoveryConfig(),
                       out_dir=None) -> RecoveryReport:
    estimator = EstimatorConfig()
    one_stage = replace(estimator, two_stage=False)
    uniform = replace(estimator, uniform_weights=True)

    grid = list(itertools.product(config.visibilities, range(config.repeats)))
    seeds = np.random.SeedSequence(config.seed).generate_state(2 * len(grid))
    scenarios, jobs = [], []
    for (v, rep), (scene_seed, image_seed) in zip(grid, seeds.reshape(-1, 2).tolist()):
        fog = IntensityFogParams(beta_from_visibility(v), A_INTENSITY)
        graph, _truth = generate_scene(
            config.scene, fog, None, replace(config.noise, seed=scene_seed))
        # frames are revealed in id order once xi_f are present (a shorter
        # scene all at once); the whole map, the last prefix, closes the
        # stream and is what the Li variants see
        frame_ids = sorted(graph.frames)
        prefixes = [generate_dr_pairs(graph.frame_subset(frame_ids[:upto]),
                                      GammaMap.identity(), "gray", estimator.xi_f)
                    for upto in range(min(estimator.xi_f, len(frame_ids)),
                                      len(frame_ids) + 1)]
        image = _scenario_image(np.random.default_rng(image_seed), fog, config.noise.std)
        scenarios.append((v, rep, fog.beta, prefixes[-1], *estimate_a(image)))
        jobs += [(prefixes, estimator), (prefixes, one_stage), (prefixes, uniform)]

    streams = _run_streams(jobs)
    rows: list[ScenarioRow] = []
    for k, (v, rep, beta_gt, obs, a_orig, a_mod) in enumerate(scenarios):
        outcomes = streams[3 * k:3 * k + 3] + [
            _or_none(lambda: (estimate_beta_histogram(obs, a, cfg)[0], a))
            for a, cfg in ((a_orig, HistogramConfig()), (a_mod, HistogramConfig.bounded()))]
        for name, outcome in zip(METHODS, outcomes):
            beta_est, a_est = (math.nan, math.nan) if outcome is None else outcome
            rows.append(ScenarioRow(v, rep, name, beta_gt, beta_est,
                                    A_INTENSITY, a_est, failed=outcome is None))

    report = RecoveryReport(rows, _summarize(rows, config))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_scenario_csv(os.path.join(out_dir, "scenarios.csv"), rows)
        write_summary_csv(os.path.join(out_dir, "summary.csv"), report.summary)
    return report


def _summarize(rows: list[ScenarioRow],
               config: RecoveryConfig) -> dict[tuple[str, str], MetricsReport]:
    """Per (method, parameter): each metric averaged over the visibility
    levels where the method has successful rows, ``n`` summed."""
    summary: dict[tuple[str, str], MetricsReport] = {}
    for method, param in itertools.product(METHODS, ("beta", "a")):
        per_level = [compute_metrics([getattr(r, f"{param}_est") for r in ok],
                                     getattr(ok[0], f"{param}_gt"))
                     for v in config.visibilities
                     if (ok := [r for r in rows
                                if r.method == method and r.visibility == v and not r.failed])]
        if per_level:
            summary[(method, param)] = MetricsReport(**{
                f.name: float(np.mean([getattr(m, f.name) for m in per_level]))
                for f in fields(MetricsReport)} | {"n": sum(m.n for m in per_level)})
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

    def __post_init__(self):
        check_atmospheric_intensity(A_INTENSITY + self.a_perturbation)


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


def write_csv(path, header, rows) -> None:
    """``header``, then each of ``rows``, as ASCII CSV; a float is written as
    its ``repr``, which is Python's ``str`` of a float."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_scenario_csv(path, rows: list[ScenarioRow]) -> None:
    write_csv(path, SCENARIO_CSV_FIELDS,
              ([getattr(r, name) for name in SCENARIO_CSV_FIELDS[:-1]] + [int(r.failed)]
               for r in rows))


def write_summary_csv(path, summary: dict[tuple[str, str], MetricsReport]) -> None:
    write_csv(path, SUMMARY_CSV_FIELDS,
              ([method, param] + [getattr(m, name) for name in SUMMARY_CSV_FIELDS[2:]]
               for (method, param), m in sorted(summary.items())))
