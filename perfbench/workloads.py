"""The four benchmark workloads.

Each workload builds its inputs from one seed in ``setup`` and then runs ops
by index: op ``i`` always does the same work for a given seed, so a traced
pass can replay an untraced one op for op. Library calls go through module
attributes (``localmap.load_map`` rather than an imported name) so that the
traced run's wrappers see them. Why each workload exists is in README.md.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from foglab import estimator, harness, localmap, simulator
from foglab.estimator import EstimatorConfig, EstimatorState
from foglab.harness import RecoveryConfig
from foglab.photometry import GammaMap
from foglab.scattering import IntensityFogParams, beta_from_visibility
from foglab.simulator import NoiseSpec, SceneSpec

VISIBILITIES = (30.0, 40.0, 50.0, 60.0, 70.0, 80.0)
BETA_BOUNDS = EstimatorConfig().beta_bounds
IDENTITY = GammaMap.identity()


def derive_seed(seed: int, *key: int) -> int:
    """Independent 32-bit seed for one input, derived from the run seed."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


@dataclass
class OpResult:
    betas: list[float]                   # every joint-estimator beta of the op
    errors: list[float]                  # |beta - truth| / truth, for accuracy
    failed: bool = False
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed, self.smoke, self.workdir = seed, smoke, workdir

    def setup(self) -> None:
        """Build every input of the run; called several times, each timed."""

    def runner(self):
        """A fresh op function ``op(i) -> OpResult`` with its own state."""
        raise NotImplementedError

    def check(self, results: list[OpResult]) -> list[str]:
        """Workload-specific correctness problems; empty when all is well."""
        return []


def _fog_scene(spec: SceneSpec, visibility: float, seed: int):
    fog = IntensityFogParams(beta_from_visibility(visibility), 204.0)
    noise = NoiseSpec(std=1.0, seed=seed, quantize=True,
                      outlier_fraction=0.05, outlier_std=40.0)
    return simulator.generate_scene(spec, fog, None, noise)


def _map_estimate(path: str, state: EstimatorState, beta_gt: float) -> OpResult:
    """What ``foglab estimate`` does for one map file."""
    graph = localmap.load_map(path)
    obs = localmap.generate_dr_pairs(graph, IDENTITY)
    res = estimator.estimate(obs, IDENTITY, state)
    beta = res.estimate.beta
    return OpResult([beta], [abs(beta - beta_gt) / beta_gt])


class Stream(Workload):
    """Online vehicle path: one update per two newly revealed frames of a scene.

    Scenes run in groups of one per visibility, served in turn: op ``i``
    makes the next update of the next scene of the current group, each scene
    carrying its own EstimatorState. Wherever a run stops, it has covered
    every visibility and map size about equally. After the last group the
    sequence starts over with fresh states, so a faster program simply runs
    more updates of the same sequence.
    """

    name = "stream"

    def __init__(self, *args):
        super().__init__(*args)
        self.n_scenes = 2 if self.smoke else 3 * len(VISIBILITIES)
        self.group = 2 if self.smoke else len(VISIBILITIES)
        self.n_landmarks = 16 if self.smoke else 40
        self.n_frames = 8 if self.smoke else 30
        # frame counts that get an update: from the first count with an
        # estimate, every other frame, as the default 5 m update gate of
        # ``foglab estimate`` does at 4 m frame spacing
        self.prefixes = list(range(EstimatorConfig().xi_f, self.n_frames + 1, 2))

    def setup(self) -> None:
        spec = SceneSpec(n_landmarks=self.n_landmarks, n_frames=self.n_frames,
                         start_distance_range=(130.0, 200.0), frame_spacing=4.0)
        self.paths, self.beta_gt = [], []
        for s in range(self.n_scenes):
            v = VISIBILITIES[s % len(VISIBILITIES)]
            graph, truth = _fog_scene(spec, v, derive_seed(self.seed, 0, s))
            frames = sorted(graph.frames)
            paths = []
            for upto in self.prefixes:
                path = os.path.join(self.workdir, f"s{s:02d}_m{upto:02d}.map")
                localmap.save_map(graph.frame_subset(frames[:upto]), path)
                paths.append(path)
            self.paths.append(paths)
            self.beta_gt.append(truth.beta)

    def runner(self):
        states: dict[int, EstimatorState] = {}
        per_group = self.group * len(self.prefixes)

        def op(i: int) -> OpResult:
            g, j = divmod(i % (self.n_scenes * len(self.prefixes)), per_group)
            u, k = divmod(j, self.group)
            s = g * self.group + k
            if u == 0:
                states[s] = EstimatorState()
            return _map_estimate(self.paths[s][u], states[s], self.beta_gt[s])
        return op


class BigMap(Workload):
    """Single-shot estimates on large maps, each with a fresh state."""

    name = "bigmap"

    def __init__(self, *args):
        super().__init__(*args)
        self.n_maps = 2 if self.smoke else 64
        self.n_landmarks = 20 if self.smoke else 100
        self.n_frames = 6 if self.smoke else 24

    def setup(self) -> None:
        spec = SceneSpec(n_landmarks=self.n_landmarks, n_frames=self.n_frames,
                         start_distance_range=(100.0, 160.0), frame_spacing=4.0)
        self.paths, self.beta_gt = [], []
        for m in range(self.n_maps):
            v = VISIBILITIES[m % len(VISIBILITIES)]
            graph, truth = _fog_scene(spec, v, derive_seed(self.seed, 1, m))
            path = os.path.join(self.workdir, f"big{m:03d}.map")
            localmap.save_map(graph, path)
            self.paths.append(path)
            self.beta_gt.append(truth.beta)

    def runner(self):
        def op(i: int) -> OpResult:
            m = i % self.n_maps
            return _map_estimate(self.paths[m], EstimatorState(), self.beta_gt[m])
        return op


class Trials(Workload):
    """Gamma-bias experiment: one op is one single-trial call at gamma 2.2 and
    one at 0.7 on the same noise seed (acceptance criterion 5, one trial at
    a time).

    Both gammas share an op so that op times form one population; with one
    gamma per op the median would fall in the gap between two modes. One
    trial per call keeps ops short, so that a run holds hundreds of them and
    its 95th percentile reflects slow solves rather than a few slow seconds
    of a shared machine."""

    name = "trials"
    BETA_GT = 0.025
    GAMMAS = (2.2, 0.7)

    def setup(self) -> None:
        self.gmaps = [GammaMap(alpha=255.0 ** (1.0 - g), gamma=g, zeta=0.0)
                      for g in self.GAMMAS]

    def runner(self):
        def op(i: int) -> OpResult:
            noise = NoiseSpec(std=1.0, domain="radiance", quantize=False,
                              seed=derive_seed(self.seed, 2, i))
            out = OpResult([], [])
            for gamma, gmap in zip(self.GAMMAS, self.gmaps):
                res = simulator.gamma_bias_experiment(
                    trials=1, beta_gt=self.BETA_GT, gmap=gmap, noise=noise)
                rad, inten = res.radiance_betas, res.intensity_betas
                out.betas += [float(b) for pair in res.pairs for b in pair]
                out.errors += [abs(float(b) - self.BETA_GT) / self.BETA_GT for b in rad]
                out.failed |= res.failures > 0
                out.extra[gamma] = {"above": int(np.sum(inten > rad)),
                                    "below": int(np.sum(inten < rad)),
                                    "pairs": len(res.pairs)}
            return out
        return op

    def check(self, results: list[OpResult]) -> list[str]:
        # acceptance criterion 5: ignoring the response moves beta up at
        # gamma 2.2 and down at gamma 0.7, in at least 99 % of trials
        problems = []
        for gamma, key in zip(self.GAMMAS, ("above", "below")):
            done = [r.extra[gamma] for r in results if gamma in r.extra]
            pairs = sum(e["pairs"] for e in done)
            hits = sum(e[key] for e in done)
            if pairs and hits < 0.99 * pairs:
                problems.append(f"gamma {gamma}: intensity beta {key} the "
                                f"response-aware beta in {hits}/{pairs} trials")
        return problems


class Recovery(Workload):
    """One recovery-suite scenario (one visibility, one repeat, five methods)."""

    name = "recovery"

    def setup(self) -> None:
        config = RecoveryConfig(repeats=1)
        if self.smoke:
            config = replace(config, scene=replace(config.scene, n_landmarks=16))
        self.config = config

    def runner(self):
        def op(i: int) -> OpResult:
            v = VISIBILITIES[i % len(VISIBILITIES)]
            config = replace(self.config, visibilities=(v,),
                             seed=derive_seed(self.seed, 3, i))
            report = harness.run_recovery_suite(config)
            rows = [r for r in report.rows if not r.failed]
            ours = [r for r in rows if r.method.startswith("ours")]
            main = [r for r in ours if r.method == "ours"]
            return OpResult(
                betas=[r.beta_est for r in ours],
                errors=[abs(r.beta_est - r.beta_gt) / r.beta_gt for r in main],
                failed=len(rows) < len(report.rows),
                extra={"baseline_betas": [r.beta_est for r in rows
                                          if not r.method.startswith("ours")]})
        return op

    def check(self, results: list[OpResult]) -> list[str]:
        bad = [b for r in results for b in r.extra.get("baseline_betas", ())
               if not math.isfinite(b)]
        return [f"{len(bad)} non-finite baseline betas"] if bad else []


WORKLOADS = {cls.name: cls for cls in (Stream, BigMap, Trials, Recovery)}
