"""Joint fog-parameter estimation: bounds, weights, two-stage solve, records."""

import math

import numpy as np
import pytest

from foglab.cli import cli_main
from foglab.errors import (DegenerateDataError, MapFormatError,
                           NotEnoughDataError)
from foglab.estimator import (DEFAULT_BETA_INIT, EstimatorConfig,
                              EstimatorState, FogEstimate,
                              compute_weights, derive_bounds, estimate,
                              format_estimate_record, huber_delta_radiance,
                              initialize, parse_estimate_record,
                              residual_and_jacobian)
from foglab.localmap import Observation, ObservationSet, generate_dr_pairs, save_map
from foglab.photometry import GammaMap
from foglab.scattering import FogParams, transmission
from foglab.simulator import NoiseSpec, SceneSpec, generate_scene

IDENT = GammaMap.identity()


def obs_set(groups):
    """Build an ObservationSet from {landmark: [(d, L), ...]}."""
    return ObservationSet({
        n: tuple(Observation(frame=i, distance=float(d), radiance=float(L))
                 for i, (d, L) in enumerate(pairs))
        for n, pairs in groups.items()})


def fog_obs(beta, l_inf, lcs, distance_lists):
    """Noiseless observations of landmarks with clear radiances ``lcs``."""
    groups = {}
    for n, (lc, dists) in enumerate(zip(lcs, distance_lists)):
        t = transmission(beta, np.asarray(dists, dtype=float))
        groups[n] = [(d, lc * tk + l_inf * (1.0 - tk))
                     for d, tk in zip(dists, t)]
    return obs_set(groups)


# --- bounds -------------------------------------------------------------------

def test_bounds_steep_positive_slope():
    # intensity climbing 140 levels over 40 m (slope 3.5 > eta=2): the
    # landmark is darker than the fog, so lc is capped at the near radiance
    # and the far radiance becomes an l_inf lower-bound candidate
    obs = obs_set({0: [(10.0, 40.0), (50.0, 180.0)]})
    b = derive_bounds(obs, IDENT, eta=2.0)
    assert (b.lower[2], b.upper[2]) == (0.0, 40.0)
    assert (b.lower[1], b.upper[1]) == (180.0, 255.0)
    assert b.beta == (0.001, 0.2)


def test_bounds_steep_negative_slope():
    obs = obs_set({0: [(10.0, 200.0), (50.0, 60.0)]})
    b = derive_bounds(obs, IDENT, eta=2.0)
    assert (b.lower[2], b.upper[2]) == (200.0, 255.0)
    assert (b.lower[1], b.upper[1]) == (0.0, 255.0)     # no positive-slope candidates


def test_bounds_flat_landmark_gets_full_range():
    obs = obs_set({0: [(10.0, 100.0), (50.0, 110.0)]})  # slope 0.25 < eta
    b = derive_bounds(obs, IDENT, eta=2.0)
    assert (b.lower[2], b.upper[2]) == (0.0, 255.0)
    assert (b.lower[1], b.upper[1]) == (0.0, 255.0)


def test_bounds_outlier_candidate_is_capped_by_typical_far_radiance():
    # one gross outlier (saturated far reading) is the only steep landmark;
    # the median far radiance over all landmarks keeps the box below it
    groups = {0: [(10.0, 120.0), (50.0, 255.0)]}        # slope 3.375, outlier
    for n in range(1, 7):
        groups[n] = [(10.0, 130.0), (50.0, 140.0)]      # flat, far ~ 140
    b = derive_bounds(obs_set(groups), IDENT, eta=2.0)
    assert b.lower[1] == 140.0


def test_bounds_zero_spread_is_flat():
    obs = obs_set({0: [(10.0, 40.0), (10.0, 180.0)]})
    b = derive_bounds(obs, IDENT, eta=2.0)
    assert (b.lower[2], b.upper[2]) == (0.0, 255.0)


def test_bounds_respect_gamma_range():
    gmap = GammaMap(alpha=0.01, gamma=2.0, zeta=1.0)    # range [1, 651.25]
    obs = obs_set({0: [(10.0, 100.0), (50.0, 110.0)]})
    b = derive_bounds(obs, gmap, eta=2.0)
    assert (b.lower[2], b.upper[2]) == (1.0, pytest.approx(651.25))


def test_bounds_vector_packing():
    obs = obs_set({3: [(10.0, 40.0), (50.0, 180.0)],
                   1: [(10.0, 100.0), (50.0, 110.0)]})
    b = derive_bounds(obs, IDENT, eta=2.0, beta_bounds=(0.01, 0.1))
    # lc in landmark id order [1, 3]; candidate 180 capped by the median far
    # radiance (110+180)/2
    assert b.lower.tolist() == [0.01, 145.0, 0.0, 0.0]
    assert b.upper.tolist() == [0.1, 255.0, 255.0, 40.0]


# --- initialization and weights ------------------------------------------------

def test_cold_initialization():
    obs = obs_set({0: [(10.0, 50.0), (60.0, 120.0)],
                   1: [(12.0, 90.0), (55.0, 140.0)],
                   2: [(11.0, 70.0), (58.0, 160.0)]})
    bounds = derive_bounds(obs, IDENT)
    x0 = initialize(obs, EstimatorState(), bounds)
    assert x0[0] == DEFAULT_BETA_INIT
    assert x0[1] == 140.0               # median of far radiances 120/140/160
    assert x0[2:].tolist() == [50.0, 90.0, 70.0]


def test_warm_initialization_reuses_previous():
    obs = obs_set({0: [(10.0, 50.0), (60.0, 120.0)],
                   1: [(12.0, 90.0), (55.0, 140.0)]})
    state = EstimatorState(previous=FogEstimate(0.03, 180.0, {0: 45.0}))
    x0 = initialize(obs, state, derive_bounds(obs, IDENT))
    assert x0[0] == 0.03 and x0[1] == 180.0
    assert x0[2] == 45.0                # known landmark from previous
    assert x0[3] == 90.0                # new landmark falls back to near obs


def test_initialization_is_projected_into_bounds():
    obs = obs_set({0: [(10.0, 50.0), (60.0, 120.0)]})
    state = EstimatorState(previous=FogEstimate(5.0, 300.0, {0: -10.0}))
    bounds = derive_bounds(obs, IDENT)
    x0 = initialize(obs, state, bounds)
    assert x0[0] == bounds.beta[1]
    assert x0[1] == 255.0 and x0[2] == 0.0


def test_confidence_weights():
    obs = obs_set({0: [(10.0, 50.0), (60.0, 120.0)],
                   1: [(12.0, 90.0), (55.0, 140.0)]})
    x = np.array([0.02, 210.0, 110.0, 170.0])     # [beta, l_inf, lc0, lc1]
    counts = {(0, 0): 3}                # frame 0 of landmark 0 seen 3 times
    w = compute_weights(obs, x, counts)
    # rows: (frame 0, landmark 0), (frame 1, landmark 0), (frame 0, landmark 1)...
    assert w[0] == pytest.approx(100.0 * 4)        # contrast 100, count 3
    assert w[1] == pytest.approx(100.0)
    assert w[2] == pytest.approx(40.0)             # contrast 40, count 0


def test_huber_delta_in_radiance_domain():
    assert huber_delta_radiance(IDENT, 5.0) == pytest.approx(5.0)
    gmap = GammaMap(alpha=0.01, gamma=2.0, zeta=0.0)
    # 0.01*(130^2 - 125^2) = 12.75
    assert huber_delta_radiance(gmap, 5.0) == pytest.approx(12.75)


# --- residual / jacobian --------------------------------------------------------

def test_residual_reference_value():
    obs = obs_set({0: [(30.0, 150.0)], 1: [(30.0, 150.0)]})
    params = np.array([0.02, 200.0, 100.0, 100.0])
    r, J = residual_and_jacobian(params, obs)
    t = math.exp(-0.6)
    expected = 150.0 - ((100.0 - 200.0) * t + 200.0)
    assert r == pytest.approx([expected, expected])
    assert J.shape == (2, 4)
    assert J[0, 0] == pytest.approx(30.0 * (100.0 - 200.0) * t)
    assert J[0, 1] == pytest.approx(t - 1.0)
    assert J[0, 2] == pytest.approx(-t) and J[0, 3] == 0.0


def test_jacobian_matches_finite_differences():
    obs = fog_obs(0.04, 190.0, [60.0, 120.0, 230.0],
                  [[10.0, 30.0, 70.0]] * 3)
    params = np.array([0.03, 200.0, 70.0, 110.0, 220.0])
    r, J = residual_and_jacobian(params, obs)
    eps = 1e-6
    for j in range(params.size):
        dp = params.copy()
        dp[j] += eps
        dm = params.copy()
        dm[j] -= eps
        fd = (residual_and_jacobian(dp, obs)[0]
              - residual_and_jacobian(dm, obs)[0]) / (2 * eps)
        assert np.allclose(J[:, j], fd, atol=1e-5)


def test_residual_param_length_validation():
    obs = obs_set({0: [(30.0, 150.0)]})
    with pytest.raises(ValueError):
        residual_and_jacobian(np.array([0.02, 200.0]), obs)


# --- full estimate ---------------------------------------------------------------

def recovery_problem(beta=0.05, l_inf=200.0, n_landmarks=16):
    lcs = np.linspace(20.0, 150.0, n_landmarks)
    dists = [[8.0 + n, 25.0 + n, 45.0 + n, 70.0 + n] for n in range(n_landmarks)]
    return fog_obs(beta, l_inf, lcs, dists), lcs


def test_noiseless_recovery_is_exact():
    config = EstimatorConfig()
    obs, lcs = recovery_problem()
    result = estimate(obs, IDENT, EstimatorState(), config)
    assert result.estimate.beta == pytest.approx(0.05, rel=1e-6)
    assert result.estimate.l_inf == pytest.approx(200.0, rel=1e-6)
    for n, lc in enumerate(lcs):
        assert result.estimate.lc[n] == pytest.approx(lc, rel=1e-5)
    assert result.inlier_fraction == 1.0
    assert not result.degraded and result.stage2 is not None


def test_estimate_mutates_state_in_place():
    obs, _ = recovery_problem()
    state = EstimatorState()
    result = estimate(obs, IDENT, state, EstimatorConfig())
    assert state.previous is result.estimate
    # every observation was an inlier exactly once
    assert set(state.inlier_counts.values()) == {1}
    estimate(obs, IDENT, state, EstimatorConfig())
    assert set(state.inlier_counts.values()) == {2}


def test_single_stage_mode():
    obs, _ = recovery_problem()
    result = estimate(obs, IDENT, EstimatorState(),
                      EstimatorConfig(two_stage=False))
    assert result.stage2 is None
    assert result.estimate.beta == pytest.approx(0.05, rel=1e-5)


def test_uniform_weight_mode_recovers_too():
    obs, _ = recovery_problem()
    result = estimate(obs, IDENT, EstimatorState(),
                      EstimatorConfig(uniform_weights=True))
    assert result.estimate.beta == pytest.approx(0.05, rel=1e-6)


def test_too_few_landmarks_raises():
    obs, _ = recovery_problem(n_landmarks=14)
    with pytest.raises(NotEnoughDataError, match="14 qualifying landmarks, xi_k=15"):
        estimate(obs, IDENT, EstimatorState(), EstimatorConfig())


def test_no_distance_spread_raises():
    groups = {n: [(30.0, 100.0 + n)] * 4 for n in range(16)}
    with pytest.raises(DegenerateDataError, match="spread"):
        estimate(obs_set(groups), IDENT, EstimatorState(), EstimatorConfig())


def test_contradictory_data_flags_degraded():
    # pairs of observations at identical distance disagree by the full
    # intensity range, so every residual stays at 127.5 no matter the
    # parameters: the stage-1 inlier set is empty and stage 2 is skipped
    groups = {n: [(10.0, 0.0), (10.0, 255.0), (40.0, 0.0), (40.0, 255.0)]
              for n in range(16)}
    state = EstimatorState(
        previous=FogEstimate(0.05, 127.5, {n: 127.5 for n in range(16)}))
    result = estimate(obs_set(groups), IDENT, state,
                      EstimatorConfig(eta=1000.0))
    assert result.degraded and result.stage2 is None
    assert result.inlier_fraction == 0.0


def _maps_at(tmp_path, positions):
    """One simulated map per position, its latest frame placed there."""
    paths = []
    for k, position in enumerate(positions):
        graph, _ = generate_scene(SceneSpec(n_landmarks=16, n_frames=6),
                                  FogParams(0.05, 200.0), IDENT,
                                  NoiseSpec(std=0.5, seed=k))
        graph.frames[max(graph.frames)] = position
        paths.append(str(tmp_path / f"m{k}.map"))
        save_map(graph, paths[-1])
    return paths


def test_cli_estimate_updates_after_a_sideways_move(tmp_path, capsys):
    # a sideways move keeps the distance from the origin but covers 14.1 m
    paths = _maps_at(tmp_path, [(10.0, 0.0, 0.0), (0.0, 10.0, 0.0)])
    assert cli_main(["estimate", *paths]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and not any(line.startswith("#") for line in lines)


def test_cli_estimate_gates_on_distance_from_the_last_update(tmp_path, capsys):
    # 4.9 m from the update at x=100 is skipped; 5.0 m updates, and so does
    # 5.0 m back from there
    paths = _maps_at(tmp_path, [(x, 0.0, 0.0) for x in (100.0, 104.9, 105.0, 100.0)])
    assert cli_main(["estimate", *paths]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.startswith("#") for line in lines] == [False, True, False, False]
    assert lines[1] == "# frame=5 skipped: moved less than 5.0 m since last update"


def test_inlier_counts_stay_bounded_under_a_sliding_window():
    graph, _ = generate_scene(
        SceneSpec(n_landmarks=20, n_frames=45, start_distance_range=(200.0, 260.0)),
        FogParams(0.03, 200.0), IDENT, NoiseSpec(std=0.5, seed=4))
    frames = sorted(graph.frames)
    state = EstimatorState()
    for start in range(40):
        window = graph.frame_subset(frames[start:start + 6])
        obs = generate_dr_pairs(window, IDENT)
        estimate(obs, IDENT, state, EstimatorConfig())
        assert len(state.inlier_counts) <= obs.n_observations
        assert {m for m, _ in state.inlier_counts} <= set(obs.frame.tolist())


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(beta_bounds=(0.2, 0.1))
    with pytest.raises(ValueError):
        EstimatorConfig(beta_bounds=(0.0, 0.1))
    with pytest.raises(ValueError):
        EstimatorConfig(delta=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(eta=-1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(eta=math.nan)
    with pytest.raises(ValueError):
        EstimatorConfig(delta=math.nan)
    with pytest.raises(ValueError):
        EstimatorConfig(delta=math.inf)


# --- estimate records -------------------------------------------------------------

def test_record_round_trip():
    obs, _ = recovery_problem()
    result = estimate(obs, IDENT, EstimatorState(), EstimatorConfig())
    line = format_estimate_record(12, "gray", result)
    rec = parse_estimate_record(line)
    assert rec["frame"] == 12 and rec["channel"] == "gray"
    assert rec["beta"] == pytest.approx(result.estimate.beta)
    assert rec["l_inf"] == pytest.approx(result.estimate.l_inf)
    assert rec["degraded"] == 0


def test_record_parse_errors():
    with pytest.raises(MapFormatError, match="token"):
        parse_estimate_record("frame 3")
    with pytest.raises(MapFormatError, match="unknown"):
        parse_estimate_record("frame=3 wind=9")
    with pytest.raises(MapFormatError, match="missing"):
        parse_estimate_record("frame=3 channel=gray")
