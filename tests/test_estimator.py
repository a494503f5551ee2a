"""Joint fog-parameter estimation: bounds, weights, two-stage solve, records."""

import math

import numpy as np
import pytest

import foglab.estimator
from foglab.cli import cli_main
from foglab.errors import (DegenerateDataError, MapFormatError,
                           NotEnoughDataError)
from foglab.estimator import (DEFAULT_BETA_INIT, INLIER_COUNT_DTYPE,
                              EstimatorConfig, EstimatorState, FogEstimate,
                              _join_inlier_counts, compute_weights,
                              derive_bounds, estimate,
                              format_estimate_record, huber_delta_radiance,
                              initialize, parse_estimate_record,
                              residual_and_jacobian)
from foglab.localmap import Observation, ObservationSet, generate_dr_pairs, save_map
from foglab.photometry import GammaMap, compress, expand
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


def test_bounds_expand_the_gamma_range_once_per_map(monkeypatch):
    # compress checks its input against the map's range, which derive_bounds
    # reads too: one expand of [0, 255] per map serves both
    import foglab.photometry
    calls = []
    real_expand = foglab.photometry.expand
    monkeypatch.setattr(foglab.photometry, "expand",
                        lambda *args: calls.append(args) or real_expand(*args))
    obs = obs_set({0: [(10.0, 40.0), (50.0, 180.0)], 1: [(10.0, 200.0), (50.0, 60.0)]})
    gmap = GammaMap(alpha=0.01, gamma=2.0, zeta=1.0)
    b = derive_bounds(obs, gmap, eta=2.0)
    assert len(calls) == 1
    again = derive_bounds(obs, gmap, eta=2.0)
    assert len(calls) == 1
    assert b.lower.tobytes() == again.lower.tobytes()
    assert b.upper.tobytes() == again.upper.tobytes()
    # the cached range is no field: equality and hashing ignore it
    assert gmap == GammaMap(0.01, 2.0, 1.0) and hash(gmap) == hash(GammaMap(0.01, 2.0, 1.0))


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
    # frame 0 of landmark 0 was an inlier 3 times; frame 7 is not in obs
    table = np.array([(0, 0, 3), (7, 1, 5)], INLIER_COUNT_DTYPE)
    pairs, row_pair, current = _join_inlier_counts(table, obs)
    assert pairs.tolist() == [(0, 0, 3), (0, 1, 0), (1, 0, 0), (1, 1, 0), (7, 1, 5)]
    assert current.tolist() == [True, True, True, True, False]
    w = compute_weights(obs, x, pairs["count"][row_pair])
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
    assert state.inlier_counts.size == obs.n_observations
    assert set(state.inlier_counts["count"].tolist()) == {1}
    estimate(obs, IDENT, state, EstimatorConfig())
    assert set(state.inlier_counts["count"].tolist()) == {2}


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
        table = state.inlier_counts
        assert table.size <= obs.n_observations
        assert set(table["frame"].tolist()) <= set(obs.frame.tolist())


# --- inlier counts against the dict they replaced ------------------------------

def reference_weights(obs, x, counts):
    """Stage-1 weights as computed from the dict {(frame, landmark): count}."""
    contrast = np.abs(x[2:] - x[1])
    c = np.array([counts.get(key, 0) for key in
                  zip(obs.frame.tolist(), obs.landmark.tolist())], dtype=float)
    return contrast[obs.slot] * (c + 1)


def reference_update(counts, obs, inlier):
    """The dict update: one count per inlier row, then frames outside obs dropped."""
    for key in zip(obs.frame[inlier].tolist(), obs.landmark[inlier].tolist()):
        counts[key] = counts.get(key, 0) + 1
    frames = set(obs.frame.tolist())
    return {key: c for key, c in counts.items() if key[0] in frames}


def _sightings(rng, n_frames, n_landmarks):
    """Columns of every (frame, landmark) sighting of a noisy scene with
    outliers, so that stage 1 rejects some rows and keeps others."""
    frame, landmark = np.meshgrid(np.arange(n_frames), np.arange(n_landmarks), indexing="ij")
    frame, landmark = frame.ravel(), landmark.ravel()
    distance = 20.0 + 8.0 * (n_frames - frame) + rng.uniform(0.0, 30.0, n_landmarks)[landmark]
    lc = rng.uniform(20.0, 150.0, n_landmarks)[landmark]
    t = np.exp(-0.03 * distance)
    radiance = lc * t + 200.0 * (1.0 - t) + rng.normal(0.0, 1.0, frame.size)
    wild = rng.random(frame.size) < 0.15
    radiance[wild] += rng.normal(0.0, 40.0, wild.sum())
    return frame, landmark, distance, radiance


def _update_sequences(frame, landmark, rng):
    """Lists of row masks over the sightings of a 12-frame, 8-landmark scene."""
    frames = lambda ids: np.isin(frame, ids)
    return {
        "growing prefixes": [frames(range(k)) for k in range(4, 13)],
        "sliding window": [frames(range(k, k + 5)) for k in range(8)],
        "frame leaves and comes back": [frames([0, 1, 2, 3, 4]), frames([0, 1, 3, 4, 5]),
                                        frames([0, 1, 2, 3, 4, 5]), frames([1, 2, 3, 4, 5])],
        # generate_dr_pairs drops a landmark seen from fewer than xi_f frames
        "landmark below xi_f and back": [frames(range(6)), frames(range(6)) & (landmark != 3),
                                         frames(range(7))],
        "random frame subsets": [frames(rng.choice(12, size=rng.integers(4, 9), replace=False))
                                 for _ in range(8)],
    }


def test_inlier_count_table_matches_the_dict(monkeypatch):
    """Counts and stage-1 weights bitwise against the dict-keyed reference,
    over update sequences that grow, slide, drop and re-add frames and
    landmarks, and repeat (frame, landmark) rows."""
    stage1, real_solve = [], foglab.estimator.solve

    def solve(problem, x0):
        stage1.append((problem.weights, x0.copy()))
        return real_solve(problem, x0)
    monkeypatch.setattr(foglab.estimator, "solve", solve)
    config = EstimatorConfig(xi_k=3)
    delta = huber_delta_radiance(IDENT, config.delta)
    rng = np.random.default_rng(12)
    n_checked = 0
    columns = _sightings(rng, 12, 8)
    for name, masks in _update_sequences(columns[0], columns[1], rng).items():
        state, counts = EstimatorState(), {}
        for k, mask in enumerate(masks):
            rows = np.flatnonzero(mask)
            if k % 2:        # repeat some rows: the same sighting twice in one update
                rows = np.concatenate((rows, rng.choice(rows, size=5)))
            obs = ObservationSet.from_columns(*(c[rows] for c in columns))
            stage1.clear()
            result = estimate(obs, IDENT, state, config)
            weights, x0 = stage1[0]
            assert weights.tobytes() == reference_weights(obs, x0, counts).tobytes(), name
            inlier = np.abs(result.stage1.residuals) <= delta
            counts = reference_update(counts, obs, inlier)
            table = state.inlier_counts
            assert table.dtype == INLIER_COUNT_DTYPE
            assert sorted(counts) == list(zip(table["frame"].tolist(),
                                              table["landmark"].tolist())), name
            assert [counts[key] for key in sorted(counts)] == table["count"].tolist(), name
            n_checked += int(0 < inlier.sum() < inlier.size)
    # the inlier masks were mixed, so the counts differed between rows
    assert n_checked >= 10


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


RECORD = {"frame": 12, "channel": "gray", "beta": 0.05, "l_inf": 200.0, "visibility": 59.9,
          "inlier_fraction": 1.0, "stage1_cost": 0.0, "stage2_cost": "nan", "degraded": 0}


def record_line(**changes):
    return " ".join(f"{k}={v}" for k, v in {**RECORD, **changes}.items())


def test_record_parse_rejects_a_repeated_field():
    rec = parse_estimate_record(record_line())
    assert rec["beta"] == 0.05 and math.isnan(rec["stage2_cost"])
    with pytest.raises(MapFormatError, match="repeated record field 'beta'"):
        parse_estimate_record(record_line() + " beta=0.5")


@pytest.mark.parametrize("field, value", [
    ("frame", "x"), ("degraded", "1.0"), ("beta", "fast"),
    # values that format_estimate_record never writes
    ("frame", "1_0"), ("beta", "0_05"), ("frame", "\u0661\u0662"), ("beta", "\u0665"),
    ("channel", "purple"), ("degraded", "5"),
    ("degraded", "-1"), ("inlier_fraction", "7"), ("inlier_fraction", "-0.5"),
    ("inlier_fraction", "nan")])
def test_record_parse_rejects_a_value_of_the_wrong_type(field, value):
    with pytest.raises(MapFormatError, match=f"bad record field '{field}'"):
        parse_estimate_record(record_line(**{field: value}))


# --- bitwise reference ----------------------------------------------------------
# The set-up helpers as they were before each became one numpy call over
# stacked inputs, verbatim but for their names. The stacked forms must
# reproduce them bit for bit: numpy's power gives the same bits for an
# element alone and inside a longer array. ``reference_compress`` reads the
# map's range as it was then, with Python's ``**`` (``reference_range``), and
# not ``GammaMap.radiance_range``, which is now ``expand`` at 0 and 255.

def reference_range(gmap: GammaMap):
    return gmap.zeta, gmap.alpha * 255.0 ** gmap.gamma + gmap.zeta


def reference_expand(gmap: GammaMap, i):
    """Map intensities in [0, 255] to radiances."""
    i = np.asarray(i, dtype=float)
    if not np.all(np.isfinite(i)) or np.any(i < 0) or np.any(i > 255):
        raise ValueError("intensities must lie in [0, 255]")
    out = gmap.alpha * i ** gmap.gamma + gmap.zeta
    return float(out) if np.ndim(out) == 0 else out


def reference_compress(gmap: GammaMap, l, clamp: bool = False):
    """Inverse of :func:`expand`; radiances outside the map's range raise
    unless ``clamp`` is set."""
    l = np.asarray(l, dtype=float)
    lo, hi = reference_range(gmap)
    if clamp:
        l = np.clip(l, lo, hi)
    elif not np.all(np.isfinite(l)) or np.any(l < lo) or np.any(l > hi):
        raise ValueError(f"radiance outside [{lo}, {hi}]; pass clamp=True to clip")
    out = ((l - gmap.zeta) / gmap.alpha) ** (1.0 / gmap.gamma)
    return float(out) if np.ndim(out) == 0 else out


def reference_derive_bounds(obs, gmap, eta=EstimatorConfig.eta,
                            beta_bounds=EstimatorConfig.beta_bounds):
    lo_all = reference_expand(gmap, 0.0)
    hi_all = reference_expand(gmap, 255.0)
    near_l, far_l = obs.radiance[obs.near], obs.radiance[obs.far]
    spread = obs.distance[obs.far] - obs.distance[obs.near]
    rise = (reference_compress(gmap, far_l, clamp=True)
            - reference_compress(gmap, near_l, clamp=True))
    slope = np.divide(rise, spread, out=np.zeros_like(rise), where=spread > 0)
    # noise can push observed radiances slightly out of the map's range;
    # clamp so the box stays ordered
    near_c, far_c = np.clip(near_l, lo_all, hi_all), np.clip(far_l, lo_all, hi_all)
    lo = np.where(slope < -eta, near_c, lo_all)
    hi = np.where(slope > eta, near_c, hi_all)
    candidates = far_c[slope > eta]
    if candidates.size:
        l_inf_lo = min(float(np.median(candidates)), float(np.median(far_l)))
    else:
        l_inf_lo = lo_all
    return (np.concatenate(([beta_bounds[0], l_inf_lo], lo)),
            np.concatenate(([beta_bounds[1], hi_all], hi)))


def reference_initialize(obs, state, bounds):
    ids = obs.landmark_ids
    prev = state.previous
    x = np.empty(2 + len(ids))
    if prev is None:
        x[0], x[1] = DEFAULT_BETA_INIT, float(np.median(obs.radiance[obs.far]))
        x[2:] = obs.radiance[obs.near]
    else:
        x[0], x[1] = prev.beta, prev.l_inf
        x[2:] = [prev.lc.get(n, L) for n, L in zip(ids, obs.radiance[obs.near].tolist())]
    return np.clip(x, bounds.lower, bounds.upper)


def reference_huber_delta_radiance(gmap, delta_intensity):
    mid = 127.5
    return (reference_expand(gmap, mid + delta_intensity / 2.0)
            - reference_expand(gmap, mid - delta_intensity / 2.0))


def _reference_maps():
    """The identity and gamma in [0.2, 5] with zeta < 0, = 0 and > 0, each
    map's alpha putting 255 near 255."""
    maps = {"identity": IDENT}
    rng = np.random.default_rng(14)
    for k, gamma in enumerate(np.linspace(0.2, 5.0, 12) + rng.uniform(-0.1, 0.1, 12)):
        gamma = float(np.clip(gamma, 0.2, 5.0))
        zeta = (-1.0, 0.0, 1.0)[k % 3] * float(rng.uniform(0.01, 20.0))
        name = f"gamma-{gamma:.3f}-zeta-{('neg', 'zero', 'pos')[k % 3]}"
        maps[name] = GammaMap(float(rng.uniform(0.5, 2.0)) * 255.0 ** (1.0 - gamma), gamma, zeta)
    return maps


REFERENCE_MAPS = _reference_maps()


def random_reference_obs(rng, gmap, n_landmarks, spread=20.0, flat_landmark=False):
    """Landmarks of 2-7 rows at random radiances, some pushed just outside
    the map's range; with ``flat_landmark`` the first has no distance spread."""
    lo, hi = reference_range(gmap)
    frame, landmark, distance, radiance = [], [], [], []
    for n in range(n_landmarks):
        k = int(rng.integers(2, 8))
        d = 30.0 + rng.uniform(0.0, 100.0) + np.sort(rng.uniform(0.0, spread, k))
        if flat_landmark and n == 0:
            d[:] = d[0]
        r = reference_expand(gmap, rng.uniform(0.0, 255.0, k))
        r += rng.normal(0.0, 0.01 * (hi - lo), k) * (rng.random(k) < 0.3)
        frame += range(k)
        landmark += [n] * k
        distance += d.tolist()
        radiance += r.tolist()
    return ObservationSet.from_columns(frame, landmark, distance, radiance)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", REFERENCE_MAPS)
def test_expand_and_compress_match_the_reference_bitwise(name):
    gmap = REFERENCE_MAPS[name]
    rng = np.random.default_rng(len(name))
    i = np.concatenate(([0.0, 255.0, 127.5], rng.uniform(0.0, 255.0, 200)))
    l = reference_expand(gmap, i)
    assert_same_bits(expand(gmap, i), l)
    assert [expand(gmap, v) for v in i[:20].tolist()] == l[:20].tolist()
    assert_same_bits(compress(gmap, l), reference_compress(gmap, l))
    lo, hi = gmap.radiance_range
    assert (lo, hi) == tuple(l[:2].tolist())
    wide = np.concatenate((l, [lo - 1.0, hi + 1.0, lo, hi]))
    got = compress(gmap, wide, clamp=True)
    want = reference_compress(gmap, wide, clamp=True)
    if name != "gamma-1.113-zeta-pos":
        assert hi == reference_range(gmap)[1]
        assert_same_bits(got, want)
        assert compress(gmap, hi + 1.0, clamp=True) == \
            reference_compress(gmap, hi + 1.0, clamp=True)
        return
    # Python's ``**`` puts this map's top one ulp above expand(255). Only the
    # values clamped there differ: the reference compresses them to just
    # above 255, compress to exactly 255.
    assert reference_range(gmap)[1] == np.nextafter(hi, np.inf)
    top = wide >= hi
    assert top.sum() == 3
    assert_same_bits(got[~top], want[~top])
    assert got[top].tolist() == [255.0] * 3
    assert want[top].tolist() == [255.0, 255.00000000000006, 255.0]


@pytest.mark.parametrize("name", REFERENCE_MAPS)
@pytest.mark.parametrize("case", ["random", "no-steep", "flat-landmark", "even", "odd"])
def test_setup_helpers_match_the_reference_bitwise(name, case):
    gmap = REFERENCE_MAPS[name]
    rng = np.random.default_rng([len(name), len(case)])
    n_landmarks = {"even": 16, "odd": 15}.get(case, int(rng.integers(1, 30)))
    # spread 1e5 m makes every slope shallow: no l_inf candidates
    obs = random_reference_obs(rng, gmap, n_landmarks,
                               spread=1e5 if case == "no-steep" else 20.0,
                               flat_landmark=case == "flat-landmark")
    bounds = derive_bounds(obs, gmap)
    want_lower, want_upper = reference_derive_bounds(obs, gmap)
    assert_same_bits(bounds.lower, want_lower)
    assert_same_bits(bounds.upper, want_upper)
    if case == "no-steep":
        assert bounds.lower[1] == gmap.zeta
    previous = FogEstimate(0.5, float(bounds.upper[1]) + 1.0,
                           {0: float(bounds.lower[2]) - 1.0, 2: 7.0})
    for state in (EstimatorState(), EstimatorState(previous=previous)):
        assert_same_bits(initialize(obs, state, bounds),
                         reference_initialize(obs, state, bounds))
    for delta in [5.0, 255.0] + rng.uniform(0.0, 255.0, 20).tolist():
        assert huber_delta_radiance(gmap, delta).hex() == \
            reference_huber_delta_radiance(gmap, delta).hex()


def test_lean_median_matches_numpy_bitwise():
    rng = np.random.default_rng(3)
    for size in range(1, 60):
        for values in (rng.normal(100.0, 50.0, size), rng.integers(0, 4, size) * 0.1):
            got = foglab.estimator._median(values)
            assert got.hex() == float(np.median(values)).hex()
