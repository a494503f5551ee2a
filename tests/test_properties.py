"""Property-based invariants (1000 random cases per property).

Each property pins an algebraic fact the rest of the code relies on:
transmission behavior, gamma-map invertibility, robust-loss identities,
solver feasibility/determinism, metric decomposition and the map format
round trip. Ranges are chosen to stay clear of float underflow, which would
otherwise break strictness artificially.
"""

import atexit
import itertools
import math
import os
import shutil
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foglab.estimator import residual_and_jacobian
from foglab.localmap import LocalMapGraph, Observation, ObservationSet, load_map, save_map
from foglab.metrics import compute_metrics
from foglab.optimizer import ResidualProblem, _huber_factor, _huber_root, solve
from foglab.photometry import GammaMap, compress, expand
from foglab.scattering import (beta_from_visibility, synthesize_fog_pixel,
                               transmission, visibility_from_beta,
                               IntensityFogParams)

CASES = settings(max_examples=1000, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])

finite = dict(allow_nan=False, allow_infinity=False)
beta_st = st.floats(1e-4, 1.0, **finite)
dist_st = st.floats(0.0, 600.0, **finite)
level_st = st.floats(0.0, 255.0, **finite)
gamma_map_st = st.builds(
    GammaMap,
    alpha=st.floats(0.01, 10.0, **finite),
    gamma=st.floats(0.2, 5.0, **finite),
    zeta=st.floats(-10.0, 10.0, **finite))

# Each round-trip example writes its own file: on ext4, reopening a file
# for writing while its last contents are still unwritten waits for that
# writeback (tens of ms), which over 1000 examples dwarfs the suite itself.
# Acceptance criterion 9 calls the suites outside pytest, so the directory
# goes at interpreter exit rather than in a module teardown.
_MAP_DIR = tempfile.mkdtemp(prefix="foglab-prop-")
atexit.register(shutil.rmtree, _MAP_DIR, ignore_errors=True)
_map_names = (f"roundtrip{k}.map" for k in itertools.count())


@CASES
@given(beta=beta_st, d1=dist_st, d2=dist_st)
def test_transmission_in_unit_interval_and_monotone(beta, d1, d2):
    lo, hi = sorted((d1, d2))
    t_lo, t_hi = transmission(beta, lo), transmission(beta, hi)
    assert 0.0 < t_hi <= t_lo <= 1.0
    assert transmission(beta, 0.0) == 1.0


@CASES
@given(beta=st.floats(1e-4, 10.0, **finite))
def test_visibility_round_trip(beta):
    assert math.isclose(beta_from_visibility(visibility_from_beta(beta)),
                        beta, rel_tol=1e-12)


@CASES
@given(j=level_st, a=level_st, beta=beta_st, d=dist_st)
def test_fog_pixel_stays_between_scene_and_atmosphere(j, a, beta, d):
    v = synthesize_fog_pixel(j, IntensityFogParams(beta, a), d)
    assert min(j, a) - 1e-9 <= v <= max(j, a) + 1e-9


@CASES
@given(gmap=gamma_map_st,
       i=st.one_of(st.just(0.0), st.just(255.0), st.floats(0.1, 255.0, **finite)))
def test_expand_compress_round_trip(gmap, i):
    # below ~0.1 the alpha*i**gamma term can vanish next to zeta in float,
    # so the map is only numerically invertible on real sensor levels
    back = compress(gmap, expand(gmap, i))
    assert math.isclose(back, i, rel_tol=1e-9, abs_tol=1e-6)


@CASES
@given(gmap=gamma_map_st, i=st.floats(0.0, 254.0, **finite),
       step=st.floats(0.01, 1.0, **finite))
def test_expand_is_strictly_increasing(gmap, i, step):
    assert expand(gmap, min(i + step, 255.0)) > expand(gmap, i)


_signed_raw = st.one_of(st.just(0.0), st.floats(1e-12, 1e6, **finite),
                        st.floats(-1e6, -1e-12, **finite))


@CASES
@given(raw=st.lists(_signed_raw, min_size=1, max_size=8),
       delta=st.floats(1e-6, 100.0, **finite))
def test_robust_scale_squares_to_huber_loss(raw, delta):
    # the loss as the optimizer docstring defines it
    raw = np.array(raw)
    inside = np.abs(raw) <= delta
    loss = np.where(inside, raw ** 2, 2.0 * delta * np.abs(raw) - delta ** 2)
    root, outside = huber = _huber_root(raw, delta)
    factor = _huber_factor(*huber, delta)
    assert np.array_equal(outside, ~inside)
    assert np.allclose(root ** 2, loss, rtol=1e-12, atol=1e-12)
    assert np.all(root >= 0.0) and np.array_equal(root == 0.0, raw == 0.0)
    # the row factor is d root / d|r|: 1 inside, delta / root outside
    assert np.all(factor[inside] == 1.0)
    assert np.allclose(factor[outside], delta / np.sqrt(loss[outside]), rtol=1e-12)
    assert np.all((factor > 0.0) & (factor <= 1.0))


@CASES
@given(data=st.data())
def test_solver_stays_feasible_and_deterministic(data):
    n_rows = data.draw(st.integers(2, 4))
    A = np.array(data.draw(st.lists(
        st.lists(st.floats(-3.0, 3.0, **finite), min_size=2, max_size=2),
        min_size=n_rows, max_size=n_rows)))
    b = np.array(data.draw(st.lists(st.floats(-5.0, 5.0, **finite),
                                    min_size=n_rows, max_size=n_rows)))
    lims = sorted(data.draw(st.tuples(st.floats(-8.0, 8.0, **finite),
                                      st.floats(-8.0, 8.0, **finite))))
    x0 = np.array(data.draw(st.tuples(st.floats(-10.0, 10.0, **finite),
                                      st.floats(-10.0, 10.0, **finite))))
    lo = np.full(2, lims[0])
    hi = np.full(2, lims[1])
    problem = ResidualProblem(n_params=2, residual=lambda x: A @ x - b,
                              jacobian=lambda x: A, lower=lo, upper=hi)
    r1 = solve(problem, x0, max_iterations=30)
    r2 = solve(problem, x0, max_iterations=30)
    assert np.all((r1.params >= lo) & (r1.params <= hi))
    assert r1.cost >= 0.0
    assert r1.params.tobytes() == r2.params.tobytes()
    assert r1.cost == r2.cost and r1.iterations == r2.iterations


@CASES
@given(errors=st.lists(st.floats(-1e6, 1e6, **finite), min_size=1, max_size=20),
       truth=st.floats(1.0, 1e3, **finite))
def test_rmse_decomposes_into_sd_and_bias(errors, truth):
    est = [truth + e for e in errors]
    rep = compute_metrics(est, truth)
    bias = float(np.mean(np.asarray(est) - truth))
    assert math.isclose(rep.rmse ** 2, rep.sd ** 2 + bias ** 2,
                        rel_tol=1e-9, abs_tol=1e-6)
    assert rep.mae <= rep.rmse * math.sqrt(len(est))


@CASES
@given(edges=st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.floats(1e-3, 1e6, **finite), level_st),
    min_size=1, max_size=6),
    positions=st.lists(st.tuples(st.floats(-1e6, 1e6, **finite),
                                 st.floats(-1e6, 1e6, **finite),
                                 st.floats(-1e6, 1e6, **finite)),
                       max_size=3))
def test_map_format_round_trip(edges, positions):
    frame, landmark = zip(*edges)
    distance, level = zip(*edges.values())
    g = LocalMapGraph.from_edges(frame, landmark, distance, np.array(level)[:, None])
    for pos, m in zip(positions, sorted(g.frames)):
        g.frames[m] = pos
    path = os.path.join(_MAP_DIR, next(_map_names))
    save_map(g, path)
    loaded = load_map(path)
    assert np.array_equal(loaded.edges, g.edges)
    assert loaded.frames == g.frames
    assert loaded.landmarks == g.landmarks


@CASES
@given(beta=beta_st, l_inf=level_st,
       lcs=st.lists(level_st, min_size=1, max_size=4),
       dists=st.lists(st.floats(1.0, 300.0, **finite), min_size=2, max_size=4,
                      unique=True))
def test_model_residual_vanishes_at_the_generating_parameters(beta, l_inf, lcs, dists):
    groups = {}
    for n, lc in enumerate(lcs):
        groups[n] = tuple(
            Observation(m, d, (lc - l_inf) * math.exp(-beta * d) + l_inf)
            for m, d in enumerate(dists))
    obs = ObservationSet(groups)
    params = np.array([beta, l_inf] + list(lcs))
    r, J = residual_and_jacobian(params, obs)
    assert np.allclose(r, 0.0, atol=1e-9)
    assert J.shape == (len(lcs) * len(dists), 2 + len(lcs))
