"""Recovery sweep, histogram demonstration, and their CSV formats."""

import math

import numpy as np
import pytest

from foglab.errors import NotEnoughDataError
from foglab.estimator import EstimatorConfig
from foglab.harness import (METHODS, HistogramDemoConfig, RecoveryConfig,
                            ScenarioRow, _run_ours, _scenario_image,
                            load_scenario_csv, load_summary_csv,
                            run_histogram_demo, run_recovery_suite,
                            write_scenario_csv, write_summary_csv)
from foglab.localmap import generate_dr_pairs
from foglab.scattering import FogParams, IntensityFogParams, beta_from_visibility
from foglab.simulator import NoiseSpec, SceneSpec, generate_scene
from foglab.photometry import GammaMap

SMALL = RecoveryConfig(visibilities=(30.0, 60.0), repeats=1)


def test_recovery_suite_small_run(tmp_path):
    report = run_recovery_suite(SMALL, out_dir=tmp_path)
    assert len(report.rows) == 2 * 1 * len(METHODS)
    assert not any(r.failed for r in report.rows)
    for method in METHODS:
        assert (method, "beta") in report.summary
        assert report.beta_rmse(method) >= 0.0
    # the files written alongside round-trip to the in-memory report
    assert load_scenario_csv(tmp_path / "scenarios.csv") == report.rows
    assert load_summary_csv(tmp_path / "summary.csv") == report.summary


def test_recovery_rows_carry_ground_truth():
    report = run_recovery_suite(SMALL)
    for row in report.rows:
        assert row.beta_gt == pytest.approx(beta_from_visibility(row.visibility))
        assert row.a_gt == 204.0
        assert math.isfinite(row.beta_est)


def test_recovery_is_reproducible():
    r1 = run_recovery_suite(SMALL)
    r2 = run_recovery_suite(SMALL)
    assert r1.rows == r2.rows


def test_recovery_config_validation():
    for repeats in (0, -1):
        with pytest.raises(ValueError, match="repeats"):
            RecoveryConfig(repeats=repeats)
    with pytest.raises(ValueError, match="visibility"):
        RecoveryConfig(visibilities=())


def test_sequential_runner_needs_enough_frames():
    # with fewer frames than xi_f the stream is only the whole map, on which
    # no landmark qualifies
    graph, _ = generate_scene(
        SceneSpec(n_landmarks=20, n_frames=3, start_distance_range=(40.0, 90.0)),
        FogParams(0.05, 200.0), GammaMap.identity(), NoiseSpec(std=0.0))
    obs = generate_dr_pairs(graph, GammaMap.identity(), "gray", EstimatorConfig().xi_f)
    with pytest.raises(NotEnoughDataError, match="qualifying landmarks"):
        _run_ours([obs], EstimatorConfig())


def test_sequential_runner_returns_estimates():
    graph, truth = generate_scene(
        SceneSpec(n_landmarks=20, n_frames=6, start_distance_range=(40.0, 90.0)),
        FogParams(0.05, 200.0), GammaMap.identity(), NoiseSpec(std=0.0, quantize=False))
    frame_ids = sorted(graph.frames)
    prefixes = [generate_dr_pairs(graph.frame_subset(frame_ids[:upto]), GammaMap.identity())
                for upto in range(4, 7)]
    beta, l_inf = _run_ours(prefixes, EstimatorConfig())
    assert beta == pytest.approx(0.05, rel=1e-6)
    assert l_inf == pytest.approx(200.0, rel=1e-6)


def test_scenario_image_properties():
    img = _scenario_image(np.random.default_rng(0),
                          IntensityFogParams(0.1, 204.0), noise_std=1.0)
    assert img.shape == (64, 96) and img.dtype == np.uint8
    # sky band is fog-washed to the atmospheric value
    assert abs(float(img[:16].mean()) - 204.0) < 3.0
    # the bright near object is visible against the ground
    assert float(img[50:57, 60:68].mean()) > float(img[30:40, :].mean())


def test_scenario_csv_round_trip(tmp_path):
    rows = [ScenarioRow(30.0, 0, "ours", 0.0998, 0.1001, 204.0, 203.5),
            ScenarioRow(40.0, 1, "li-orig", 0.0749, math.nan, 204.0, math.nan,
                        failed=True)]
    path = tmp_path / "rows.csv"
    write_scenario_csv(path, rows)
    loaded = load_scenario_csv(path)
    assert loaded[0] == rows[0]
    assert loaded[1].failed and math.isnan(loaded[1].beta_est)


def test_scenario_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_scenario_csv(path)
    with pytest.raises(ValueError, match="header"):
        load_summary_csv(path)


def test_histogram_demo_defaults():
    result = run_histogram_demo()
    assert result.beta_gt == pytest.approx(beta_from_visibility(30.0))
    assert result.a_used == 208.0
    # the fog-opaque background drags the unbounded vote to (near) zero,
    # the bounded vote stays at the true level
    assert abs(result.unbounded_beta) <= 0.001
    assert 0.08 <= result.bounded_beta <= 0.12
    assert result.n_pairs_unbounded > result.n_pairs_bounded
    centers, counts = result.unbounded_hist
    assert counts.sum() == result.n_pairs_unbounded


def test_histogram_demo_respects_config():
    result = run_histogram_demo(HistogramDemoConfig(a_perturbation=0.0))
    assert result.a_used == 204.0
