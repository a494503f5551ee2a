"""Recovery sweep, histogram demonstration, and their CSV formats."""

import csv
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from foglab import harness
from foglab.errors import NotEnoughDataError
from foglab.estimator import EstimatorConfig
from foglab.harness import (METHODS, SCENARIO_CSV_FIELDS, SUMMARY_CSV_FIELDS,
                            HistogramDemoConfig, RecoveryConfig, ScenarioRow,
                            _run_ours, _scenario_image, _summarize, run_histogram_demo,
                            run_recovery_suite, write_scenario_csv)
from foglab.localmap import generate_dr_pairs
from foglab.metrics import MetricsReport, compute_metrics
from foglab.scattering import FogParams, IntensityFogParams, beta_from_visibility
from foglab.simulator import NoiseSpec, SceneSpec, generate_scene
from foglab.photometry import GammaMap

SMALL = RecoveryConfig(visibilities=(30.0, 60.0), repeats=1)


def read_csv(path, fields):
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == fields
        return list(reader)


def read_scenarios(path):
    return [ScenarioRow(float(r["visibility"]), int(r["repeat"]), r["method"],
                        float(r["beta_gt"]), float(r["beta_est"]),
                        float(r["a_gt"]), float(r["a_est"]), bool(int(r["failed"])))
            for r in read_csv(path, SCENARIO_CSV_FIELDS)]


def test_recovery_suite_small_run(tmp_path):
    report = run_recovery_suite(SMALL, out_dir=tmp_path)
    assert len(report.rows) == 2 * 1 * len(METHODS)
    assert not any(r.failed for r in report.rows)
    for method in METHODS:
        assert (method, "beta") in report.summary
        assert report.beta_rmse(method) >= 0.0
    # the files written alongside round-trip to the in-memory report
    assert read_scenarios(tmp_path / "scenarios.csv") == report.rows
    summary = {(r["method"], r["parameter"]): MetricsReport(
        **{k: float(r[k]) for k in SUMMARY_CSV_FIELDS[2:-1]}, n=int(r["n"]))
        for r in read_csv(tmp_path / "summary.csv", SUMMARY_CSV_FIELDS)}
    assert summary == report.summary


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


def run_on(monkeypatch, cpus, config):
    """The suite's rows, as exact text, with ``cpus`` usable CPUs."""
    with monkeypatch.context() as m:
        m.setattr(harness, "_usable_cpus", lambda: cpus)
        return [repr(row) for row in run_recovery_suite(config).rows]


@pytest.mark.parametrize("config", [SMALL, RecoveryConfig(visibilities=(30.0, 50.0, 80.0),
                                                          repeats=1)])
def test_streams_give_the_same_rows_on_one_cpu_and_on_many(monkeypatch, config):
    # SMALL has 6 streams, the 3-scenario suite 9, which 2 CPUs cut into runs
    # of 5 and 4; a count of 3 runs workers even where fewer CPUs are usable
    rows = run_on(monkeypatch, 1, config)
    assert run_on(monkeypatch, harness._usable_cpus(), config) == rows
    assert run_on(monkeypatch, 3, config) == rows
    assert multiprocessing.active_children() == []


def test_a_method_that_failed_everywhere_has_no_rmse(monkeypatch):
    # 10 landmarks are fewer than xi_k, so every ours* stream fails; with 3
    # CPUs two of them fail in a worker
    config = RecoveryConfig(visibilities=(30.0,), repeats=1)
    config = replace(config, scene=replace(config.scene, n_landmarks=10))
    rows = run_on(monkeypatch, 3, config)
    assert rows == run_on(monkeypatch, 1, config)
    report = run_recovery_suite(config)
    assert [(r.method, r.failed) for r in report.rows] == [
        ("ours", True), ("ours-1stage", True), ("ours-uniform", True),
        ("li-orig", False), ("li-mod", False)]
    for method in ("ours", "ours-1stage", "ours-uniform"):
        with pytest.raises(NotEnoughDataError, match=f"^{method} failed in every scenario$"):
            report.beta_rmse(method)
    assert report.beta_rmse("li-mod") >= 0.0
    with pytest.raises(KeyError):
        report.beta_rmse("ours-2stage")


def test_a_stream_error_in_a_worker_reaches_the_caller(monkeypatch):
    def run_ours(prefixes, config):
        if prefixes == "broken":
            raise FloatingPointError(f"stream {config} broke")
        if prefixes == "no data":
            raise NotEnoughDataError("too few landmarks")
        return prefixes, config

    monkeypatch.setattr(harness, "_run_ours", run_ours)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    # 5 jobs on 3 CPUs: jobs 0-1 run here, 2-3 and 4 in two workers
    jobs = [("a", 0), ("b", 1), ("c", 2), ("no data", 3), ("e", 4)]
    assert harness._run_streams(jobs) == [("a", 0), ("b", 1), ("c", 2), None, ("e", 4)]
    for broken in (4, 2, 0):
        failing = [("broken", k) if k == broken else job for k, job in enumerate(jobs)]
        with pytest.raises(FloatingPointError, match=f"^stream {broken} broke$"):
            harness._run_streams(failing)
        assert multiprocessing.active_children() == []


def test_a_scene_with_fewer_frames_than_xi_f_streams_only_the_whole_map():
    # on 3 frames no landmark has xi_f = 4 sightings, so every ours* stream
    # fails on the whole map instead of on no map at all
    config = RecoveryConfig(visibilities=(30.0,), repeats=1)
    config = replace(config, scene=replace(config.scene, n_frames=3))
    rows = run_recovery_suite(config).rows
    assert [(r.method, r.failed) for r in rows[:3]] == [(m, True) for m in METHODS[:3]]


def test_summary_averages_a_method_over_the_levels_where_it_succeeded():
    def row(v, method, beta_est, a_est, failed=False):
        return ScenarioRow(v, 0, method, beta_from_visibility(v), beta_est,
                           204.0, a_est, failed)

    b30, b60 = beta_from_visibility(30.0), beta_from_visibility(60.0)
    rows = [row(30.0, "ours", b30 * 1.1, 200.0), row(30.0, "ours", b30 * 0.8, 207.0),
            row(60.0, "ours", b60 * 1.3, 190.0),
            row(30.0, "li-mod", b30 * 1.2, 201.0),
            row(60.0, "li-mod", math.nan, math.nan, failed=True),
            row(60.0, "li-mod", math.nan, math.nan, failed=True)]
    summary = _summarize(rows, SMALL)
    assert set(summary) == {("ours", "beta"), ("ours", "a"), ("li-mod", "beta"), ("li-mod", "a")}
    # li-mod has successful rows at 30 m only: its summary is that level's
    assert summary[("li-mod", "beta")] == compute_metrics([b30 * 1.2], b30)
    assert summary[("li-mod", "a")] == compute_metrics([201.0], 204.0)
    # ours averages its two levels' metrics and counts every row
    levels = [compute_metrics([b30 * 1.1, b30 * 0.8], b30), compute_metrics([b60 * 1.3], b60)]
    assert summary[("ours", "beta")] == MetricsReport(
        *[float(np.mean([getattr(m, name) for m in levels]))
          for name in ("rmse", "mae", "sd", "rmse_rel", "mae_rel", "sd_rel")], n=3)


def test_recovery_config_validation():
    for repeats in (0, -1):
        with pytest.raises(ValueError, match="repeats"):
            RecoveryConfig(repeats=repeats)
    with pytest.raises(ValueError, match="visibility"):
        RecoveryConfig(visibilities=())
    # a repeated level would be scored once per repeat in the summary
    with pytest.raises(ValueError, match="must not repeat"):
        RecoveryConfig(visibilities=(30.0, 30.0), repeats=1)


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
    loaded = read_scenarios(path)
    assert loaded[0] == rows[0]
    assert loaded[1].failed and math.isnan(loaded[1].beta_est)


def test_scenario_csv_text(tmp_path):
    rows = [ScenarioRow(30.0, 0, "ours", 0.1, -0.0, 204.0, 1e-300),
            ScenarioRow(40.0, 2, "li-mod", 0.1 + 0.2, math.nan, 204.0, math.nan,
                        failed=True)]
    path = tmp_path / "rows.csv"
    write_scenario_csv(path, rows)
    assert path.read_bytes() == (
        b"visibility,repeat,method,beta_gt,beta_est,a_gt,a_est,failed\r\n"
        b"30.0,0,ours,0.1,-0.0,204.0,1e-300,0\r\n"
        b"40.0,2,li-mod,0.30000000000000004,nan,204.0,nan,1\r\n")


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
