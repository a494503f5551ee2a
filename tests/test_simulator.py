"""Synthetic scene generation and the response-bias experiment."""

import math

import numpy as np
import pytest

from foglab.photometry import GammaMap
from foglab.scattering import (FogParams, IntensityFogParams,
                               synthesize_fog_pixel)
from foglab.simulator import (GAMMA_BIAS_A_INTENSITY, GroundTruth, NoiseSpec,
                              SceneSpec, gamma_bias_experiment, generate_scene)

IDENT = GammaMap.identity()
CLEAN = NoiseSpec(std=0.0, quantize=False)


def edge_matrix(graph, spec, field="intensity"):
    """(landmark, frame) matrix of one edge field of a gray scene."""
    out = np.full((spec.n_landmarks, spec.n_frames), np.nan)
    e = graph.edges
    out[e["landmark"], e["frame"]] = e[field].reshape(len(e), -1)[:, 0]
    return out


def test_scene_is_reproducible():
    spec = SceneSpec(n_landmarks=8, n_frames=5)
    noise = NoiseSpec(std=2.0, seed=7)
    g1, t1 = generate_scene(spec, FogParams(0.05, 200.0), IDENT, noise)
    g2, t2 = generate_scene(spec, FogParams(0.05, 200.0), IDENT, noise)
    assert np.array_equal(g1.edges, g2.edges)
    assert t1.clear == t2.clear


def test_seed_changes_the_scene():
    spec = SceneSpec(n_landmarks=8, n_frames=5)
    g1, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT, NoiseSpec(seed=0))
    g2, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT, NoiseSpec(seed=1))
    assert not np.array_equal(g1.edges, g2.edges)


def test_clean_scene_matches_model_exactly():
    spec = SceneSpec(n_landmarks=6, n_frames=4, value_range=(40.0, 90.0))
    graph, truth = generate_scene(spec, FogParams(0.04, 210.0), IDENT, CLEAN)
    assert truth.domain == "radiance"
    assert truth.beta == 0.04 and truth.atmospheric == 210.0
    lc = np.array([truth.clear[n] for n in range(spec.n_landmarks)])[:, None]
    expected = (lc - 210.0) * np.exp(-0.04 * edge_matrix(graph, spec, "distance")) + 210.0
    assert edge_matrix(graph, spec) == pytest.approx(expected, abs=1e-9)


def test_clear_values_respect_range():
    spec = SceneSpec(n_landmarks=40, n_frames=2, value_range=(55.0, 60.0))
    _, truth = generate_scene(spec, FogParams(0.05, 200.0), IDENT, CLEAN)
    vals = np.array(list(truth.clear.values()))
    assert np.all((vals >= 55.0) & (vals <= 60.0))


def test_graph_structure():
    spec = SceneSpec(n_landmarks=7, n_frames=5, frame_spacing=3.0)
    graph, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT, CLEAN)
    assert sorted(graph.frames) == list(range(5))
    assert len(graph.edges) == 35
    assert graph.frames[2] == (6.0, 0.0, 0.0)
    # approach: distances shrink by the spacing each frame
    d = edge_matrix(graph, spec, "distance")[0]
    assert np.allclose(np.diff(d), -3.0)


def test_explicit_distances():
    d = np.array([[30.0, 20.0], [60.0, 50.0]])
    spec = SceneSpec(n_landmarks=2, n_frames=2, explicit_distances=d,
                     value_range=(40.0, 90.0))
    graph, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT, CLEAN)
    assert edge_matrix(graph, spec, "distance").tolist() == d.tolist()


def test_quantization_rounds_to_integers():
    spec = SceneSpec(n_landmarks=5, n_frames=3)
    graph, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT,
                              NoiseSpec(std=0.0, quantize=True))
    vals = graph.edges["intensity"]
    assert np.array_equal(vals, np.round(vals))


def test_intensities_always_in_sensor_range():
    spec = SceneSpec(n_landmarks=30, n_frames=4)
    graph, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT,
                              NoiseSpec(std=400.0, seed=3))
    vals = graph.edges["intensity"]
    assert np.all((vals >= 0.0) & (vals <= 255.0))


def test_intensity_domain_scene():
    spec = SceneSpec(n_landmarks=6, n_frames=4, value_range=(40.0, 90.0))
    graph, truth = generate_scene(spec, IntensityFogParams(0.1, 204.0), None, CLEAN)
    assert truth.domain == "intensity" and truth.atmospheric == 204.0
    lc = np.array([truth.clear[n] for n in range(spec.n_landmarks)])[:, None]
    expected = synthesize_fog_pixel(lc, IntensityFogParams(0.1, 204.0),
                                    edge_matrix(graph, spec, "distance"))
    assert edge_matrix(graph, spec) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("noise", [
    NoiseSpec(std=2.0, seed=4),
    NoiseSpec(std=1.0, seed=5, quantize=False, outlier_fraction=0.3, outlier_std=40.0,
              offmodel_fraction=0.25, offmodel_bias_std=20.0)])
def test_intensity_fog_is_radiance_fog_under_the_identity_map(noise):
    spec = SceneSpec(n_landmarks=12, n_frames=5)
    g_int, t_int = generate_scene(spec, IntensityFogParams(0.03, 204.0), None, noise)
    g_rad, t_rad = generate_scene(spec, FogParams(0.03, 204.0), IDENT, noise)
    assert np.array_equal(g_int.edges, g_rad.edges)
    assert t_int.clear == t_rad.clear and t_int.atmospheric == t_rad.atmospheric
    assert (t_int.domain, t_rad.domain) == ("intensity", "radiance")


def test_radiance_domain_noise_is_applied_before_compression():
    spec = SceneSpec(n_landmarks=6, n_frames=4, value_range=(40.0, 90.0))
    gmap = GammaMap(alpha=0.01, gamma=2.0, zeta=0.0)
    noisy = NoiseSpec(std=1.0, domain="radiance", quantize=False, seed=5)
    g1, _ = generate_scene(spec, FogParams(0.05, 150.0), gmap, noisy)
    g0, _ = generate_scene(spec, FogParams(0.05, 150.0), gmap,
                           NoiseSpec(std=0.0, domain="radiance", quantize=False,
                                     seed=5))
    v1 = edge_matrix(g1, spec)
    v0 = edge_matrix(g0, spec)
    assert not np.array_equal(v1, v0)
    assert np.all((v1 >= 0.0) & (v1 <= 255.0))


def test_outliers_corrupt_observations():
    spec = SceneSpec(n_landmarks=10, n_frames=4, value_range=(40.0, 90.0))
    base = NoiseSpec(std=0.0, quantize=False, seed=2)
    hit = NoiseSpec(std=0.0, quantize=False, seed=2,
                    outlier_fraction=1.0, outlier_std=50.0)
    g0, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT, base)
    g1, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT, hit)
    diff = edge_matrix(g1, spec) - edge_matrix(g0, spec)
    assert np.mean(diff != 0.0) > 0.9


def test_offmodel_landmarks_carry_constant_bias():
    spec = SceneSpec(n_landmarks=8, n_frames=4, value_range=(80.0, 120.0))
    base = NoiseSpec(std=0.0, quantize=False, seed=2)
    bad = NoiseSpec(std=0.0, quantize=False, seed=2,
                    offmodel_fraction=0.25, offmodel_bias_std=20.0)
    g0, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT, base)
    g1, _ = generate_scene(spec, FogParams(0.05, 200.0), IDENT, bad)
    diff = edge_matrix(g1, spec) - edge_matrix(g0, spec)
    biased = np.any(diff != 0.0, axis=1)
    assert biased.sum() == 2            # round(0.25 * 8)
    for row in diff[biased]:
        assert np.allclose(row, row[0]) and row[0] != 0.0


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(n_frames=1)
    with pytest.raises(ValueError, match="schedule"):
        SceneSpec(start_distance_range=(10.0, 20.0), n_frames=6, frame_spacing=4.0)
    # a negative spacing moves away: the first frame is the closest
    with pytest.raises(ValueError, match="schedule"):
        SceneSpec(n_landmarks=3, n_frames=3, start_distance_range=(0.0, 0.0),
                  frame_spacing=-4.0)
    assert SceneSpec(start_distance_range=(1.0, 2.0), frame_spacing=-4.0).frame_spacing == -4.0
    with pytest.raises(ValueError, match="ordered"):
        SceneSpec(start_distance_range=(90.0, 30.0))
    with pytest.raises(ValueError, match="finite"):
        SceneSpec(start_distance_range=(30.0, math.inf))
    with pytest.raises(ValueError, match="frame_spacing"):
        SceneSpec(frame_spacing=math.nan)
    with pytest.raises(ValueError):
        SceneSpec(n_landmarks=2, n_frames=2, explicit_distances=np.ones((3, 2)))
    with pytest.raises(ValueError):
        SceneSpec(n_landmarks=1, n_frames=2,
                  explicit_distances=np.array([[1.0, -1.0]]))


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(std=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(std=math.nan)
    with pytest.raises(ValueError):
        NoiseSpec(outlier_std=math.inf)
    with pytest.raises(ValueError):
        NoiseSpec(offmodel_bias_std=math.nan)
    with pytest.raises(ValueError):
        NoiseSpec(domain="current")
    with pytest.raises(ValueError):
        NoiseSpec(outlier_fraction=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(offmodel_fraction=-0.1)


def test_scene_input_validation():
    spec = SceneSpec(n_landmarks=2, n_frames=2)
    with pytest.raises(ValueError, match="gamma map"):
        generate_scene(spec, FogParams(0.05, 200.0), None, CLEAN)
    with pytest.raises(ValueError, match="intensity-domain"):
        generate_scene(spec, IntensityFogParams(0.05, 200.0), None,
                       NoiseSpec(domain="radiance"))
    with pytest.raises(ValueError, match="clear intensities"):
        generate_scene(SceneSpec(n_landmarks=2, n_frames=2, value_range=(200.0, 300.0)),
                       IntensityFogParams(0.05, 200.0), None, CLEAN)
    with pytest.raises(ValueError, match="fog"):
        generate_scene(spec, "fog", IDENT, CLEAN)


# --- response-bias experiment ---------------------------------------------------

def test_gamma_bias_identity_map_gives_equal_betas():
    result = gamma_bias_experiment(trials=3, beta_gt=0.025, gmap=IDENT)
    assert result.failures == 0 and len(result.pairs) == 3
    for b_rad, b_int in result.pairs:
        assert b_int == pytest.approx(b_rad, abs=1e-12)
        assert b_rad == pytest.approx(0.025, rel=0.2)


def test_gamma_bias_is_reproducible():
    gmap = GammaMap(alpha=255.0 ** (1 - 2.2), gamma=2.2, zeta=0.0)
    r1 = gamma_bias_experiment(trials=2, beta_gt=0.025, gmap=gmap)
    r2 = gamma_bias_experiment(trials=2, beta_gt=0.025, gmap=gmap)
    assert r1.pairs == r2.pairs


def test_gamma_bias_nonlinear_map_shifts_beta():
    gmap = GammaMap(alpha=255.0 ** (1 - 2.2), gamma=2.2, zeta=0.0)
    result = gamma_bias_experiment(trials=4, beta_gt=0.025, gmap=gmap)
    assert result.failures == 0
    assert np.all(result.radiance_betas != result.intensity_betas)
    # the response-aware estimates stay close to the truth
    assert result.radiance_betas.mean() == pytest.approx(0.025, rel=0.1)


def test_gamma_bias_validation_and_defaults():
    with pytest.raises(ValueError):
        gamma_bias_experiment(trials=0, beta_gt=0.025, gmap=IDENT)
    assert GAMMA_BIAS_A_INTENSITY == 178.5


def test_ground_truth_records_domain():
    t = GroundTruth(0.05, 200.0, {0: 50.0}, "radiance")
    assert t.domain == "radiance"
