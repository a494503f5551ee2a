"""Forward scattering model: transmission, visibility, synthesis."""

import math

import numpy as np
import pytest

from foglab.scattering import (FogParams, IntensityFogParams, beta_from_visibility,
                               predict_radiance, quantize_to_u8, synthesize_fog_image,
                               synthesize_fog_pixel, transmission,
                               visibility_from_beta)


def test_transmission_reference_values():
    # t drops to exactly the 5% meteorological threshold at -ln(0.05)/beta
    assert transmission(0.1, 29.957) == pytest.approx(0.05, rel=1e-4)
    assert transmission(0.025, 40.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_transmission_zero_distance_is_one():
    assert transmission(0.2, 0.0) == 1.0


def test_transmission_rejects_bad_beta():
    for beta in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            transmission(beta, 10.0)


def test_transmission_rejects_negative_distance():
    with pytest.raises(ValueError):
        transmission(0.1, -1.0)


def test_transmission_array_distances():
    d = np.array([0.0, 10.0, 100.0])
    t = transmission(0.05, d)
    assert t.shape == (3,)
    assert np.all(np.diff(t) < 0)


def test_visibility_beta_reference_values():
    assert beta_from_visibility(30.0) == pytest.approx(0.09986, abs=5e-6)
    # the conservative beta range corresponds to roughly [15, 3000] meters
    assert visibility_from_beta(0.2) == pytest.approx(14.98, abs=0.01)
    assert visibility_from_beta(0.001) == pytest.approx(2995.7, abs=0.1)


def test_visibility_beta_round_trip():
    for v in (12.0, 30.0, 81.5, 2995.0):
        assert visibility_from_beta(beta_from_visibility(v)) == pytest.approx(v, rel=1e-12)


def test_predict_radiance_reference_value():
    params = FogParams(beta=0.025, l_inf=200.0)
    # 50*e^-1 + 200*(1 - e^-1) = 200 - 150/e
    expected = 200.0 - 150.0 * math.exp(-1.0)
    assert predict_radiance(50.0, params, 40.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(144.82, abs=0.005)


def test_predict_radiance_monotone_in_distance():
    params = FogParams(beta=0.05, l_inf=180.0)
    d = np.linspace(0.0, 200.0, 50)
    dark = predict_radiance(40.0, params, d)
    bright = predict_radiance(250.0, params, d)
    flat = predict_radiance(180.0, params, d)
    assert np.all(np.diff(dark) > 0)
    assert np.all(np.diff(bright) < 0)
    assert np.allclose(flat, 180.0)


def test_synthesize_fog_pixel_reference_value():
    params = IntensityFogParams(beta=0.05, a=204.0)
    got = synthesize_fog_pixel(0.0, params, 20.0)
    assert got == pytest.approx(204.0 * (1.0 - math.exp(-1.0)), rel=1e-12)
    assert got == pytest.approx(128.95, abs=0.01)


def test_synthesize_fog_pixel_is_convex_combination():
    params = IntensityFogParams(beta=0.03, a=204.0)
    for j in (0.0, 100.0, 255.0):
        for d in (0.0, 5.0, 500.0):
            out = synthesize_fog_pixel(j, params, d)
            assert min(j, 204.0) - 1e-9 <= out <= max(j, 204.0) + 1e-9


def test_synthesize_fog_pixel_rejects_out_of_range():
    params = IntensityFogParams(beta=0.03, a=204.0)
    with pytest.raises(ValueError):
        synthesize_fog_pixel(-1.0, params, 10.0)
    with pytest.raises(ValueError):
        synthesize_fog_pixel(256.0, params, 10.0)


def test_fog_image_zero_distance_identity():
    clear = np.full((4, 6), 100.0)
    fog = IntensityFogParams(beta=0.1, a=204.0)
    out = synthesize_fog_image(clear, np.zeros((4, 6)), fog)
    assert np.allclose(out, clear)


def test_fog_image_limit_cases():
    clear = np.array([[50.0, 50.0]])
    d = np.array([[1e-12, 1e6]])
    out = synthesize_fog_image(clear, d, IntensityFogParams(beta=0.1, a=204.0))
    assert out[0, 0] == pytest.approx(50.0, abs=1e-6)
    assert out[0, 1] == pytest.approx(204.0, abs=1e-6)


def test_fog_image_color_channels():
    clear = np.zeros((2, 2, 3))
    d = np.full((2, 2), 1e6)
    per_channel = [IntensityFogParams(0.1, a) for a in (200.0, 150.0, 100.0)]
    out = synthesize_fog_image(clear, d, per_channel)
    assert np.allclose(out[..., 0], 200.0)
    assert np.allclose(out[..., 1], 150.0)
    assert np.allclose(out[..., 2], 100.0)


def test_fog_image_is_the_per_channel_pixel_render():
    rng = np.random.default_rng(3)
    d = rng.uniform(0.0, 200.0, size=(5, 7))
    per_channel = [IntensityFogParams(0.02, 210.0), IntensityFogParams(0.05, 180.0),
                   IntensityFogParams(0.11, 90.0)]
    color = rng.uniform(0.0, 255.0, size=(5, 7, 3))
    expected = np.stack([synthesize_fog_pixel(color[..., c], p, d)
                         for c, p in enumerate(per_channel)], axis=-1)
    assert synthesize_fog_image(color, d, per_channel).tobytes() == expected.tobytes()
    gray = color[..., 0]
    for params in (per_channel[1], per_channel[1:2]):
        out = synthesize_fog_image(gray, d, params)
        assert out.shape == gray.shape
        assert out.tobytes() == synthesize_fog_pixel(gray, per_channel[1], d).tobytes()


def test_fog_image_takes_one_parameter_set_per_channel():
    fog = IntensityFogParams(beta=0.1, a=204.0)
    with pytest.raises(ValueError, match=r"one parameter set per channel \(3\) expected, got 2"):
        synthesize_fog_image(np.zeros((2, 2, 3)), np.ones((2, 2)), [fog, fog])
    with pytest.raises(ValueError, match=r"one parameter set per channel \(1\) expected, got 3"):
        synthesize_fog_image(np.zeros((2, 2)), np.ones((2, 2)), [fog] * 3)


def test_fog_image_shape_validation():
    fog = IntensityFogParams(beta=0.1, a=204.0)
    with pytest.raises(ValueError):
        synthesize_fog_image(np.zeros((4, 4)), np.ones((3, 3)), fog)
    with pytest.raises(ValueError, match="^distances must be finite and non-negative$"):
        synthesize_fog_image(np.zeros((4, 4)), -np.ones((4, 4)), fog)
    with pytest.raises(ValueError, match="clear image must be HxW or HxWx3"):
        synthesize_fog_image(np.zeros((4, 4, 2)), np.ones((4, 4)), fog)


def test_params_validation():
    with pytest.raises(ValueError):
        FogParams(beta=0.0, l_inf=100.0)
    with pytest.raises(ValueError):
        FogParams(beta=0.1, l_inf=math.inf)
    with pytest.raises(ValueError):
        IntensityFogParams(beta=-0.1, a=100.0)
    with pytest.raises(ValueError):
        IntensityFogParams(beta=0.1, a=300.0)


def test_quantize_to_u8():
    img = np.array([[-3.0, 0.4, 0.5, 254.6, 300.0]])
    out = quantize_to_u8(img)
    assert out.dtype == np.uint8
    assert out.tolist() == [[0, 0, 0, 255, 255]]
    with pytest.raises(ValueError):
        quantize_to_u8(np.array([math.nan]))

