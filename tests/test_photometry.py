"""Gamma expansion/compression and calibration fitting."""

import re

import numpy as np
import pytest

from foglab.errors import MapFormatError
from foglab.photometry import (CalibrationSeries, ChannelGammaMaps, GammaMap,
                               compress, expand, fit_gamma_map,
                               load_gamma_file, save_gamma_file)


def test_identity_map_expand_is_identity():
    ident = GammaMap.identity()
    levels = np.arange(256, dtype=float)
    assert np.allclose(expand(ident, levels), levels)
    assert expand(ident, 0.0) == 0.0


def test_expand_reference_value():
    gmap = GammaMap(alpha=0.01, gamma=2.0, zeta=0.5)
    assert expand(gmap, 100.0) == pytest.approx(100.5, rel=1e-12)


def test_compress_inverts_expand():
    gmap = GammaMap(alpha=0.01, gamma=2.0, zeta=0.5)
    assert compress(gmap, 100.5) == pytest.approx(100.0, rel=1e-12)
    ident = GammaMap.identity()
    assert np.allclose(compress(ident, np.arange(256.0)), np.arange(256.0))


def test_expand_rejects_out_of_range_intensity():
    gmap = GammaMap.identity()
    for bad in (-0.5, 255.5, np.nan, np.inf, -np.inf, -1e-300, 255 + 1e-13):
        for i in (bad, [bad], [100.0, bad, 3.0]):
            with pytest.raises(ValueError, match=re.escape("intensities must lie in [0, 255]")):
                expand(gmap, i)
    assert expand(gmap, []).shape == (0,)
    assert expand(gmap, [-0.0, 255.0]).tolist() == [0.0, 255.0]


def test_compress_clamp_behavior():
    gmap = GammaMap(alpha=2.0, gamma=1.0, zeta=10.0)   # radiance range [10, 520]
    message = "radiance outside [10.0, 520.0]; pass clamp=True to clip"
    for bad in (5.0, 520.5, 10.0 - 1e-12, np.nan, np.inf, -np.inf):
        for l in (bad, [bad], [100.0, bad]):
            with pytest.raises(ValueError, match=re.escape(message)):
                compress(gmap, l)
    assert compress(gmap, []).shape == (0,)
    assert compress(gmap, [10.0, 520.0]).tolist() == [0.0, 255.0]
    assert np.isnan(compress(gmap, np.nan, clamp=True))
    assert compress(gmap, 5.0, clamp=True) == 0.0
    assert compress(gmap, 600.0, clamp=True) == 255.0


@pytest.mark.parametrize("zeta", [-2.0, 0.0, 2.0])
def test_radiance_range_is_what_expand_reaches(zeta):
    # alpha puts expand(255) near 255; Python's ``**`` and numpy's power
    # disagree in the last bit on part of this grid. When the range's top was
    # Python's ``**``, gamma = 2.4439929553806308 and zeta = 0 gave a top one
    # ulp below expand(255), and compress refused "radiance outside [0.0, 255.0]".
    for gamma in np.linspace(0.2, 5.0, 4001).tolist() + [2.4439929553806308]:
        gmap = GammaMap(255.0 ** (1.0 - gamma), gamma, zeta)
        ends = expand(gmap, [0.0, 255.0])
        assert gmap.radiance_range == tuple(ends.tolist())
        compress(gmap, ends)


def test_expand_strictly_increasing():
    gmap = GammaMap(alpha=0.3, gamma=2.7, zeta=-4.0)
    vals = expand(gmap, np.linspace(0.0, 255.0, 300))
    assert np.all(np.diff(vals) > 0)


def test_gamma_map_validation():
    with pytest.raises(ValueError):
        GammaMap(alpha=0.0, gamma=1.0, zeta=0.0)
    with pytest.raises(ValueError):
        GammaMap(alpha=1.0, gamma=-2.0, zeta=0.0)


def _series_from(gmap: GammaMap, levels) -> CalibrationSeries:
    levels = np.asarray(levels, dtype=float)
    return CalibrationSeries(levels, expand(gmap, levels))


def test_fit_recovers_identity():
    series = _series_from(GammaMap.identity(), np.linspace(5.0, 250.0, 20))
    fitted, resid = fit_gamma_map(series)
    assert fitted.alpha == pytest.approx(1.0, abs=1e-6)
    assert fitted.gamma == pytest.approx(1.0, abs=1e-6)
    assert fitted.zeta == pytest.approx(0.0, abs=1e-6)
    assert resid < 1e-8


def test_fit_recovers_known_map():
    truth = GammaMap(alpha=0.02, gamma=2.2, zeta=0.1)
    series = _series_from(truth, np.linspace(5.0, 250.0, 20))
    fitted, resid = fit_gamma_map(series)
    assert fitted.alpha == pytest.approx(truth.alpha, rel=1e-6)
    assert fitted.gamma == pytest.approx(truth.gamma, rel=1e-6)
    assert fitted.zeta == pytest.approx(truth.zeta, abs=1e-6 * truth.alpha * 255.0)
    assert resid < 1e-8


def test_fit_is_order_invariant():
    truth = GammaMap(alpha=0.5, gamma=1.7, zeta=2.0)
    levels = np.linspace(10.0, 240.0, 16)
    series = _series_from(truth, levels)
    rng = np.random.default_rng(4)
    perm = rng.permutation(len(levels))
    shuffled = CalibrationSeries(series.intensities[perm], series.powers[perm])
    a, _ = fit_gamma_map(series)
    b, _ = fit_gamma_map(shuffled)
    assert a.gamma == pytest.approx(b.gamma, rel=1e-9)
    assert a.alpha == pytest.approx(b.alpha, rel=1e-9)


def test_fit_noisy_multiplicative():
    # Geometric level spacing spreads the samples evenly in log intensity,
    # which keeps the scale/exponent trade-off well conditioned, and the
    # offset is sized against the power scale so a relative tolerance on it
    # is meaningful.
    truth = GammaMap(alpha=0.05, gamma=1.4, zeta=11.0)
    levels = np.geomspace(15.0, 250.0, 20)
    rng = np.random.default_rng(1)
    powers = expand(truth, levels) * (1.0 + 0.01 * rng.standard_normal(levels.size))
    fitted, _ = fit_gamma_map(CalibrationSeries(levels, powers))
    assert fitted.alpha == pytest.approx(truth.alpha, rel=0.05)
    assert fitted.gamma == pytest.approx(truth.gamma, rel=0.05)
    assert fitted.zeta == pytest.approx(truth.zeta, rel=0.05)


def test_fit_upward_bending_data_gives_gamma_above_one():
    # measured response curves of real sensors bend upwards
    truth = GammaMap(alpha=255.0 ** (1 - 2.4), gamma=2.4, zeta=0.0)
    fitted, _ = fit_gamma_map(_series_from(truth, np.linspace(10.0, 250.0, 24)))
    assert fitted.gamma > 1.0


def test_constant_powers_are_rejected():
    # a flat response curve cannot constrain any parameter
    with pytest.raises(ValueError):
        CalibrationSeries(np.array([0.0, 10.0, 20.0, 30.0]),
                          np.array([5.0, 5.0, 5.0, 5.0]))


def test_calibration_series_validation():
    with pytest.raises(ValueError):
        CalibrationSeries(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):   # intensities must increase with power
        CalibrationSeries(np.array([0.0, 10.0, 5.0, 20.0]),
                          np.array([0.0, 1.0, 2.0, 3.0]))


def test_gamma_file_round_trip(tmp_path):
    maps = ChannelGammaMaps(
        gray=GammaMap(0.5, 2.0, 1.0),
        r=GammaMap(0.4, 2.1, 0.0),
        g=GammaMap(0.6, 1.9, -1.0),
        b=GammaMap(0.7, 2.3, 0.5))
    path = tmp_path / "cam.gamma"
    save_gamma_file(maps, path)
    loaded = load_gamma_file(path)
    for ch in ("gray", "r", "g", "b"):
        got, want = loaded.for_channel(ch), maps.for_channel(ch)
        assert got.alpha == pytest.approx(want.alpha, rel=1e-12)
        assert got.gamma == pytest.approx(want.gamma, rel=1e-12)
        assert got.zeta == pytest.approx(want.zeta, rel=1e-12)


def test_gamma_file_missing_color_defaults_to_gray(tmp_path):
    path = tmp_path / "gray_only.gamma"
    path.write_text("gray 2.0 1.5 0.25\n")
    loaded = load_gamma_file(path)
    assert loaded.r == loaded.gray
    assert loaded.gray.alpha == pytest.approx(2.0)
    assert loaded.gray.gamma == pytest.approx(1.5)


def test_gamma_file_refuses_digit_groups(tmp_path):
    # Python's float would read 1_0 as 10
    path = tmp_path / "grouped.gamma"
    path.write_text("# channel alpha gamma zeta\ngray 1_0 2.2 0\n")
    with pytest.raises(MapFormatError, match="^line 2: '_' in '1_0'$"):
        load_gamma_file(path)


def test_gamma_file_reports_a_byte_that_is_not_ascii_on_its_line(tmp_path):
    path = tmp_path / "cam.gamma"
    path.write_bytes("# channel alpha gamma zeta\ngray 2.0 1.5 0.25 # \u00bd\n".encode("utf-8"))
    with pytest.raises(MapFormatError, match="^line 2: byte 0xc2 is not ASCII$"):
        load_gamma_file(path)


def test_gamma_file_requires_gray(tmp_path):
    path = tmp_path / "no_gray.gamma"
    path.write_text("r 1.0 1.0 0.0\n")
    with pytest.raises(Exception):
        load_gamma_file(path)
