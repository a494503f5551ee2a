"""Dark-channel atmospheric light and pairwise-beta histogram baselines."""

import math

import numpy as np
import pytest

from foglab.baselines import (HistogramConfig, dark_channel, dump_histogram,
                              estimate_a_modified, estimate_a_original,
                              estimate_beta_histogram, load_histogram,
                              pairwise_betas)
from foglab.errors import NotEnoughDataError
from foglab.localmap import Observation, ObservationSet
from foglab.scattering import IntensityFogParams, synthesize_fog_image


def obs_set(groups):
    return ObservationSet({
        n: tuple(Observation(frame=i, distance=float(d), radiance=float(v))
                 for i, (d, v) in enumerate(pairs))
        for n, pairs in groups.items()})


def intensity(j, a, beta, d):
    t = math.exp(-beta * d)
    return j * t + a * (1.0 - t)


# --- dark channel / atmospheric light -------------------------------------------

def test_dark_channel_uniform_image():
    img = np.full((20, 30), 137.0)
    assert np.array_equal(dark_channel(img), img)


def test_dark_channel_takes_channel_minimum():
    img = np.stack([np.full((5, 5), 80.0), np.full((5, 5), 60.0),
                    np.full((5, 5), 90.0)], axis=2)
    assert np.array_equal(dark_channel(img, radius=0), np.full((5, 5), 60.0))


def test_dark_channel_min_filter_dilates_dark_pixel():
    img = np.full((9, 9), 200.0)
    img[4, 4] = 10.0
    dc = dark_channel(img, radius=1)
    assert np.all(dc[3:6, 3:6] == 10.0)
    assert dc[0, 0] == 200.0


def test_dark_channel_validation():
    with pytest.raises(ValueError):
        dark_channel(np.zeros(5))
    with pytest.raises(ValueError):
        dark_channel(np.zeros((5, 5)), radius=-1)


def test_a_estimators_on_uniform_image():
    img = np.full((50, 50), 200.0)
    assert estimate_a_original(img) == 200.0
    assert estimate_a_modified(img) == 200.0


def test_a_estimators_pick_fog_region():
    # left half: near, dark scene; right half: fully fog-washed at a=204
    img = np.full((40, 80), 204.0)
    img[:, :40] = 30.0
    assert estimate_a_original(img) == 204.0
    assert estimate_a_modified(img) == 204.0


def test_a_original_exceeds_modified_with_outlier():
    # a lone saturated pixel inside the fog region drags the max up while
    # the median stays put
    img = np.full((40, 80), 204.0)
    img[:, :40] = 30.0
    img[0, 79] = 255.0
    assert estimate_a_original(img, radius=0) == 255.0
    assert estimate_a_modified(img, radius=0) == 204.0


def test_a_estimators_on_synthesized_fog():
    rng = np.random.default_rng(4)
    clear = rng.uniform(20.0, 80.0, size=(60, 60))
    dist = rng.uniform(150.0, 300.0, size=(60, 60))
    img = synthesize_fog_image(clear, dist, IntensityFogParams(beta=0.05, a=204.0))
    assert estimate_a_modified(img) == pytest.approx(204.0, abs=5.0)


def test_a_color_image_gives_per_channel_values():
    img = np.full((40, 40, 3), 204.0)
    img[..., 1] = 190.0
    out = estimate_a_modified(img)
    assert out.shape == (3,)
    assert out[0] == 204.0 and out[1] == 190.0


# --- pairwise beta ----------------------------------------------------------------

def test_pairwise_beta_exact_on_noiseless_model():
    a, beta, j = 200.0, 0.1, 50.0
    obs = obs_set({0: [(10.0, intensity(j, a, beta, 10.0)),
                       (100.0, intensity(j, a, beta, 100.0))]})
    values = pairwise_betas(obs, a)
    assert values == pytest.approx([0.1], rel=1e-12)


def test_pairwise_beta_requires_inverse_depth_gap():
    a = 200.0
    # 1/50 - 1/52 ~ 0.00077 < 0.01: too close in inverse depth
    obs = obs_set({0: [(50.0, 120.0), (52.0, 125.0)]})
    assert pairwise_betas(obs, a).size == 0
    loose = HistogramConfig(min_inverse_depth_gap=0.0005)
    assert pairwise_betas(obs, a, loose).size == 1


def test_pairwise_beta_skips_sign_flips_and_zeros():
    a = 200.0
    obs = obs_set({0: [(10.0, 150.0), (100.0, 210.0)],   # straddles a
                   1: [(10.0, 200.0), (100.0, 190.0)]})  # hits a exactly
    assert pairwise_betas(obs, a).size == 0


def test_pairwise_beta_all_pairs_within_landmark():
    a, beta, j = 200.0, 0.05, 40.0
    dists = [10.0, 20.0, 50.0]
    obs = obs_set({0: [(d, intensity(j, a, beta, d)) for d in dists]})
    values = pairwise_betas(obs, a)
    assert values.size == 3              # all C(3,2) pairs pass the gap test
    assert values == pytest.approx([0.05] * 3, rel=1e-10)


def test_histogram_vote_recovers_beta_within_half_bin():
    a, beta, j = 200.0, 0.1, 50.0
    groups = {n: [(d, intensity(j + n, a, beta, d)) for d in (10.0, 40.0, 90.0)]
              for n in range(10)}
    est, (centers, counts) = estimate_beta_histogram(obs_set(groups), a)
    assert abs(est - beta) <= 0.0005 + 1e-12
    assert counts.sum() == 30
    assert centers.shape == counts.shape


def test_histogram_tie_resolves_to_lower_bin():
    a = 200.0
    # two landmarks engineered to vote for two different bins, one vote each
    def pair_for(beta):
        return [(10.0, intensity(50.0, a, beta, 10.0)),
                (90.0, intensity(50.0, a, beta, 90.0))]
    obs = obs_set({0: pair_for(0.0552), 1: pair_for(0.0718)})
    est, _ = estimate_beta_histogram(obs, a)
    assert est == pytest.approx(0.0555)


def test_bounded_histogram_discards_out_of_range():
    a = 200.0
    def pair_for(beta, d1, d2):
        return [(d1, intensity(50.0, a, beta, d1)),
                (d2, intensity(50.0, a, beta, d2))]
    # two votes near 0.3 (implausible), one at 0.0552; short ranges keep the
    # implausible pairs away from full saturation
    obs = obs_set({0: pair_for(0.3002, 5.0, 15.0),
                   1: pair_for(0.3004, 5.0, 15.0),
                   2: pair_for(0.0552, 10.0, 90.0)})
    unbounded, _ = estimate_beta_histogram(obs, a, HistogramConfig())
    bounded, _ = estimate_beta_histogram(obs, a, HistogramConfig.bounded())
    assert unbounded == pytest.approx(0.3005)
    assert bounded == pytest.approx(0.0555)


def test_bounded_histogram_discards_negative_values():
    a = 200.0
    obs = obs_set({0: [(10.0, 100.0), (90.0, 90.0)],     # intensity drops: beta < 0
                   1: [(10.0, intensity(50.0, a, 0.05, 10.0)),
                       (90.0, intensity(50.0, a, 0.05, 90.0))]})
    values = pairwise_betas(obs, a)
    assert (values < 0).sum() == 1
    bounded, _ = estimate_beta_histogram(obs, a, HistogramConfig.bounded())
    assert bounded == pytest.approx(0.0505)


def test_histogram_with_no_pairs_raises():
    obs = obs_set({0: [(50.0, 120.0), (52.0, 125.0)]})   # gap filter kills the pair
    with pytest.raises(NotEnoughDataError):
        estimate_beta_histogram(obs, 200.0)


def test_histogram_config_validation():
    with pytest.raises(ValueError):
        HistogramConfig(bin_width=0.0)
    with pytest.raises(ValueError):
        HistogramConfig(min_inverse_depth_gap=-1.0)
    with pytest.raises(ValueError):
        HistogramConfig(min_inverse_depth_gap=math.nan)
    with pytest.raises(ValueError):
        HistogramConfig(bin_width=math.nan)
    with pytest.raises(ValueError):
        HistogramConfig(bin_width=math.inf)
    with pytest.raises(ValueError):
        HistogramConfig(beta_range=(0.2, 0.1))
    assert HistogramConfig.bounded().beta_range == (0.001, 0.2)


def test_histogram_dump_load_round_trip(tmp_path):
    centers = np.array([0.0005, 0.0995, 0.1005])
    counts = np.array([3, 17, 4])
    path = tmp_path / "hist.txt"
    dump_histogram(path, centers, counts)
    c, k = load_histogram(path)
    assert np.array_equal(c, centers) and np.array_equal(k, counts)
