"""Dark-channel atmospheric light and pairwise-beta histogram baselines."""

import math

import numpy as np
import pytest

from foglab.baselines import (HistogramConfig, dark_channel, dump_histogram, estimate_a,
                              estimate_a_modified, estimate_a_original,
                              estimate_beta_histogram, pairwise_betas)
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


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (64, 96)])
@pytest.mark.parametrize("radius", [*range(5), 50, 10**6])
def test_dark_channel_is_the_clamped_window_minimum(shape, radius):
    image = np.random.default_rng(radius).integers(0, 256, shape + (3,)).astype(float)
    gray = image.min(axis=2)
    h, w = shape
    expected = np.empty(shape)
    for y in range(h):
        for x in range(w):
            # the window is clamped to the image: the border pixels repeat
            expected[y, x] = gray[max(y - radius, 0):y + radius + 1,
                                  max(x - radius, 0):x + radius + 1].min()
    assert np.array_equal(dark_channel(image, radius), expected)


def test_dark_channel_validation():
    with pytest.raises(ValueError):
        dark_channel(np.zeros(5))
    with pytest.raises(ValueError):
        dark_channel(np.zeros((5, 5)), radius=-1)
    for shape in [(0, 4), (3, 0)]:
        with pytest.raises(ValueError, match="^image must not be empty$"):
            dark_channel(np.zeros(shape), radius=0)


def test_a_estimators_on_uniform_image():
    img = np.full((50, 50), 200.0)
    assert estimate_a(img) == (200.0, 200.0)


def test_a_estimators_pick_fog_region():
    # left half: near, dark scene; right half: fully fog-washed at a=204
    img = np.full((40, 80), 204.0)
    img[:, :40] = 30.0
    assert estimate_a(img) == (204.0, 204.0)


def test_a_original_exceeds_modified_with_outlier():
    # a lone saturated pixel inside the fog region drags the max up while
    # the median stays put
    img = np.full((40, 80), 204.0)
    img[:, :40] = 30.0
    img[0, 79] = 255.0
    assert estimate_a(img, radius=0) == (255.0, 204.0)


def test_a_estimators_on_synthesized_fog():
    rng = np.random.default_rng(4)
    clear = rng.uniform(20.0, 80.0, size=(60, 60))
    dist = rng.uniform(150.0, 300.0, size=(60, 60))
    img = synthesize_fog_image(clear, dist, IntensityFogParams(beta=0.05, a=204.0))
    assert estimate_a(img)[1] == pytest.approx(204.0, abs=5.0)


def test_a_color_image_gives_per_channel_values():
    img = np.full((40, 40, 3), 204.0)
    img[..., 1] = 190.0
    for out in estimate_a(img):
        assert out.shape == (3,)
        assert out[0] == 204.0 and out[1] == 190.0


# --- pairwise beta ----------------------------------------------------------------


def test_top_dark_pixels_break_ties_by_flat_index():
    # 3000 pixels: the top 0.1 % are 3; channel 1 tags each pixel
    image = np.full((50, 60, 3), 10.0)
    tied = [2999, 7, 1500, 123, 42]
    for tag, k in enumerate([2500, *tied]):
        image.reshape(-1, 3)[k] = (220.0 if k == 2500 else 200.0, 230.0 + tag, 240.0)
    a_max, a_med = estimate_a(image, radius=0)
    # the darkest value first, then the tied pixels in flat index order:
    # tags 230, 232 and 235; any other tied pair moves the maximum or median
    assert (a_max[1], a_med[1]) == (235.0, 232.0)


def test_the_single_rule_names_are_the_parts_of_estimate_a():
    img = np.random.default_rng(5).integers(0, 256, (30, 40, 3)).astype(float)
    for image in (img, img[..., 0]):
        a_orig, a_mod = estimate_a(image)
        assert np.array_equal(estimate_a_original(image), a_orig)
        assert np.array_equal(estimate_a_modified(image), a_mod)


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


def test_pairwise_beta_skips_pairs_at_equal_distance():
    # with no inverse-depth gap, two sightings at 50 m would divide by zero
    a, beta, j = 200.0, 0.05, 40.0
    obs = obs_set({0: [(50.0, 150.0), (50.0, 151.0), (100.0, intensity(j, a, beta, 100.0))]})
    values = pairwise_betas(obs, a, HistogramConfig(min_inverse_depth_gap=0.0))
    assert values.size == 2
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("a", [np.array([204.0, 200.0, 196.0]), math.inf, math.nan])
def test_pairwise_beta_needs_one_finite_atmospheric_value(a):
    obs = obs_set({0: [(10.0, 100.0), (100.0, 150.0)]})
    with pytest.raises(ValueError, match="one finite atmospheric value"):
        pairwise_betas(obs, a)


def reference_pairwise_betas(obs, a, config):
    """The nested loop over each landmark's row pairs i < j, plus the skip
    of pairs at equal distance."""
    values = []
    distances, levels = obs.distance.tolist(), obs.radiance.tolist()
    for first, last in zip(obs.near.tolist(), obs.far.tolist()):
        for i in range(first, last + 1):
            for j in range(i + 1, last + 1):
                d1, d2 = distances[i], distances[j]
                if d1 == d2 or abs(1.0 / d1 - 1.0 / d2) < config.min_inverse_depth_gap:
                    continue
                num = levels[j] - a
                den = levels[i] - a
                if num == 0 or den == 0 or (num > 0) != (den > 0):
                    continue
                b = math.log(num / den) / (d1 - d2)
                if math.isfinite(b):
                    values.append(b)
    return np.array(values)


@pytest.mark.parametrize("tau", [0.01, 0.0])
def test_pairwise_betas_match_the_nested_loop(tau):
    """Bitwise and in order, on levels around ``a``, half of them quantized
    (zeros and sign flips), and distances with ties. Thousands of pairs, so
    that ``np.log`` in place of ``math.log`` would show."""
    rng = np.random.default_rng(5)
    config = HistogramConfig(min_inverse_depth_gap=tau)
    for trial in range(20):
        n_landmarks = rng.integers(1, 12)
        landmark = np.repeat(np.arange(n_landmarks), rng.integers(1, 25, n_landmarks))
        n = landmark.size
        tied = rng.choice([12.0, 20.0, 50.0, 50.0, 90.0], n)
        distance = np.where(rng.random(n) < 0.5, tied, rng.uniform(5.0, 150.0, n))
        level = rng.uniform(150.0, 255.0, n)
        level = np.where(rng.random(n) < 0.5, np.round(level), level)
        obs = ObservationSet.from_columns(np.arange(n), landmark, distance, level)
        for a in (204.0, 204.5):
            got = pairwise_betas(obs, a, config)
            want = reference_pairwise_betas(obs, a, config)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (trial, a)


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


def test_histogram_bins_narrower_than_an_int64_can_count():
    # a beta of 0.06 lies 6e298 bins of 1e-300 from zero, far beyond 2**63:
    # the bins stay floats, each value gets its own, the lower of a tie wins
    a = 200.0
    obs = obs_set({0: [(10.0, intensity(50.0, a, 0.0552, 10.0)),
                       (90.0, intensity(50.0, a, 0.0552, 90.0))],
                   1: [(10.0, intensity(50.0, a, 0.0718, 10.0)),
                       (90.0, intensity(50.0, a, 0.0718, 90.0))]})
    est, (centers, counts) = estimate_beta_histogram(obs, a, HistogramConfig(bin_width=1e-300))
    assert est == pytest.approx(0.0552) and est > 0
    assert centers == pytest.approx([0.0552, 0.0718]) and counts.tolist() == [1, 1]


def test_histogram_refuses_a_bin_width_no_value_can_be_divided_by():
    a = 200.0
    obs = obs_set({0: [(10.0, intensity(50.0, a, 0.0552, 10.0)),
                       (90.0, intensity(50.0, a, 0.0552, 90.0))]})
    # a subnormal width: v / width overflows to inf, and no warning is raised
    with pytest.raises(ValueError, match="^bin_width 1e-320 is too small"):
        estimate_beta_histogram(obs, a, HistogramConfig(bin_width=1e-320))


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
    table = np.loadtxt(path, ndmin=2)
    assert np.array_equal(table[:, 0], centers) and np.array_equal(table[:, 1], counts)
