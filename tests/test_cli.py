"""End-to-end command line behavior (exit codes, files, printed records)."""

import argparse
import json

import numpy as np
import pytest

from foglab.cli import _load_gamma, build_parser, cli_main, integer, number
from foglab.errors import MapFormatError
from foglab.estimator import (EstimatorState, estimate, format_estimate_record,
                              parse_estimate_record)
from foglab.localmap import LocalMapGraph, generate_dr_pairs, save_map
from foglab.photometry import CHANNEL_NAMES, GammaMap, expand, load_gamma_file
from foglab.rasters import read_distance_map, read_image, write_distance_map, write_image
from foglab.scattering import (FogParams, IntensityFogParams, quantize_to_u8,
                               synthesize_fog_image)
from foglab.simulator import (NoiseSpec, SceneSpec, gamma_bias_experiment,
                              generate_scene)


def run(*argv):
    return cli_main([str(a) for a in argv])


def make_map(tmp_path, name="scene.map", **overrides):
    args = {"landmarks": 20, "frames": 6, "visibility": 50.0,
            "noise-std": 0.0, "seed": 0}
    args.update(overrides)
    out = tmp_path / name
    truth = tmp_path / (name + ".truth.json")
    argv = ["simulate", "--out", out, "--truth-out", truth, "--no-quantize"]
    for k, v in args.items():
        argv += [f"--{k}", v]
    assert run(*argv) == 0
    return out, json.loads(truth.read_text())


def test_simulate_then_estimate_recovers_truth(tmp_path, capsys):
    map_path, truth = make_map(tmp_path)
    out = tmp_path / "records.txt"
    assert run("estimate", map_path, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    rec = parse_estimate_record(lines[0])
    assert rec["beta"] == pytest.approx(truth["beta"], rel=1e-6)
    assert rec["l_inf"] == pytest.approx(truth["atmospheric"], rel=1e-6)
    assert rec["channel"] == "gray" and rec["degraded"] == 0


def test_estimate_stdout_and_update_gate(tmp_path, capsys):
    map_path, _ = make_map(tmp_path)
    capsys.readouterr()                      # drop the simulate chatter
    # the same map twice: the platform has not moved, so the second update
    # is gated off
    assert run("estimate", map_path, map_path) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 2
    parse_estimate_record(out_lines[0])
    assert out_lines[1].startswith("#") and "skipped" in out_lines[1]


def test_estimate_insufficient_map_fails(tmp_path, capsys):
    map_path, _ = make_map(tmp_path, landmarks=5)
    assert run("estimate", map_path) == 1
    assert "xi_k" in capsys.readouterr().err


def test_estimate_rejects_thresholds_before_reading_the_map(tmp_path, capsys):
    missing = tmp_path / "nope.map"
    gate = "--update-gate must be finite and non-negative"
    for flag, value, message in [("--xi-f", 1, "xi_f must be at least 2"),
                                 ("--xi-k", 0, "xi_k must be at least 1"),
                                 ("--update-gate", -1.0, gate),
                                 ("--update-gate", "nan", gate),
                                 ("--update-gate", "inf", gate),
                                 ("--beta-max", "inf",
                                  "beta bounds must satisfy 0 < lower < upper < inf"),
                                 ("--delta", 300,
                                  "delta must lie in (0, 255] intensity levels, got 300.0")]:
        assert run("estimate", flag, value, missing) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_estimate_on_a_color_map_uses_each_channels_gamma_map(tmp_path):
    # one simulated scene per color channel: same distances and clear values,
    # a different fog in each
    spec = SceneSpec(n_landmarks=16, n_frames=6)
    scenes = [generate_scene(spec, FogParams(beta, 200.0), GammaMap.identity(),
                             NoiseSpec(std=0.5, seed=3))[0] for beta in (0.03, 0.05, 0.08)]
    edges = scenes[0].edges
    graph = LocalMapGraph.from_edges(
        edges["frame"], edges["landmark"], edges["distance"],
        np.column_stack([g.edges["intensity"][:, 0] for g in scenes]), 3,
        frames=scenes[0].frames)
    map_path, gamma_path = tmp_path / "color.map", tmp_path / "color.gamma"
    save_map(graph, map_path)
    gamma_path.write_text("gray 1.0 1.0 0.0\nr 0.5 1.2 3.0\n")    # g, b fall back
    maps = load_gamma_file(gamma_path)
    assert maps.r != maps.gray
    lines = {}
    for channel in CHANNEL_NAMES:
        out = tmp_path / f"{channel}.txt"
        assert run("estimate", map_path, "--gamma", gamma_path, "--channel", channel,
                   "--out", out) == 0
        lines[channel] = out.read_text()
        gmap = maps.for_channel(channel)
        result = estimate(generate_dr_pairs(graph, gmap, channel), gmap, EstimatorState())
        assert lines[channel] == format_estimate_record(5, channel, result) + "\n"
    assert len({line.split(" ", 2)[2] for line in lines.values()}) == 4


def test_gamma_identity_maps_every_channel_to_the_identity():
    # the default of --gamma
    maps = _load_gamma("identity")
    assert [maps.for_channel(c) for c in CHANNEL_NAMES] == [GammaMap.identity()] * 4


def test_estimate_missing_file_fails(tmp_path, capsys):
    assert run("estimate", tmp_path / "nope.map") == 1
    assert "error:" in capsys.readouterr().err


def test_baseline_from_image_and_map(tmp_path, capsys):
    rng = np.random.default_rng(0)
    clear = rng.uniform(25.0, 90.0, size=(64, 64))
    dist = np.full((64, 64), 400.0)          # fog-opaque: image shows a
    dist[40:, :] = 30.0
    img = quantize_to_u8(synthesize_fog_image(
        clear, dist, IntensityFogParams(beta=0.0999, a=204.0)))
    img_path = tmp_path / "frame.pgm"
    write_image(img_path, img)
    map_path, truth = make_map(tmp_path, visibility=30.0)
    hist_path = tmp_path / "hist.txt"
    assert run("baseline", "--image", img_path, "--map", map_path,
               "--hist-out", hist_path) == 0
    out = capsys.readouterr().out
    assert "a_original=" in out and "beta=" in out
    assert np.loadtxt(hist_path, ndmin=2)[:, 1].sum() > 0


@pytest.mark.parametrize("sample", ["300", "-4"])
def test_baseline_rejects_an_ascii_sample_out_of_range(tmp_path, capsys, sample):
    img_path = tmp_path / "frame.pgm"
    img_path.write_text(f"P2\n2 1\n255\n10 {sample}\n")
    assert run("baseline", "--image", img_path) == 1
    assert f"error: ascii sample {sample} outside [0, 255]" in capsys.readouterr().err


@pytest.mark.parametrize("text, what", [("P2\n2 1\n255\n10 x\n", "ascii sample 'x'"),
                                        ("P2\nx 1\n255\n10\n", "header value 'x'"),
                                        ("P2\n2 1\n255\n1_0 20\n", "ascii sample '1_0'"),
                                        ("P2\n2 1\n25_5\n10 20\n", "header value '25_5'")],
                         ids=["sample", "header", "sample-digit-groups",
                              "header-digit-groups"])
def test_read_image_rejects_a_non_integer_ascii_token(tmp_path, text, what):
    img_path = tmp_path / "frame.pgm"
    img_path.write_text(text)
    with pytest.raises(MapFormatError, match=f"{what} is not an integer"):
        read_image(img_path)


@pytest.mark.parametrize("header", [b"P5\n-2 -2\n255\n", b"P2\n0 2\n255\n"],
                         ids=["negative", "zero"])
def test_read_image_rejects_a_size_below_one(tmp_path, header):
    img_path = tmp_path / "frame.pgm"
    img_path.write_bytes(header)
    with pytest.raises(MapFormatError, match="netpbm size .* is empty or negative"):
        read_image(img_path)


def test_synthesize_fog_rejects_a_distance_map_size_below_one(tmp_path, capsys):
    write_image(tmp_path / "clear.pgm", np.zeros((2, 2), dtype=np.uint8))
    (tmp_path / "d.dist").write_bytes(b"distmap float32\n-2 -2\n" + bytes(16))
    assert run("synthesize-fog", "--clear", tmp_path / "clear.pgm",
               "--distances", tmp_path / "d.dist", "--out", tmp_path / "f.pgm") == 1
    assert "distance map size -2x-2 is empty or negative" in capsys.readouterr().err


def test_read_distance_map_refuses_digit_groups(tmp_path):
    path = tmp_path / "d.dist"
    path.write_bytes(b"distmap float32\n1_0 1\n" + bytes(40))
    with pytest.raises(MapFormatError, match="^bad distance map size line: '_' in '1_0'$"):
        read_distance_map(path)


def test_baseline_with_explicit_a(tmp_path, capsys):
    map_path, truth = make_map(tmp_path, visibility=30.0)
    assert run("baseline", "--map", map_path, "--a", 204.0) == 0
    line = capsys.readouterr().out.strip()
    beta = float(line.split("beta=")[1].split()[0])
    assert beta == pytest.approx(truth["beta"], abs=0.001)


@pytest.mark.parametrize("a", ["300", "-1", "nan"])
def test_baseline_refuses_an_atmospheric_intensity_outside_8_bits(tmp_path, capsys, a):
    map_path, _ = make_map(tmp_path)
    capsys.readouterr()                      # drop the simulate chatter
    assert run("baseline", "--map", map_path, "--a", a) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: atmospheric intensity must lie in [0, 255], got {float(a)}\n"


def test_baseline_with_a_bin_width_beyond_int64_bins(tmp_path, capsys):
    map_path, truth = make_map(tmp_path)
    capsys.readouterr()                      # drop the simulate chatter
    assert run("baseline", "--map", map_path, "--a", 204.0, "--bin-width", 1e-300) == 0
    line = capsys.readouterr().out.strip()
    beta = float(line.split("beta=")[1].split()[0])
    assert beta == pytest.approx(truth["beta"], rel=1e-9)
    assert run("baseline", "--map", map_path, "--a", 204.0, "--bin-width", 1e-320) == 1
    assert "error: bin_width 1e-320 is too small" in capsys.readouterr().err


def test_baseline_without_inverse_depth_gap_skips_equal_distances(tmp_path, capsys):
    # two sightings at 50 m: with --tau 0 their pair would divide by zero
    map_path = tmp_path / "m.map"
    map_path.write_text("localmap 3 1 3 1\nframe 0\nframe 1\nframe 2\nlandmark 0\n"
                        "edge 0 0 50.0 100\nedge 1 0 50.0 110\nedge 2 0 100.0 150\n")
    assert run("baseline", "--map", map_path, "--a", 204, "--tau", 0) == 0
    line = capsys.readouterr().out.strip()
    # one vote each at 0.0131 and 0.0111; the tie goes to the lower bin
    assert float(line.split("beta=")[1].split()[0]) == pytest.approx(0.0115)


def test_baseline_from_a_color_image_uses_the_luma_of_a(tmp_path, capsys):
    # every pixel is (200, 180, 160): both dark-channel rules give that a,
    # whose luma is the gray map's a
    img_path = tmp_path / "frame.ppm"
    write_image(img_path, np.tile(np.array([200, 180, 160], dtype=np.uint8), (32, 32, 1)))
    a = 0.299 * 200.0 + 0.587 * 180.0 + 0.114 * 160.0
    beta, clear = 0.0203, 50.0
    edges = "".join(f"edge {k} 0 {d} {float(a + (clear - a) * np.exp(-beta * d))!r}\n"
                    for k, d in enumerate((50.0, 75.0, 100.0)))
    map_path = tmp_path / "m.map"
    map_path.write_text("localmap 3 1 3 1\nframe 0\nframe 1\nframe 2\nlandmark 0\n" + edges)
    assert run("baseline", "--image", img_path, "--map", map_path) == 0
    out = capsys.readouterr().out
    assert "a_original=[200. 180. 160.]" in out
    assert f"a_gray={a!r}" in out
    # the three pairs give beta = 0.0203 up to rounding: the 0.020 bin wins
    assert float(out.split("beta=")[1].split()[0]) == pytest.approx(0.0205)
    # --a still overrides the image
    assert run("baseline", "--image", img_path, "--map", map_path, "--a", 200) == 0
    out = capsys.readouterr().out
    assert "a_gray" not in out and "a=200.0" in out


def test_baseline_radius_past_the_image_is_the_whole_image(tmp_path, capsys):
    # a 64x96 image: radius 95 already spans it, so a larger radius changes
    # nothing and allocates nothing more
    img_path = tmp_path / "frame.pgm"
    write_image(img_path, np.random.default_rng(2).integers(0, 256, (64, 96)).astype(np.uint8))
    assert run("baseline", "--image", img_path, "--radius", 95) == 0
    whole = capsys.readouterr().out
    assert run("baseline", "--image", img_path, "--radius", 1000000) == 0
    assert capsys.readouterr().out == whole


def test_baseline_map_without_a_fails(tmp_path, capsys):
    map_path, _ = make_map(tmp_path)
    assert run("baseline", "--map", map_path) == 1
    assert "--a" in capsys.readouterr().err


def test_fit_gamma_round_trip(tmp_path, capsys):
    truth = GammaMap(alpha=0.05, gamma=1.4, zeta=11.0)
    levels = np.geomspace(15.0, 250.0, 20)
    csv_path = tmp_path / "calib.csv"
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write("channel,intensity,power\n")
        for i in levels:
            fh.write(f"gray,{float(i)!r},{expand(truth, float(i))!r}\n")
        for i in levels:
            fh.write(f"r,{float(i)!r},{expand(truth, float(i)) * 2.0!r}\n")
    out = tmp_path / "cam.gamma"
    assert run("fit-gamma", "--csv", csv_path, "--out", out) == 0
    maps = load_gamma_file(out)
    assert maps.gray.gamma == pytest.approx(1.4, abs=1e-6)
    assert maps.gray.alpha == pytest.approx(0.05, rel=1e-4)
    assert maps.r.alpha == pytest.approx(0.10, rel=1e-4)
    assert maps.g == maps.gray               # unfitted channels fall back
    assert "gray:" in capsys.readouterr().out


def test_fit_gamma_requires_gray(tmp_path, capsys):
    csv_path = tmp_path / "calib.csv"
    csv_path.write_text("channel,intensity,power\nr,10,1\nr,20,2\nr,30,3\nr,40,4\n")
    assert run("fit-gamma", "--csv", csv_path, "--out", tmp_path / "o.gamma") == 1
    assert "gray" in capsys.readouterr().err


def test_fit_gamma_rejects_an_unknown_channel(tmp_path, capsys):
    csv_path = tmp_path / "calib.csv"
    rows = [f"{name},{i},{i / 10}" for name in ("gray", "red") for i in (10, 20, 30, 40)]
    csv_path.write_text("\n".join(["channel,intensity,power", *rows]) + "\n")
    out = tmp_path / "o.gamma"
    assert run("fit-gamma", "--csv", csv_path, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: csv line 6: unknown channel 'red'; "
                            f"expected one of {CHANNEL_NAMES}\n")
    assert captured.out == "" and not out.exists()


def test_fit_gamma_names_a_row_without_power(tmp_path, capsys):
    csv_path = tmp_path / "calib.csv"
    csv_path.write_text("channel,intensity,power\ngray,10,1\ngray,20\ngray,30,3\n")
    assert run("fit-gamma", "--csv", csv_path, "--out", tmp_path / "o.gamma") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: csv line 3: power must be a number")


def test_fit_gamma_refuses_digit_groups(tmp_path, capsys):
    csv_path = tmp_path / "calib.csv"
    csv_path.write_text("channel,intensity,power\ngray,10,1\ngray,2_0,2\n")
    assert run("fit-gamma", "--csv", csv_path, "--out", tmp_path / "o.gamma") == 1
    assert capsys.readouterr().err == "error: csv line 3: intensity must be a number, got '2_0'\n"


@pytest.mark.parametrize("command, header, row", [
    (["fit-gamma", "--out", "out.gamma", "--csv"], "channel,intensity,power", "gray,{},2"),
    (["metrics", "--csv"], "estimate,truth", "{},10.0")], ids=["fit-gamma", "metrics"])
def test_an_oversized_csv_field_names_its_line(tmp_path, monkeypatch, capsys,
                                               command, header, row):
    # csv refuses a field over 131,072 characters
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input.csv"
    path.write_text(f"{header}\n{row.format(10)}\n{row.format('1' * 200_000)}\n")
    assert run(*command, path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: csv line 3: field larger than field limit")
    assert "Traceback" not in err and sorted(tmp_path.iterdir()) == [path]


def test_synthesize_fog_command(tmp_path):
    clear = np.full((8, 10), 100, dtype=np.uint8)
    dist = np.full((8, 10), 50.0, dtype=np.float32)
    dist[0, 0] = 0.0                         # at-the-camera pixel: unchanged
    write_image(tmp_path / "clear.pgm", clear)
    write_distance_map(tmp_path / "d.dist", dist)
    out = tmp_path / "foggy.pgm"
    assert run("synthesize-fog", "--clear", tmp_path / "clear.pgm",
               "--distances", tmp_path / "d.dist",
               "--beta", 0.05, "--a", 204.0, "--out", out) == 0
    foggy = read_image(out)
    assert foggy.shape == (8, 10)
    assert foggy[0, 0] == 100
    expected = 100.0 * np.exp(-2.5) + 204.0 * (1 - np.exp(-2.5))
    assert float(foggy[3, 3]) == pytest.approx(expected, abs=1.0)


def test_metrics_command(tmp_path, capsys):
    csv_path = tmp_path / "est.csv"
    csv_path.write_text("estimate,truth\n11.0,10.0\n9.0,10.0\n")
    assert run("metrics", "--csv", csv_path) == 0
    out = capsys.readouterr().out
    assert "n=2" in out and "rmse=1 " in out
    assert run("metrics", "--csv", csv_path, "--truth", 10.0) == 0


def test_metrics_missing_truth_fails(tmp_path, capsys):
    csv_path = tmp_path / "est.csv"
    csv_path.write_text("estimate\n11.0\n")
    assert run("metrics", "--csv", csv_path) == 1
    assert "--truth" in capsys.readouterr().err


def test_metrics_names_a_short_row(tmp_path, capsys):
    csv_path = tmp_path / "est.csv"
    csv_path.write_text("estimate,truth\n11.0,10.0\n9.0\n")
    assert run("metrics", "--csv", csv_path) == 1
    assert capsys.readouterr().err.startswith("error: csv line 3: truth must be a number")


def test_metrics_missing_estimate_column_fails(tmp_path, capsys):
    csv_path = tmp_path / "est.csv"
    csv_path.write_text("estimate,truth\n11.0,10.0\n")
    assert run("metrics", "--csv", csv_path, "--column", "beta_est") == 1
    assert "error: csv has no column 'beta_est'" in capsys.readouterr().err


def test_experiment_gamma_bias(tmp_path, capsys):
    out = tmp_path / "pairs.csv"
    assert run("experiment", "gamma-bias", "--trials", 3, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "trials=3" in stdout and "intensity_larger_fraction=" in stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,beta_radiance,beta_intensity"
    assert len(lines) == 4


def test_experiment_gamma_bias_rows_are_the_reprs_of_the_experiment_pairs(tmp_path):
    out = tmp_path / "pairs.csv"
    assert run("experiment", "gamma-bias", "--trials", 3, "--seed", 0, "--out", out) == 0
    result = gamma_bias_experiment(3, 0.025, GammaMap(255.0 ** (1.0 - 2.2), 2.2, 0.0),
                                   NoiseSpec(std=1.0, seed=0, quantize=False,
                                             domain="radiance"))
    assert len(result.pairs) == 3
    assert out.read_text(encoding="ascii").splitlines()[1:] == [
        f"{k},{br!r},{bi!r}" for k, (br, bi) in enumerate(result.pairs)]


@pytest.mark.parametrize("gamma", ["-400", "400"])
def test_gamma_bias_refuses_an_exponent_without_a_default_alpha(capsys, gamma):
    # 255 ** (1 - gamma) overflows at -400 and underflows to 0 at 400
    assert run("experiment", "gamma-bias", "--trials", 3, "--gamma-exponent", gamma) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "--gamma-exponent" in err and "--alpha" in err


def test_experiment_histogram(tmp_path, capsys):
    out_u = tmp_path / "unbounded.txt"
    out_b = tmp_path / "bounded.txt"
    assert run("experiment", "histogram", "--out-unbounded", out_u,
               "--out-bounded", out_b) == 0
    stdout = capsys.readouterr().out
    assert "a_used=208 " in stdout
    assert "unbounded_beta=" in stdout and "bounded_beta=" in stdout
    votes_u = np.loadtxt(out_u, ndmin=2)[:, 1]
    votes_b = np.loadtxt(out_b, ndmin=2)[:, 1]
    assert votes_u.sum() > votes_b.sum()


def test_experiment_histogram_refuses_an_atmospheric_value_outside_8_bits(capsys):
    # the default 204 plus 60 levels
    assert run("experiment", "histogram", "--a-perturbation", 60) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: atmospheric intensity must lie in [0, 255], got 264.0\n"


def test_experiment_recovery(tmp_path, capsys):
    assert run("experiment", "recovery", "--repeats", 1,
               "--out-dir", tmp_path / "rec") == 0
    stdout = capsys.readouterr().out
    for method in ("ours", "li-orig", "li-mod"):
        assert method in stdout
    assert (tmp_path / "rec" / "scenarios.csv").exists()
    assert (tmp_path / "rec" / "summary.csv").exists()


def test_simulate_with_json_config(tmp_path):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({"n_landmarks": 17, "noise": {"std": 0.0}}))
    out = tmp_path / "scene.map"
    assert run("simulate", "--out", out, "--config", cfg) == 0
    text = out.read_text()
    assert text.startswith("localmap 6 17 ")


@pytest.mark.parametrize("config, named", [
    ({"n_landmark": 17}, "'n_landmark'"),
    ({"noise": {"sdt": 1.0}}, "'sdt'"),
    ([17], "scene config must be a JSON object"),
    ({"noise": 1.0}, "noise config: "),
    ({"n_landmarks": "20"}, "'n_landmarks' takes an integer"),
    ({"start_distance_range": 5}, "'start_distance_range' takes a list of 2 numbers"),
    ({"n_frames": 2.5}, "'n_frames' takes an integer"),
    # a negative spacing recedes, so the first frame is the closest
    ({"frame_spacing": -4.0, "start_distance_range": [-10.0, 5.0]},
     "distance schedule reaches zero")])
def test_simulate_rejects_bad_config(tmp_path, capsys, config, named):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "scene.map"
    assert run("simulate", "--out", out, "--config", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    (["fit-gamma", "--out", "out.gamma", "--csv"],
     "channel,intensity,power\ngray,10,1\n# café\ngray,30,3\n"),
    (["metrics", "--csv"], "estimate,truth\r\n11.0,10.0\r\n# café\r\n9.0,10.0\r\n"),
    (["simulate", "--out", "out.map", "--config"],
     '{"n_landmarks": 17,\n "noise": {"std": 0.0},\n "café": 1}\n')],
    ids=["fit-gamma", "metrics", "simulate-config"])
def test_text_inputs_name_the_line_of_a_byte_that_is_not_ascii(tmp_path, monkeypatch, capsys,
                                                                command, text):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    assert run(*command, path) == 1
    assert capsys.readouterr().err == "error: line 3: byte 0xc3 is not ASCII\n"
    assert sorted(tmp_path.iterdir()) == [path]


def test_estimate_on_a_map_without_frames_fails(tmp_path, capsys):
    path = tmp_path / "empty.map"
    path.write_text("localmap 0 0 0 1\n")
    assert run("estimate", path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "map has no frames" in err


def test_estimate_rejects_a_non_finite_position_and_names_its_line(tmp_path, capsys):
    map_path, _ = make_map(tmp_path)
    lines = map_path.read_text().splitlines()
    lineno = next(k for k, line in enumerate(lines, 1) if line.startswith("frame 5 "))
    lines[lineno - 1] = "frame 5 nan 0.0 0.0"
    map_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("estimate", map_path) == 1
    assert capsys.readouterr().err == \
        f"error: line {lineno}: coordinates must be finite\n"


def test_usage_errors_exit_2(capsys):
    assert run() == 2
    assert run("no-such-command") == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert "simulate" in capsys.readouterr().out


@pytest.mark.parametrize("argv, named", [
    (["experiment", "gamma-bias", "--trials", "3", "--beta", "0_025", "--seed", "1_0"],
     "argument --beta: invalid number value: '0_025'"),
    (["experiment", "gamma-bias", "--trials", "3", "--seed", "1_0"],
     "argument --seed: invalid integer value: '1_0'"),
    (["experiment", "recovery", "--repeats", "\u0661"],
     "argument --repeats: invalid integer value: '\u0661'"),
    (["simulate", "--out", "unused.map", "--visibility", "5_0"],
     "argument --visibility: invalid number value: '5_0'"),
], ids=["beta-digit-groups", "seed-digit-groups", "arabic-indic-digit", "simulate"])
def test_numeric_options_refuse_what_text_formats_refuse(argv, named, capsys):
    # Python's float/int take "_" digit groups and non-ASCII digits: with
    # them "--beta 0_025" ran at beta 25
    assert run(*argv) == 2
    assert named in capsys.readouterr().err


def test_every_numeric_option_parses_with_parse_number():
    def actions(parser):
        for action in parser._actions:
            yield action
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)

    types = {action.type for action in actions(build_parser())}
    assert types == {None, number, integer}
    assert number("1e-3") == 0.001 and integer("-7") == -7
