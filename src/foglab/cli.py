"""Command line front end.

Exit codes: 0 on success, 1 on runtime/data errors (bad files, insufficient
observations, numerical failures), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import baselines, harness, simulator
from .errors import DataError
from .estimator import (EstimatorConfig, EstimatorState, estimate,
                        format_estimate_record, should_update)
from .localmap import SelectionThresholds, generate_dr_pairs, load_map, save_map
from .metrics import compute_metrics
from .photometry import (CalibrationSeries, ChannelGammaMaps, GammaMap,
                         fit_gamma_map, load_gamma_file, save_gamma_file)
from .rasters import read_distance_map, read_image, write_image
from .scattering import (IntensityFogParams, beta_from_visibility,
                         quantize_to_u8, synthesize_fog_image, visibility_from_beta)


def _load_gamma(spec: str) -> ChannelGammaMaps:
    if spec == "identity":
        with resources.as_file(resources.files("foglab.data") / "identity.gamma") as p:
            return load_gamma_file(p)
    return load_gamma_file(spec)


def _fog_beta(args) -> float:
    if args.beta is not None:
        return args.beta
    return beta_from_visibility(args.visibility)


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", default="identity", help="gamma map file or 'identity'")
    p.add_argument("--channel", default="gray", choices=("gray", "r", "g", "b"))
    p.add_argument("--xi-f", type=int, default=4, help="min frames per landmark")
    p.add_argument("--xi-k", type=int, default=15, help="min qualifying landmarks")
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=5.0)
    p.add_argument("--beta-min", type=float, default=0.001)
    p.add_argument("--beta-max", type=float, default=0.2)
    p.add_argument("--update-gate", type=float, default=5.0)
    p.add_argument("--one-stage", action="store_true")
    p.add_argument("--uniform-weights", action="store_true")


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        xi_f=args.xi_f, xi_k=args.xi_k, eta=args.eta, delta=args.delta,
        beta_bounds=(args.beta_min, args.beta_max), update_gate=args.update_gate,
        two_stage=not args.one_stage, uniform_weights=args.uniform_weights)


def _cmd_simulate(args) -> int:
    spec = simulator.SceneSpec(
        n_landmarks=args.landmarks, n_frames=args.frames,
        start_distance_range=(args.start_min, args.start_max),
        frame_spacing=args.spacing)
    noise = simulator.NoiseSpec(std=args.noise_std, seed=args.seed,
                                quantize=not args.no_quantize)
    if args.config is not None:
        with open(args.config, "r", encoding="ascii") as fh:
            cfg = json.load(fh)
        spec = replace(spec, **{k: v for k, v in cfg.items()
                                if k in ("n_landmarks", "n_frames", "frame_spacing")})
        if "start_distance_range" in cfg:
            spec = replace(spec, start_distance_range=tuple(cfg["start_distance_range"]))
        if "noise" in cfg:
            noise = replace(noise, **cfg["noise"])
    fog = IntensityFogParams(_fog_beta(args), args.a)
    graph, truth = simulator.generate_scene(spec, fog, None, noise)
    save_map(graph, args.out)
    if args.truth_out:
        with open(args.truth_out, "w", encoding="ascii") as fh:
            json.dump({"beta": truth.beta, "atmospheric": truth.atmospheric,
                       "domain": truth.domain,
                       "clear": {str(k): v for k, v in truth.clear.items()}},
                      fh, indent=1)
    print(f"wrote {args.out}: {spec.n_landmarks} landmarks x {spec.n_frames} frames, "
          f"beta={truth.beta:.6g}")
    return 0


def _cmd_estimate(args) -> int:
    maps = _load_gamma(args.gamma)
    config = _estimator_config(args)
    state = EstimatorState()
    out = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
    try:
        for path in args.maps:
            graph = load_map(path)
            latest = max(graph.frames)
            position = graph.frames.get(latest)
            if position is not None and not should_update(position, state, config):
                print(f"# frame={latest} skipped: moved less than "
                      f"{config.update_gate} m since last update", file=out)
                continue
            obs = generate_dr_pairs(graph, maps, args.channel, config.thresholds)
            result = estimate(obs, maps.for_channel(args.channel), state, config)
            if position is not None:
                state.last_update_position = position
            print(format_estimate_record(latest, args.channel, result), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_baseline(args) -> int:
    a = args.a
    if args.image is not None:
        image = read_image(args.image)
        a_orig = baselines.estimate_a_original(image, args.radius)
        a_mod = baselines.estimate_a_modified(image, args.radius)
        print(f"a_original={a_orig} a_modified={a_mod}")
        if a is None:
            a = a_orig if args.a_rule == "original" else a_mod
    if args.map is None:
        return 0
    if a is None:
        raise DataError("beta baseline needs --a or --image for the atmospheric light")
    graph = load_map(args.map)
    obs = generate_dr_pairs(graph, _load_gamma("identity"), "gray",
                            SelectionThresholds(xi_f=2, xi_k=1))
    config = baselines.HistogramConfig(
        bin_width=args.bin_width, min_inverse_depth_gap=args.tau,
        beta_range=baselines.DEFAULT_BETA_RANGE if args.bounded else None)
    beta, (centers, counts) = baselines.estimate_beta_histogram(obs, a, config)
    if args.hist_out:
        baselines.dump_histogram(args.hist_out, centers, counts)
    print(f"beta={beta} visibility={visibility_from_beta(beta)} a={a}")
    return 0


def _cmd_fit_gamma(args) -> int:
    series: dict[str, tuple[list[float], list[float]]] = {}
    with open(args.csv, "r", newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                not {"channel", "intensity", "power"} <= set(reader.fieldnames):
            raise DataError("calibration csv needs channel,intensity,power columns")
        for rec in reader:
            chan = series.setdefault(rec["channel"], ([], []))
            chan[0].append(float(rec["intensity"]))
            chan[1].append(float(rec["power"]))
    fitted: dict[str, GammaMap] = {}
    for name, (i, p) in series.items():
        gmap, resid = fit_gamma_map(CalibrationSeries(np.array(i), np.array(p)))
        fitted[name] = gmap
        print(f"{name}: alpha={gmap.alpha:.6g} gamma={gmap.gamma:.6g} "
              f"zeta={gmap.zeta:.6g} residual={resid:.3g}")
    if "gray" not in fitted:
        raise DataError("calibration csv must include the gray channel")
    gray = fitted["gray"]
    maps = ChannelGammaMaps(gray, fitted.get("r", gray),
                            fitted.get("g", gray), fitted.get("b", gray))
    save_gamma_file(maps, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_synthesize_fog(args) -> int:
    clear = read_image(args.clear)
    distances = read_distance_map(args.distances)
    fog = IntensityFogParams(_fog_beta(args), args.a)
    foggy = synthesize_fog_image(clear.astype(float), distances, fog)
    write_image(args.out, quantize_to_u8(foggy))
    print(f"wrote {args.out}")
    return 0


def _cmd_gamma_bias(args) -> int:
    alpha = args.alpha if args.alpha is not None else 255.0 ** (1.0 - args.gamma_exponent)
    gmap = GammaMap(alpha, args.gamma_exponent, args.zeta)
    noise = simulator.NoiseSpec(std=args.noise_std, seed=args.seed,
                                quantize=False, domain=args.noise_domain)
    result = simulator.gamma_bias_experiment(args.trials, args.beta, gmap, noise)
    if args.out:
        with open(args.out, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "beta_radiance", "beta_intensity"])
            for k, (br, bi) in enumerate(result.pairs):
                writer.writerow([k, repr(br), repr(bi)])
    br = result.radiance_betas
    bi = result.intensity_betas
    if br.size == 0:
        raise DataError("every trial failed")
    larger = float(np.mean(bi > br))
    print(f"trials={len(result.pairs)} failures={result.failures} "
          f"mean_beta_radiance={br.mean():.6g} mean_beta_intensity={bi.mean():.6g} "
          f"intensity_larger_fraction={larger:.4f}")
    return 0


def _cmd_recovery(args) -> int:
    cfg = harness.RecoveryConfig(seed=args.seed, repeats=args.repeats)
    cfg = replace(cfg, noise=replace(cfg.noise, std=args.noise_std,
                                     outlier_fraction=args.outlier_fraction,
                                     outlier_std=args.outlier_std))
    report = harness.run_recovery_suite(cfg, out_dir=args.out_dir)
    for (method, param), m in sorted(report.summary.items()):
        print(f"{method:13s} {param:5s} rmse={m.rmse:.6g} rmse_rel={m.rmse_rel:.3f}% "
              f"mae={m.mae:.6g} sd={m.sd:.6g} n={m.n}")
    return 0


def _cmd_histogram_demo(args) -> int:
    cfg = harness.HistogramDemoConfig(
        visibility=args.visibility, a_perturbation=args.a_perturbation,
        noise_std=args.noise_std, seed=args.seed)
    r = harness.run_histogram_demo(cfg)
    if args.out_unbounded:
        baselines.dump_histogram(args.out_unbounded, *r.unbounded_hist)
    if args.out_bounded:
        baselines.dump_histogram(args.out_bounded, *r.bounded_hist)
    print(f"beta_gt={r.beta_gt:.6g} a_used={r.a_used:.6g} "
          f"unbounded_beta={r.unbounded_beta:.6g} n={r.n_pairs_unbounded} "
          f"bounded_beta={r.bounded_beta:.6g} n={r.n_pairs_bounded}")
    return 0


def _cmd_metrics(args) -> int:
    estimates, truths = [], []
    with open(args.csv, "r", newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            estimates.append(float(rec[args.column]))
            if args.truth is None:
                if args.truth_column not in rec:
                    raise DataError(f"csv has no column {args.truth_column!r}; "
                                    "pass --truth")
                truths.append(float(rec[args.truth_column]))
    truth = args.truth if args.truth is not None else truths
    m = compute_metrics(estimates, truth)
    print(f"n={m.n} rmse={m.rmse:.6g} mae={m.mae:.6g} sd={m.sd:.6g} "
          f"rmse_rel={m.rmse_rel:.4f}% mae_rel={m.mae_rel:.4f}% sd_rel={m.sd_rel:.4f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foglab",
        description="Fog parameter estimation from landmark observation sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic local map")
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out")
    p.add_argument("--config", help="scene spec as JSON")
    p.add_argument("--landmarks", type=int, default=20)
    p.add_argument("--frames", type=int, default=6)
    p.add_argument("--start-min", type=float, default=30.0)
    p.add_argument("--start-max", type=float, default=90.0)
    p.add_argument("--spacing", type=float, default=4.0)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--beta", type=float)
    g.add_argument("--visibility", type=float, default=50.0)
    p.add_argument("--a", type=float, default=204.0)
    p.add_argument("--noise-std", type=float, default=1.0)
    p.add_argument("--no-quantize", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="run the joint estimator on local maps")
    p.add_argument("maps", nargs="+")
    p.add_argument("--out")
    _add_estimator_flags(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("baseline", help="dark-channel atmospheric light and "
                                        "pairwise beta histogram")
    p.add_argument("--map")
    p.add_argument("--image")
    p.add_argument("--a", type=float)
    p.add_argument("--a-rule", choices=("original", "modified"), default="modified")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--tau", type=float, default=0.01)
    p.add_argument("--bin-width", type=float, default=0.001)
    p.add_argument("--bounded", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--hist-out")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("fit-gamma", help="calibrate gamma maps from "
                                         "(intensity, power) samples")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_gamma)

    p = sub.add_parser("synthesize-fog", help="render fog onto a clear image")
    p.add_argument("--clear", required=True)
    p.add_argument("--distances", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--beta", type=float)
    g.add_argument("--visibility", type=float, default=50.0)
    p.add_argument("--a", type=float, default=204.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synthesize_fog)

    p = sub.add_parser("experiment", help="benchmark experiment sweeps")
    esub = p.add_subparsers(dest="experiment", required=True)

    e = esub.add_parser("gamma-bias", help="beta bias from ignoring the gamma map")
    e.add_argument("--trials", type=int, default=1000)
    e.add_argument("--beta", type=float, default=0.025)
    e.add_argument("--gamma-exponent", type=float, default=2.2)
    e.add_argument("--alpha", type=float, help="default normalizes expand(255)=255")
    e.add_argument("--zeta", type=float, default=0.0)
    e.add_argument("--noise-std", type=float, default=1.0)
    e.add_argument("--noise-domain", choices=("radiance", "intensity"),
                   default="radiance")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out")
    e.set_defaults(func=_cmd_gamma_bias)

    e = esub.add_parser("recovery", help="method comparison across visibility levels")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--repeats", type=int, default=3)
    e.add_argument("--noise-std", type=float, default=1.0)
    e.add_argument("--outlier-fraction", type=float, default=0.1)
    e.add_argument("--outlier-std", type=float, default=40.0)
    e.add_argument("--out-dir")
    e.set_defaults(func=_cmd_recovery)

    e = esub.add_parser("histogram", help="bounded vs unbounded pairwise "
                                          "beta histogram under a perturbed "
                                          "atmospheric value")
    e.add_argument("--visibility", type=float, default=30.0)
    e.add_argument("--a-perturbation", type=float, default=4.0)
    e.add_argument("--noise-std", type=float, default=1.0)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out-unbounded")
    e.add_argument("--out-bounded")
    e.set_defaults(func=_cmd_histogram_demo)

    p = sub.add_parser("metrics", help="error metrics for a csv of estimates")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", default="estimate")
    p.add_argument("--truth-column", default="truth")
    p.add_argument("--truth", type=float)
    p.set_defaults(func=_cmd_metrics)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:        # argparse exits 2 on usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
