"""Command line front end.

Exit codes: 0 on success, 1 on runtime/data errors (bad files, insufficient
observations, numerical failures), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import baselines, harness, simulator
from .errors import DataError, NotEnoughDataError, parse_number, read_ascii
from .estimator import (DEFAULT_BETA_BOUNDS, EstimatorConfig, EstimatorState, estimate,
                        format_estimate_record)
from .localmap import generate_dr_pairs, load_map, save_map
from .metrics import compute_metrics
from .photometry import (CHANNEL_NAMES, CalibrationSeries, ChannelGammaMaps, GammaMap,
                         check_channel, fit_gamma_map, load_gamma_file, save_gamma_file)
from .rasters import read_distance_map, read_image, write_image
from .scattering import (IntensityFogParams, beta_from_visibility,
                         check_atmospheric_intensity, luma, quantize_to_u8,
                         synthesize_fog_image, visibility_from_beta)


def number(token: str) -> float:
    """argparse type of a numeric option: a float in :func:`parse_number`'s
    grammar, so that ``--beta 0_025`` is a usage error, not 25."""
    return parse_number(token)


def integer(token: str) -> int:
    """argparse type of an integer option, in :func:`parse_number`'s grammar."""
    return parse_number(token, int)


def _load_gamma(spec: str) -> ChannelGammaMaps:
    if spec == "identity":
        return ChannelGammaMaps.from_dict({"gray": GammaMap.identity()})
    return load_gamma_file(spec)


def _add_fog_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--beta", type=number)
    g.add_argument("--visibility", type=number, default=50.0)
    p.add_argument("--a", type=number, default=harness.A_INTENSITY)


def _fog(args) -> IntensityFogParams:
    beta = args.beta if args.beta is not None else beta_from_visibility(args.visibility)
    return IntensityFogParams(beta, args.a)


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    default = EstimatorConfig()
    p.add_argument("--gamma", default="identity", help="gamma map file or 'identity'")
    p.add_argument("--channel", default="gray", choices=CHANNEL_NAMES)
    p.add_argument("--xi-f", type=integer, default=default.xi_f, help="min frames per landmark")
    p.add_argument("--xi-k", type=integer, default=default.xi_k,
                   help="min qualifying landmarks")
    p.add_argument("--eta", type=number, default=default.eta)
    p.add_argument("--delta", type=number, default=default.delta)
    p.add_argument("--beta-min", type=number, default=default.beta_bounds[0])
    p.add_argument("--beta-max", type=number, default=default.beta_bounds[1])
    p.add_argument("--update-gate", type=number, default=5.0, help="meters between updates")
    p.add_argument("--one-stage", action="store_true")
    p.add_argument("--uniform-weights", action="store_true")


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        xi_f=args.xi_f, xi_k=args.xi_k, eta=args.eta, delta=args.delta,
        beta_bounds=(args.beta_min, args.beta_max),
        two_stage=not args.one_stage, uniform_weights=args.uniform_weights)


def _config_value(key: str, value, default):
    """``value`` of a JSON config key, checked against the kind of the field's
    current ``default``: true or false for a bool, an integer for an int, a
    number for a float, a list of numbers for a tuple."""
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise DataError(f"config key {key!r} takes a list of {len(default)} numbers, "
                            f"got {value!r}")
        return tuple(_config_value(key, v, d) for v, d in zip(value, default))
    kinds, name = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
                   float: ((int, float), "a number"), str: ((str,), "a string")}[type(default)]
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, kinds):
        raise DataError(f"config key {key!r} takes {name}, got {value!r}")
    return value


@contextlib.contextmanager
def _csv_errors(reader: csv.DictReader):
    """A malformed record read inside is a DataError naming the line that
    ``reader.reader`` counts (``reader.line_num`` lags until a record is read)."""
    try:
        yield
    except csv.Error as exc:
        raise DataError(f"csv line {reader.reader.line_num}: {exc}") from None


def _csv_number(reader: csv.DictReader, rec: dict, column: str) -> float:
    """``rec[column]`` as a float; a missing or non-numeric value names its line."""
    try:
        return parse_number(rec[column])
    except (TypeError, ValueError):
        raise DataError(f"csv line {reader.line_num}: {column} must be a number, "
                        f"got {rec[column]!r}") from None


def _cmd_simulate(args) -> int:
    spec = simulator.SceneSpec(
        n_landmarks=args.landmarks, n_frames=args.frames,
        start_distance_range=(args.start_min, args.start_max),
        frame_spacing=args.spacing)
    noise = simulator.NoiseSpec(std=args.noise_std, seed=args.seed,
                                quantize=not args.no_quantize)
    if args.config is not None:
        cfg = json.loads(read_ascii(args.config))
        if not isinstance(cfg, dict):
            raise DataError("scene config must be a JSON object")
        known = ("n_landmarks", "n_frames", "frame_spacing", "start_distance_range", "noise")
        unknown = sorted(set(cfg) - set(known))
        if unknown:
            raise DataError(f"scene config has unknown keys {unknown}; known: {known}")
        noise_cfg = cfg.get("noise", {})
        if not isinstance(noise_cfg, dict):
            raise DataError("noise config: must be a JSON object")
        unknown = sorted(set(noise_cfg) - {f.name for f in fields(noise)})
        if unknown:
            raise DataError(f"noise config: unknown keys {unknown}")
        spec = replace(spec, **{k: _config_value(k, v, getattr(spec, k))
                                for k, v in cfg.items() if k != "noise"})
        noise = replace(noise, **{k: _config_value(k, v, getattr(noise, k))
                                  for k, v in noise_cfg.items()})
    graph, truth = simulator.generate_scene(spec, _fog(args), None, noise)
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
    config = _estimator_config(args)
    if not 0 <= args.update_gate < np.inf:
        raise ValueError("--update-gate must be finite and non-negative")
    gmap = _load_gamma(args.gamma).for_channel(args.channel)
    state = EstimatorState()
    last = None                 # position of the last update
    out = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
    try:
        for path in args.maps:
            graph = load_map(path)
            if not graph.frames:
                raise NotEnoughDataError(f"{path}: map has no frames")
            latest = max(graph.frames)
            position = graph.frames.get(latest)
            if position is not None and last is not None and \
                    np.linalg.norm(np.subtract(position, last)) < args.update_gate:
                print(f"# frame={latest} skipped: moved less than "
                      f"{args.update_gate} m since last update", file=out)
                continue
            obs = generate_dr_pairs(graph, gmap, args.channel, config.xi_f)
            result = estimate(obs, gmap, state, config)
            if position is not None:
                last = position
            print(format_estimate_record(latest, args.channel, result), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_baseline(args) -> int:
    a = args.a if args.a is None else check_atmospheric_intensity(args.a)
    if args.image is not None:
        image = read_image(args.image)
        a_orig, a_mod = baselines.estimate_a(image, args.radius)
        print(f"a_original={a_orig} a_modified={a_mod}")
        if a is None:
            a = a_orig if args.a_rule == "original" else a_mod
            if np.ndim(a):
                # the map is read in gray, and with one transmission for all
                # channels the luma of the per-channel values is gray's value
                a = float(luma(a))
                print(f"a_gray={a}")
    if args.map is None:
        return 0
    if a is None:
        raise DataError("beta baseline needs --a or --image for the atmospheric light")
    graph = load_map(args.map)
    obs = generate_dr_pairs(graph, GammaMap.identity(), "gray", xi_f=2)
    config = baselines.HistogramConfig(
        bin_width=args.bin_width, min_inverse_depth_gap=args.tau,
        beta_range=DEFAULT_BETA_BOUNDS if args.bounded else None)
    beta, (centers, counts) = baselines.estimate_beta_histogram(obs, a, config)
    if args.hist_out:
        baselines.dump_histogram(args.hist_out, centers, counts)
    print(f"beta={beta} visibility={visibility_from_beta(beta)} a={a}")
    return 0


def _cmd_fit_gamma(args) -> int:
    series: dict[str, tuple[list[float], list[float]]] = {}
    reader = csv.DictReader(io.StringIO(read_ascii(args.csv)))
    with _csv_errors(reader):
        if reader.fieldnames is None or \
                not {"channel", "intensity", "power"} <= set(reader.fieldnames):
            raise DataError("calibration csv needs channel,intensity,power columns")
        for rec in reader:
            try:
                chan = series.setdefault(check_channel(rec["channel"]), ([], []))
            except ValueError as exc:
                raise DataError(f"csv line {reader.line_num}: {exc}") from None
            chan[0].append(_csv_number(reader, rec, "intensity"))
            chan[1].append(_csv_number(reader, rec, "power"))
    fitted: dict[str, GammaMap] = {}
    for name, (i, p) in series.items():
        gmap, resid = fit_gamma_map(CalibrationSeries(np.array(i), np.array(p)))
        fitted[name] = gmap
        print(f"{name}: alpha={gmap.alpha:.6g} gamma={gmap.gamma:.6g} "
              f"zeta={gmap.zeta:.6g} residual={resid:.3g}")
    save_gamma_file(ChannelGammaMaps.from_dict(fitted), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_synthesize_fog(args) -> int:
    clear = read_image(args.clear)
    distances = read_distance_map(args.distances)
    foggy = synthesize_fog_image(clear.astype(float), distances, _fog(args))
    write_image(args.out, quantize_to_u8(foggy))
    print(f"wrote {args.out}")
    return 0


def _cmd_gamma_bias(args) -> int:
    alpha = args.alpha
    if alpha is None:
        try:
            alpha = 255.0 ** (1.0 - args.gamma_exponent)    # expand(255) = 255
        except OverflowError:
            alpha = math.inf
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"--gamma-exponent {args.gamma_exponent} gives no positive "
                             "finite default alpha; pass --alpha")
    gmap = GammaMap(alpha, args.gamma_exponent, args.zeta)
    noise = simulator.NoiseSpec(std=args.noise_std, seed=args.seed,
                                quantize=False, domain=args.noise_domain)
    result = simulator.gamma_bias_experiment(args.trials, args.beta, gmap, noise)
    if args.out:
        harness.write_csv(args.out, ("trial", "beta_radiance", "beta_intensity"),
                          ((k, *pair) for k, pair in enumerate(result.pairs)))
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
    reader = csv.DictReader(io.StringIO(read_ascii(args.csv)))
    with _csv_errors(reader):
        columns = reader.fieldnames or []
        if args.column not in columns:
            raise DataError(f"csv has no column {args.column!r}")
        if args.truth is None and args.truth_column not in columns:
            raise DataError(f"csv has no column {args.truth_column!r}; pass --truth")
        for rec in reader:
            estimates.append(_csv_number(reader, rec, args.column))
            if args.truth is None:
                truths.append(_csv_number(reader, rec, args.truth_column))
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

    scene, noise = simulator.SceneSpec(), simulator.NoiseSpec()
    p = sub.add_parser("simulate", help="generate a synthetic local map")
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out")
    p.add_argument("--config", help="scene spec as JSON")
    p.add_argument("--landmarks", type=integer, default=scene.n_landmarks)
    p.add_argument("--frames", type=integer, default=scene.n_frames)
    p.add_argument("--start-min", type=number, default=scene.start_distance_range[0])
    p.add_argument("--start-max", type=number, default=scene.start_distance_range[1])
    p.add_argument("--spacing", type=number, default=scene.frame_spacing)
    _add_fog_flags(p)
    p.add_argument("--noise-std", type=number, default=noise.std)
    p.add_argument("--no-quantize", action="store_true")
    p.add_argument("--seed", type=integer, default=noise.seed)
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
    p.add_argument("--a", type=number)
    p.add_argument("--a-rule", choices=("original", "modified"), default="modified")
    hist = baselines.HistogramConfig()
    p.add_argument("--radius", type=integer, default=baselines.DARK_CHANNEL_RADIUS)
    p.add_argument("--tau", type=number, default=hist.min_inverse_depth_gap)
    p.add_argument("--bin-width", type=number, default=hist.bin_width)
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
    _add_fog_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synthesize_fog)

    p = sub.add_parser("experiment", help="benchmark experiment sweeps")
    esub = p.add_subparsers(dest="experiment", required=True)

    e = esub.add_parser("gamma-bias", help="beta bias from ignoring the gamma map")
    e.add_argument("--trials", type=integer, default=1000)
    e.add_argument("--beta", type=number, default=0.025)
    e.add_argument("--gamma-exponent", type=number, default=2.2)
    e.add_argument("--alpha", type=number, help="default normalizes expand(255)=255")
    e.add_argument("--zeta", type=number, default=0.0)
    e.add_argument("--noise-std", type=number, default=1.0)
    e.add_argument("--noise-domain", choices=("radiance", "intensity"),
                   default="radiance")
    e.add_argument("--seed", type=integer, default=0)
    e.add_argument("--out")
    e.set_defaults(func=_cmd_gamma_bias)

    recovery = harness.RecoveryConfig()
    e = esub.add_parser("recovery", help="method comparison across visibility levels")
    e.add_argument("--seed", type=integer, default=recovery.seed)
    e.add_argument("--repeats", type=integer, default=recovery.repeats)
    e.add_argument("--noise-std", type=number, default=recovery.noise.std)
    e.add_argument("--outlier-fraction", type=number, default=recovery.noise.outlier_fraction)
    e.add_argument("--outlier-std", type=number, default=recovery.noise.outlier_std)
    e.add_argument("--out-dir")
    e.set_defaults(func=_cmd_recovery)

    e = esub.add_parser("histogram", help="bounded vs unbounded pairwise "
                                          "beta histogram under a perturbed "
                                          "atmospheric value")
    demo = harness.HistogramDemoConfig()
    e.add_argument("--visibility", type=number, default=demo.visibility)
    e.add_argument("--a-perturbation", type=number, default=demo.a_perturbation)
    e.add_argument("--noise-std", type=number, default=demo.noise_std)
    e.add_argument("--seed", type=integer, default=demo.seed)
    e.add_argument("--out-unbounded")
    e.add_argument("--out-bounded")
    e.set_defaults(func=_cmd_histogram_demo)

    p = sub.add_parser("metrics", help="error metrics for a csv of estimates")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", default="estimate")
    p.add_argument("--truth-column", default="truth")
    p.add_argument("--truth", type=number)
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
