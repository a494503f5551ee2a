#!/usr/bin/env python3
"""Run the recovery suite on a range of seeds and compare its methods.

    python3 tools/recovery_seeds.py CHECKOUT FIRST LAST

Runs the default recovery suite (acceptance criterion 7) at every seed from
FIRST to LAST inclusive, with ``foglab`` imported from ``CHECKOUT/src``.
Prints, per seed, each method's beta RMSE and whether criterion 7's ordering
holds there:

    ours < ours-1stage,  ours < ours-uniform,  ours < li-mod < li-orig

Then the number of seeds where it holds, each method's mean RMSE over the
seeds and, per ablation of ``ours``, the paired per-seed differences
``ours - ablation``: how many are negative, a two-sided sign test, and a
percentile bootstrap 95 % interval of their mean (10,000 resamples from a
fixed generator, so the output repeats exactly). Seeds 0-19 are for
choosing between designs, seeds 20-39 for one confirmation run:

    python3 tools/recovery_seeds.py . 0 19

As in perfbench, BLAS runs on one thread, since the LM path depends on the
BLAS reduction order.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

METHODS = ("ours", "ours-1stage", "ours-uniform", "li-mod", "li-orig")
ABLATIONS = ("ours-1stage", "ours-uniform")
BOOTSTRAP_RESAMPLES = 10_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", type=Path, help="foglab checkout whose src/ is imported")
    p.add_argument("first", type=int, help="first seed")
    p.add_argument("last", type=int, help="last seed, included")
    args = p.parse_args(argv)
    if args.last < args.first:
        p.error("LAST must not be below FIRST")
    return args


def ordering_holds(rmse: dict) -> bool:
    """Criterion 7's ordering of the methods' beta RMSEs."""
    return (rmse["ours"] < rmse["ours-1stage"]
            and rmse["ours"] < rmse["ours-uniform"]
            and rmse["ours"] < rmse["li-mod"] < rmse["li-orig"])


def sign_test(diffs) -> float:
    """Two-sided exact sign test of paired differences against a zero
    median; ties are dropped."""
    below = sum(d < 0 for d in diffs)
    n = below + sum(d > 0 for d in diffs)
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(below, n - below) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def bootstrap_interval(diffs, rng, resamples: int = BOOTSTRAP_RESAMPLES):
    """Percentile bootstrap 95 % interval of the mean of ``diffs``."""
    import numpy as np
    diffs = np.asarray(diffs, dtype=float)
    means = diffs[rng.integers(0, diffs.size, (resamples, diffs.size))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = (args.checkout / "src").resolve()
    if not (src / "foglab").is_dir():
        print(f"no foglab package under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"               # before numpy is imported
    sys.path[:0] = [str(src)]
    import foglab
    if Path(foglab.__file__).resolve().parent != src / "foglab":
        print(f"foglab was imported from {foglab.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np
    from foglab.harness import RecoveryConfig, run_recovery_suite

    seeds = range(args.first, args.last + 1)
    print("seed " + " ".join(f"{m:>12}" for m in METHODS) + "  ordering")
    table, failed = [], []
    for seed in seeds:
        report = run_recovery_suite(RecoveryConfig(seed=seed))
        rmse = {m: report.beta_rmse(m) for m in METHODS}
        holds = ordering_holds(rmse)
        table.append(rmse)
        if not holds:
            failed.append(seed)
        print(f"{seed:>4} " + " ".join(f"{rmse[m]:12.6f}" for m in METHODS)
              + ("  holds" if holds else "  fails"), flush=True)

    print(f"ordering holds on {len(table) - len(failed)}/{len(table)} seeds"
          + (f"; fails on seeds {', '.join(map(str, failed))}" if failed else ""))
    print("mean RMSE " + " ".join(
        f"{m}={np.mean([row[m] for row in table]):.6f}" for m in METHODS))
    rng = np.random.default_rng(0)
    for ablation in ABLATIONS:
        diffs = [row["ours"] - row[ablation] for row in table]
        lo, hi = bootstrap_interval(diffs, rng)
        print(f"ours - {ablation}: negative on {sum(d < 0 for d in diffs)}/{len(diffs)} "
              f"seeds, sign test p={sign_test(diffs):.3g}, mean {np.mean(diffs):.6f}, "
              f"bootstrap 95% [{lo:.6f}, {hi:.6f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
