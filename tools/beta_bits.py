#!/usr/bin/env python3
"""Print the exact bits of every beta a perfbench workload computes.

    python3 tools/beta_bits.py CHECKOUT WORKLOAD SEED N [--smoke]

Runs ops 0..N-1 of the perfbench workload WORKLOAD (stream, bigmap, trials
or recovery) at SEED, with ``foglab`` imported from ``CHECKOUT/src``. The
workload code is this repository's ``perfbench/workloads.py``, so two
checkouts run the same ops; its inputs are written to a temporary directory
outside both trees. Prints one JSON line per op: the op index, the hex of
every beta the op returns and of every Li baseline beta a ``recovery`` op
returns (``baseline_betas``, empty for the other workloads), each solve's
(iterations, stop reason) in call order, taken from the stage-1 and stage-2
reports of each estimate's result, and a SHA-256 digest of the observations
every estimate of the op was given (the bytes of their ``frame``,
``landmark``, ``distance`` and ``radiance`` columns, in call order), so that
a change to ingest is checked before the solver sees it. Two checkouts compute bitwise the same estimates
from the same observations when their outputs are equal:

    python3 tools/beta_bits.py ../parent trials 1 300 > parent.txt
    python3 tools/beta_bits.py . trials 1 300 > change.txt
    diff parent.txt change.txt

As in perfbench, BLAS runs on one thread, since the LM path depends on the
BLAS reduction order. ``--smoke`` uses perfbench's tiny input sizes.

The tool pins its own process to one CPU before it runs any op. The
recovery suite runs its joint-estimator streams in forked workers, one per
usable CPU, and the ``estimator.estimate`` hook sees only the estimates made
in this process; on one CPU every stream runs here, in the suite's order, so
the tool lists every solve of a ``recovery`` op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", type=Path, help="foglab checkout whose src/ is imported")
    p.add_argument("workload", choices=("stream", "bigmap", "trials", "recovery"))
    p.add_argument("seed", type=int)
    p.add_argument("n", type=int, help="number of ops, from op 0")
    p.add_argument("--smoke", action="store_true", help="perfbench's tiny inputs")
    return p.parse_args(argv)


def replace_everywhere(function, wrapper) -> None:
    """Put ``wrapper`` in place of ``function`` in every foglab module that
    holds it under its own name."""
    name = function.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "foglab" and getattr(module, name, None) is function:
            setattr(module, name, wrapper)


def record_estimates(inputs: list, results: list) -> None:
    """Wrap ``estimator.estimate`` so that each call appends its
    ``ObservationSet`` to ``inputs``, before it runs so that an estimate that
    raises is still digested, and its ``EstimateResult`` to ``results``."""
    from foglab import estimator
    estimate = estimator.estimate

    def recorded(obs, *args, **kwargs):
        inputs.append(obs)
        results.append(estimate(obs, *args, **kwargs))
        return results[-1]

    replace_everywhere(estimate, recorded)


def observation_digest(inputs: list) -> str:
    """SHA-256 of the ``frame``, ``landmark``, ``distance`` and ``radiance``
    columns of each ``ObservationSet`` in ``inputs``, in order."""
    digest = hashlib.sha256()
    for obs in inputs:
        for column in (obs.frame, obs.landmark, obs.distance, obs.radiance):
            digest.update(column.tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    from checkout import import_foglab
    if not import_foglab(args.checkout, PERFBENCH):
        return 2
    import workloads

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    inputs: list = []
    results: list = []
    record_estimates(inputs, results)
    with tempfile.TemporaryDirectory(prefix="beta_bits-") as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        workload.setup()
        op = workload.runner()
        for i in range(args.n):
            inputs.clear()
            results.clear()
            result = op(i)
            line = {"op": i, "failed": result.failed,
                    "betas": [float(b).hex() for b in result.betas],
                    "baseline_betas": [float(b).hex() for b in
                                       result.extra.get("baseline_betas", ())],
                    "solves": [[r.iterations, r.reason] for res in results
                               for r in (res.stage1, res.stage2) if r is not None],
                    "observations": observation_digest(inputs)}
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
