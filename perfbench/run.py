#!/usr/bin/env python3
"""foglab benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a foglab checkout; it imports the package from
the checkout's ``src/`` and refuses to run without it. Workloads: stream,
bigmap, trials, recovery (see README.md next to this file).

``--trace 0`` sets up the workload several times (timed), runs ops back to
back for ``--seconds`` and prints the end-to-end metrics. ``--trace 1`` runs
ops untraced for half of ``--seconds``, replays exactly those ops with every
module boundary of foglab wrapped in spans, and prints the per-layer
metrics. Both runs apply the correctness gate and print
``{"correct": false, ..., "metrics": {}}`` with exit code 1 when it fails.
The last line of standard output is always the JSON result; the line before
it (``info {...}``) records the seed, the machine and the BLAS set-up.
``--smoke`` shrinks every input to a tiny size for tests.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# OpenBLAS picks its reduction order from the thread count, and the LM path
# depends on it (one K=200 map: 47 stage-1 iterations at one thread, 17 at
# two), so the count is fixed before numpy is imported; numpy and everything
# that imports it are therefore imported inside functions, after main() pins it.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
REPLAY_SHARE = 0.05     # untraced time replayed traced by the trace-0 gate
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("stream", "bigmap", "trials", "recovery"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return p.parse_args(argv)


def blas_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": blas.get("name"), "version": blas.get("version"),
             "threads_pinned": BLAS_THREADS, "threads_effective": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)     # the handle numpy already loaded
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                facts["threads_effective"] = fn()
                return facts
    return facts


def reference_ms() -> float:
    """Median time of a fixed pure-Python loop. On a shared machine its swings
    show how fast the machine ran around a measurement."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += k
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_ops(op, *, seconds=None, n_ops=None, tracer=None):
    """Closed loop: the next op starts when the previous one returns.

    Runs until ``seconds`` have passed or ``n_ops`` ops are done. An op that
    raises is counted as failed and its traceback goes to stderr.
    """
    from workloads import OpResult

    results, times = [], []
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    i = 0
    while (i < n_ops) if n_ops is not None else (time.perf_counter() < deadline):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = op(i)
            else:
                tracer.op = i
                with tracer.span("op"):
                    res = op(i)
        except Exception:
            traceback.print_exc()
            res = OpResult([], [], failed=True)
        times.append(time.perf_counter() - t0)
        results.append(res)
        i += 1
    return results, times, time.perf_counter() - start


def gate(workload, results, lo, hi) -> list[str]:
    """Every beta finite and inside the estimator's bounds, plus the
    workload's own checks."""
    betas = [b for r in results for b in r.betas]
    bad = [b for b in betas if not lo <= b <= hi]    # NaN fails both comparisons
    problems = [f"{len(bad)} of {len(betas)} betas non-finite or outside "
                f"[{lo}, {hi}], e.g. {bad[0]!r}"] if bad else []
    return problems + workload.check(results)


def same_betas(a, b) -> bool:
    """Bitwise equality of every beta, op by op."""
    def bits(results):
        return [[float(x).hex() for x in r.betas] for r in results]
    return bits(a) == bits(b)


def measure_setup(workload, env) -> list[float]:
    """Cold interpreter start plus ``import foglab``, then input building."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import foglab"], env=env,
                       cwd=ROOT, check=True)
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(results, times, elapsed, setup_times) -> dict:
    import numpy as np
    failed = sum(r.failed for r in results)
    return {
        "op_ms_p50": 1e3 * float(np.median(times)),
        "op_ms_p95": 1e3 * float(np.percentile(times, 95)),
        "ops_per_s": len(times) / elapsed,
        "ok_frac": (len(results) - failed) / len(results),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "foglab" / "__init__.py").is_file():
        print(f"error: no foglab sources at {SRC}; run inside a foglab checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

    import numpy as np
    import foglab
    if Path(foglab.__file__).resolve().parent != SRC / "foglab":
        print(f"error: imported foglab from {foglab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import BETA_BOUNDS, WORKLOADS

    blas = blas_facts(np)
    work_root = HERE / "_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, str(workdir))
        if args.trace == 0:
            setup_times = measure_setup(workload, env)
        else:
            workload.setup()
        workload.runner()(0)        # warm-up: lazy imports, allocator, caches

        seconds = args.seconds if args.trace == 0 else args.seconds / 2.0
        ref_before = reference_ms()
        results, times, elapsed = run_ops(workload.runner(), seconds=seconds)
        ref_after = reference_ms()
        n_replay = len(results)
        if args.trace == 0:
            cumulative = np.cumsum(times)
            n_replay = 1 + int(np.searchsorted(cumulative, REPLAY_SHARE * args.seconds))
            n_replay = min(n_replay, len(results))
        tracer = spans.Tracer()
        with tracer.installed():
            traced, traced_times, _ = run_ops(workload.runner(), n_ops=n_replay,
                                              tracer=tracer)

        problems = gate(workload, results, *BETA_BOUNDS)
        if not same_betas(results[:n_replay], traced):
            problems.append(f"traced and untraced betas differ over {n_replay} ops")
        if blas["threads_effective"] not in (None, BLAS_THREADS):
            problems.append(f"BLAS runs {blas['threads_effective']} threads, "
                            f"pinned {BLAS_THREADS}")

        if args.trace == 0:
            metrics = end_to_end(results, times, elapsed, setup_times)
            units = END_TO_END_UNITS
        else:
            metrics = tracer.layer_metrics(len(traced))
            metrics["trace.overhead_frac"] = float(
                np.median(traced_times) / np.median(times) - 1.0)
            # accuracy is seed-bound (few independent scenes per run), so it
            # is reported here, without a bound, rather than end to end
            metrics["estimator.beta_rel_err_p50"] = float(
                np.median([e for r in results for e in r.errors]))
            units = spans.UNITS
            tracer.dump(work_root / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failed for r in results)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "ops": len(results),
            "ops_replayed_traced": n_replay, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine(),
            "ref_loop_ms_before_after": [ref_before, ref_after]}
    print("info " + json.dumps(info))
    if problems:
        for p in problems:
            print(f"correctness gate: {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(results),
                          "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
