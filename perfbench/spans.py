"""Layer spans for the traced benchmark run, recorded from outside the library.

``Tracer.installed()`` replaces the public functions at each module boundary
of ``foglab`` with thin wrappers, in every ``foglab`` module namespace that
holds a reference to them, and restores the originals on exit. A wrapper
records one span (layer name, parent span, op index, start, end) around the
call and reads counts off the public return values (``SolveReport``,
``EstimateResult``). Wrappers pass arguments and results through untouched,
so a traced op computes bitwise the same estimates as an untraced one.

Spans stay in memory; ``layer_metrics`` turns them into per-op figures and
``dump`` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager


# (module, attribute, span name); attributes of the form "Class.method" wrap
# a method on the class.
SPANNED = (
    ("foglab.localmap", "load_map", "localmap.load_map"),
    ("foglab.localmap", "generate_dr_pairs", "localmap.generate_dr_pairs"),
    ("foglab.localmap", "LocalMapGraph.frame_subset", "localmap.frame_subset"),
    ("foglab.estimator", "estimate", "estimator.estimate"),
    ("foglab.estimator", "derive_bounds", "estimator.derive_bounds"),
    ("foglab.optimizer", "solve", "optimizer.solve"),
    ("foglab.simulator", "generate_scene", "simulator.generate_scene"),
    ("foglab.simulator", "gamma_bias_experiment", "simulator.gamma_bias_experiment"),
    ("foglab.baselines", "estimate_beta_histogram", "baselines.beta_histogram"),
    ("foglab.baselines", "estimate_a_original", "baselines.atmospheric"),
    ("foglab.baselines", "estimate_a_modified", "baselines.atmospheric"),
    ("foglab.harness", "run_recovery_suite", "harness.run_recovery_suite"),
)
# called once per map edge: counted by calling span, not spanned
COUNTED = (("foglab.photometry", "expand", "photometry.expand"),)

# per-layer metric name -> unit, in output order
UNITS = {
    "localmap.load_map.ms_per_op": "ms",
    "localmap.generate_dr_pairs.ms_per_op": "ms",
    "localmap.edges_per_op": "count",
    "photometry.expand.calls_per_edge": "calls/edge",
    "localmap.frame_subset.ms_per_op": "ms",
    "optimizer.stage1.ms_per_op": "ms",
    "optimizer.stage2.ms_per_op": "ms",
    "optimizer.ms_per_iteration": "ms",
    "optimizer.stage1.iterations_per_solve": "count",
    "optimizer.stage2.iterations_per_solve": "count",
    "optimizer.trial_accept_frac": "frac",
    "optimizer.max_iter_frac": "frac",
    "estimator.estimate.self_ms_per_op": "ms",
    "estimator.derive_bounds.ms_per_op": "ms",
    "estimator.calls_per_op": "count",
    "estimator.inlier_fraction_mean": "frac",
    "estimator.beta_rel_err_p50": "frac",
    "estimator.beta_at_bound_frac": "frac",
    "estimator.degraded_frac": "frac",
    "simulator.self_ms_per_op": "ms",
    "harness.self_ms_per_op": "ms",
    "baselines.beta_histogram.ms_per_op": "ms",
    "baselines.atmospheric.ms_per_op": "ms",
    "trace.overhead_frac": "frac",
}


class _Span:
    __slots__ = ("name", "parent", "op", "start", "end", "solves", "stage")

    def __init__(self, name, parent, op, start):
        self.name, self.parent, self.op, self.start = name, parent, op, start
        self.end = start
        self.solves = 0        # solve children so far (estimate spans)
        self.stage = 0         # 1 or 2 for solves inside an estimate


class Tracer:
    """Records spans and counts for the ops run while it is installed."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = _Span(name, parent, self.op, 0.0)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _current(self) -> _Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def _spanned(self, name: str, fn):
        if name == "optimizer.solve":
            return functools.wraps(fn)(lambda *a, **kw: self._solve(fn, *a, **kw))
        observe = {"localmap.generate_dr_pairs": self._count_edges,
                   "estimator.estimate": self._count_estimate}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(args, out)
            return out
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self._current()
            self.counts[(name, caller.name if caller else None)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _solve(self, fn, problem, *args, **kwargs):
        # Trial points and accepted steps are counted off the problem's
        # callbacks: solve evaluates the residual once for its size and once
        # at the start point, then once per trial point; it evaluates the
        # Jacobian once at the start point and once per accepted step.
        parent = self._current()
        calls = Counter()
        residual, jacobian = problem.residual, problem.jacobian

        def counted_residual(x):
            calls["residual"] += 1
            return residual(x)

        def counted_jacobian(x):
            calls["jacobian"] += 1
            return jacobian(x)

        problem.residual, problem.jacobian = counted_residual, counted_jacobian
        try:
            with self.span("optimizer.solve") as rec:
                report = fn(problem, *args, **kwargs)
        finally:
            problem.residual, problem.jacobian = residual, jacobian
        if parent is not None and parent.name == "estimator.estimate":
            parent.solves += 1
            rec.stage = min(parent.solves, 2)
        c = self.counts
        c["solve.calls"] += 1
        c[f"solve.stage{rec.stage}.calls"] += 1
        c[f"solve.stage{rec.stage}.iterations"] += report.iterations
        c["solve.iterations"] += report.iterations
        c["solve.max_iter"] += report.reason == "max-iter"
        c["solve.trials"] += max(calls["residual"] - 2, 0)
        c["solve.accepted"] += max(calls["jacobian"] - 1, 0)
        return report

    def _count_edges(self, args, out):
        self.counts["localmap.edges"] += len(args[0].edges)

    def _count_estimate(self, args, result):
        c = self.counts
        lo, hi = result.bounds.beta
        c["estimate.calls"] += 1
        c["estimate.degraded"] += bool(result.degraded)
        c["estimate.at_bound"] += not lo < result.estimate.beta < hi
        c["estimate.inlier_fraction"] += result.inlier_fraction

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Swap the wrappers into every loaded foglab module; undo on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "foglab" or n.startswith("foglab."))]
        undo = []
        try:
            for kind, table in (("span", SPANNED), ("count", COUNTED)):
                for mod_name, attr, name in table:
                    owner = sys.modules[mod_name]
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(owner, cls_name)
                        orig = cls.__dict__[meth]
                        setattr(cls, meth, self._spanned(name, orig))
                        undo.append((cls, meth, orig))
                        continue
                    orig = getattr(owner, attr)
                    wrapped = (self._spanned(name, orig) if kind == "span"
                               else self._counted(name, orig))
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, key, wrapped)
                                undo.append((mod, key, orig))
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op figures for every metric in ``UNITS`` except the trace
        overhead and the beta error, which the caller takes from op results."""
        total: Counter = Counter()      # span name -> seconds
        self_time: Counter = Counter()  # layer -> seconds not in child spans
        stage_time: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec.parent >= 0:
                child_time[rec.parent] += rec.end - rec.start
        for i, rec in enumerate(self.spans):
            dur = rec.end - rec.start
            total[rec.name] += dur
            self_time[rec.name.split(".")[0]] += dur - child_time[i]
            if rec.name == "optimizer.solve":
                stage_time[rec.stage] += dur
            if rec.name == "estimator.estimate":
                self_time["estimator.estimate"] += dur - child_time[i]
        c = self.counts
        ops = max(n_ops, 1)

        def ms(seconds):
            return 1e3 * seconds / ops

        def ratio(num, den):
            return num / den if den else 0.0

        edges = c["localmap.edges"]
        estimates = c["estimate.calls"]
        return {
            "localmap.load_map.ms_per_op": ms(total["localmap.load_map"]),
            "localmap.generate_dr_pairs.ms_per_op": ms(total["localmap.generate_dr_pairs"]),
            "localmap.edges_per_op": edges / ops,
            "photometry.expand.calls_per_edge": ratio(
                c[("photometry.expand", "localmap.generate_dr_pairs")], edges),
            "localmap.frame_subset.ms_per_op": ms(total["localmap.frame_subset"]),
            "optimizer.stage1.ms_per_op": ms(stage_time[1]),
            "optimizer.stage2.ms_per_op": ms(stage_time[2]),
            "optimizer.ms_per_iteration": ratio(1e3 * total["optimizer.solve"],
                                                c["solve.iterations"]),
            "optimizer.stage1.iterations_per_solve": ratio(
                c["solve.stage1.iterations"], c["solve.stage1.calls"]),
            "optimizer.stage2.iterations_per_solve": ratio(
                c["solve.stage2.iterations"], c["solve.stage2.calls"]),
            "optimizer.trial_accept_frac": ratio(c["solve.accepted"], c["solve.trials"]),
            "optimizer.max_iter_frac": ratio(c["solve.max_iter"], c["solve.calls"]),
            "estimator.estimate.self_ms_per_op": ms(self_time["estimator.estimate"]),
            "estimator.derive_bounds.ms_per_op": ms(total["estimator.derive_bounds"]),
            "estimator.calls_per_op": estimates / ops,
            "estimator.inlier_fraction_mean": ratio(c["estimate.inlier_fraction"], estimates),
            "estimator.beta_at_bound_frac": ratio(c["estimate.at_bound"], estimates),
            "estimator.degraded_frac": ratio(c["estimate.degraded"], estimates),
            "simulator.self_ms_per_op": ms(self_time["simulator"]),
            "harness.self_ms_per_op": ms(self_time["harness"]),
            "baselines.beta_histogram.ms_per_op": ms(total["baselines.beta_histogram"]),
            "baselines.atmospheric.ms_per_op": ms(total["baselines.atmospheric"]),
        }

    def dump(self, path) -> None:
        """One JSON object per span: id, parent, op, name, start and end."""
        with open(path, "w", encoding="ascii") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": rec.parent, "op": rec.op,
                                     "name": rec.name, "start": rec.start,
                                     "end": rec.end}) + "\n")
