"""Bounded robust nonlinear least squares by projected Levenberg-Marquardt,
for problems of the fog fit's shape.

Minimizes sum_k w_k * loss(r_k(x)) subject to box bounds on x. The loss is
squared, or Huber of width ``huber_delta`` when that is not None. The Huber
loss enters through residual rescaling: scaled**2 == loss(raw), and the
Jacobian rows pick up the matching factor, so the damped normal equations
see an ordinary least-squares problem. Steps are computed without the bounds
and the trial point is projected onto the box; a trial is accepted only if
it strictly lowers the cost. Damping is multiplicative on the scaled diagonal
of J^T J (x10 on rejection, /10 on acceptance with a 1e-12 floor), which
keeps the iteration invariant under per-parameter rescaling and the damped
matrix positive definite. Same problem, start and iteration cap give a
bitwise-identical report.

``solve`` takes one problem form, the slot form. The first two parameters
are global, the fog fit's (beta, L_inf), and the rest are local, one clear
radiance per landmark: residual row i depends on the globals and on local
parameter ``slot[i]`` only, and the Jacobian callback returns the ``(N, 3)``
columns [d r / d beta, d r / d L_inf, d r / d local of the row]. J^T J is
then an arrowhead: a 2x2 global block H_g, a diagonal local block H_l and a
coupling block B. Each iteration reduces the rows to those blocks once (the
per-local sums in one ``np.bincount``); each damping trial then eliminates
the local block (the Schur complement of bundle adjustment),

    D   = H_l + lam * d_l
    S   = H_g + lam * diag(d_g) - B D^-1 B^T
    S s_g = B D^-1 g_l - g_g,        s_l = -(g_l + B^T s_g) / D,

which is the damped dense step, so a trial solves a 2x2 symmetric positive
definite system in closed form and all else is O(N). A problem without a
slot is dense: only ``check_jacobian`` and ``dense_jacobian`` read it, and
``solve`` refuses it.

Per solve, ``residual`` is called once for the residual count, once at the
start point and once per trial point; ``jacobian`` once at the start point
and once per accepted step. A trial point handed to ``residual`` may be a
buffer that the next trial overwrites, so a callback keeps no reference to
it. An accepted point's buffer is never written again: it is the point
handed to ``jacobian`` and the ``SolveReport.params`` of a solve, and the
residuals may be a view of it. A trial's cost is the squared norm of the
scaled residuals without their sign, which is the same number; the sign is
applied only at accepted points, where the residual column is built.

A solve stops for one of four reasons, which ``SolveReport.reason`` names:

    "gradient"  the largest gradient entry is below 1e-10 (``_GRADIENT_TOL``)
                at the current point, which is then a stationary point
    "step"      the accepted step moved no parameter by more than 1e-12
                relative (``_STEP_TOL``), no damping up to 1e15 gave a trial
                that lowers the cost, or the Jacobian at the accepted point
                is not finite
    "cost"      the accepted step lowered the cost by at most 1e-10 of its
                value before the step (``_COST_TOL``), MINPACK's relative
                reduction test (More, 1978)
    "max-iter"  the iteration cap was reached first; the fit may be far from
                converged

Huber convention, for width delta:

    loss(r) = r**2                          for |r| <= delta
    loss(r) = 2 * delta * |r| - delta**2    otherwise
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericError

_INIT_DAMPING = 1e-3
_DAMPING_FLOOR = 1e-12
_DAMPING_CEILING = 1e15
_GRADIENT_TOL = 1e-10
_STEP_TOL = 1e-12
_COST_TOL = 1e-10
_N_GLOBAL = 2               # the global parameters (beta, L_inf) of the slot form


@dataclass
class ResidualProblem:
    """A weighted residual vector with analytic Jacobian and box bounds.

    ``huber_delta`` is the Huber width; ``None`` means squared loss.
    ``weights`` are per-residual and fixed for the whole solve;
    ``lower``/``upper`` default to an unbounded box.

    ``slot`` gives, per residual row, the index of the one local parameter
    ``x[2 + slot[i]]`` the row depends on, and ``jacobian`` returns the
    ``(N, 3)`` columns described in the module docstring. With ``slot`` None
    the problem is dense: ``jacobian`` returns ``(N, n_params)``, and only
    :func:`check_jacobian` takes it.
    """

    n_params: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    weights: Optional[np.ndarray] = None
    huber_delta: Optional[float] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    slot: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.huber_delta is not None and not self.huber_delta > 0:
            raise ValueError("huber_delta must be positive")
        if self.slot is not None:
            self.slot = np.asarray(self.slot)
            n_local = self.n_params - _N_GLOBAL
            if n_local < 1:
                raise ValueError("slot needs n_params > 2")
            if (self.slot.ndim != 1 or self.slot.dtype.kind not in "iu"
                    or self.slot.size and not (np.minimum.reduce(self.slot) >= 0
                                               and np.maximum.reduce(self.slot) < n_local)):
                raise ValueError("slot entries must be integers in [0, n_params - 2)")
        if self.weights is not None:
            w = self.weights = np.asarray(self.weights, dtype=float)
            # NaN fails the first test, inf the second
            if w.size and not (np.minimum.reduce(w, axis=None) >= 0
                               and math.isfinite(np.maximum.reduce(w, axis=None))):
                raise ValueError("weights must be finite and non-negative")
        self.lower = self._box(self.lower, -np.inf)
        self.upper = self._box(self.upper, np.inf)
        if np.logical_or.reduce(self.lower > self.upper):
            raise ValueError("lower bounds exceed upper bounds")

    def _box(self, b, fill):
        if b is None:
            return np.full(self.n_params, fill)
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n_params,):
            raise ValueError("bounds must have one entry per parameter")
        return b

    def dense_jacobian(self, x: np.ndarray) -> np.ndarray:
        """The ``(N, n_params)`` Jacobian at ``x``, expanded from the slot
        columns when the problem has the slot form."""
        J = np.asarray(self.jacobian(x), dtype=float)
        if self.slot is None:
            return J
        dense = np.zeros((self.slot.size, self.n_params))
        dense[:, :_N_GLOBAL] = J[:, :_N_GLOBAL]
        dense[np.arange(self.slot.size), _N_GLOBAL + self.slot] = J[:, _N_GLOBAL]
        return dense


@dataclass
class SolveReport:
    params: np.ndarray
    cost: float
    iterations: int
    reason: str                  # "gradient" | "step" | "cost" | "max-iter" (module docstring)
    residuals: np.ndarray        # raw residuals at the solution


def _huber_root(raw: np.ndarray, delta: float):
    """The square root of the Huber loss of each raw residual, and the mask
    of residuals outside the quadratic zone."""
    absr = np.abs(raw)
    outside = absr > delta
    return np.sqrt(np.where(outside, 2.0 * delta * absr - delta * delta, raw * raw)), outside


def _huber_factor(root: np.ndarray, outside: np.ndarray, delta: float) -> np.ndarray:
    """Jacobian row factors for the roots and mask of :func:`_huber_root`."""
    factor = np.ones_like(root)
    np.divide(delta, root, out=factor, where=outside)
    return factor


def _arrowhead(cols: np.ndarray, flat: np.ndarray, n_local: int):
    """A function that returns the arrowhead of the scaled system from its
    columns ``cols`` = ``[J_g, r, J_l]`` as they are at the call, as three
    arrays: [H_g | g_g] (2, 3); per local parameter its coupling row and
    gradient [B^T | g_l] (n_local, 3); and the local diagonal H_l. Column
    views and scratch space are made once here."""
    jg_t, jg_r = cols[:, :_N_GLOBAL].T, cols[:, :_N_GLOBAL + 1]
    # per row: its local derivative times [global derivatives, residual,
    # local derivative], summed per local parameter. Column by column, as
    # numpy loops slowly over rows of a few columns.
    prod = np.empty_like(cols)
    j_l, products = cols[:, -1], [(cols[:, k], prod[:, k]) for k in range(_N_GLOBAL + 2)]
    prod = prod.ravel()

    def blocks():
        global_block = jg_t @ jg_r
        for col, out in products:
            np.multiply(j_l, col, out=out)
        sums = np.bincount(flat, prod, n_local * (_N_GLOBAL + 2))
        sums = sums.reshape(n_local, _N_GLOBAL + 2)
        return global_block, sums[:, :-1], sums[:, -1]
    return blocks


def _cholesky_solve(m: list) -> Optional[list]:
    """Solve S x = b in Python floats by Cholesky, given the rows of [S | b]
    with S 2x2 and symmetric positive definite; S's lower triangle is read.
    None when a pivot is not positive."""
    (s00, _, b0), (s10, s11, b1) = m
    if not s00 > 0:
        return None
    l00 = math.sqrt(s00)
    l10 = s10 / l00
    s = s11 - l10 * l10
    if not s > 0:
        return None
    l11 = math.sqrt(s)
    y0 = b0 / l00
    x1 = (b1 - l10 * y0) / l11 / l11
    return [(y0 - l10 * x1) / l00, x1]


def solve(problem: ResidualProblem, x0: np.ndarray,
          max_iterations: int = 100) -> SolveReport:
    """Run projected LM from ``x0`` on a slot-form problem. Accepted iterates
    never increase cost. The callbacks are called as the module docstring
    says."""
    if problem.slot is None:
        raise ValueError("solve needs a problem in the slot form")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n_params,):
        raise ValueError("x0 must have one entry per parameter")
    lo, hi = problem.lower, problem.upper
    x = np.minimum(np.maximum(x0, lo), hi)
    delta = problem.huber_delta

    n_res = np.asarray(problem.residual(x)).shape[0]
    if problem.weights is None:
        sqrt_w = None                   # unit weights: skip the products
    else:
        if problem.weights.shape != (n_res,):
            raise ValueError("weights must have one entry per residual")
        sqrt_w = np.sqrt(problem.weights)
    if problem.slot.shape != (n_res,):
        raise ValueError("slot must have one entry per residual")
    n_local = problem.n_params - _N_GLOBAL
    # row i's sums land in bins slot[i] * 4 + column
    flat = (problem.slot[:, None] * (_N_GLOBAL + 2) + np.arange(_N_GLOBAL + 2)).ravel()
    # the scaled system's columns [J_g, r, J_l], rewritten per accepted step
    cols = np.empty((n_res, _N_GLOBAL + 2))
    blocks = _arrowhead(cols, flat, n_local)
    r_col = cols[:, _N_GLOBAL]
    j_cols = [cols[:, k] for k in (0, 1, 3)]
    # per-trial workspace: the damped local diagonal, the local step and,
    # from trial_buffer, the trial point. An accepted trial point keeps its
    # buffer, which may hold the residuals too; the next trials get a new one.
    D, step = np.empty(n_local), np.empty(n_local)

    def trial_buffer():
        x_new = np.empty_like(x)
        return x_new, x_new[:_N_GLOBAL], x_new[_N_GLOBAL:]

    def evaluate(x):
        """Raw residuals at ``x``; the scaled residuals up to sign, whose
        squared norm is the cost; and the Huber root and mask (None for
        squared loss). :func:`fill_columns` applies the sign."""
        raw = np.asarray(problem.residual(x), dtype=float)
        if delta is None:
            huber, size = None, raw
        else:
            huber = _huber_root(raw, delta)
            size = huber[0]
        return raw, (size if sqrt_w is None else sqrt_w * size), huber

    def fill_columns(J, raw, rt, huber):
        """Write the scaled Jacobian and residuals into ``cols``."""
        if huber is None:
            scale = sqrt_w
            r_col[:] = rt
        else:
            factor = _huber_factor(*huber, delta)
            scale = factor if sqrt_w is None else sqrt_w * factor
            np.copysign(huber[0], raw, out=r_col)
            if sqrt_w is not None:
                np.multiply(sqrt_w, r_col, out=r_col)
        for k, col in enumerate(j_cols):
            if scale is None:
                col[:] = J[:, k]
            else:
                np.multiply(scale, J[:, k], out=col)

    raw, rt, huber = evaluate(x)
    J = np.asarray(problem.jacobian(x), dtype=float)
    if J.shape != (n_res, _N_GLOBAL + 1):
        raise ValueError("jacobian shape must be (n_residuals, 3)")
    if not (_all_finite(rt) and _all_finite(J)):
        raise NumericError("non-finite residual or Jacobian at the start point")
    fill_columns(J, raw, rt, huber)
    cost = float(rt @ rt)
    x_new, new_g, new_l = trial_buffer()

    lam = _INIT_DAMPING
    iterations = 0
    reason = "max-iter"
    for _ in range(max_iterations):
        iterations += 1
        global_block, local_rows, H_local = blocks()
        if (_max_abs(global_block[:, -1]) < _GRADIENT_TOL
                and _max_abs(local_rows[:, -1]) < _GRADIENT_TOL):
            reason = "gradient"
            break
        diag = np.concatenate((global_block.diagonal(), H_local))
        diag[diag <= 0] = 1.0  # zero-information parameters stay put
        (d0, d1), d_local = diag[:_N_GLOBAL].tolist(), diag[_N_GLOBAL:]
        B = local_rows[:, :-1].T
        x_g, x_l = x[:_N_GLOBAL], x[_N_GLOBAL:]

        accepted = False
        while lam <= _DAMPING_CEILING:
            np.add(H_local, np.multiply(lam, d_local, out=D), out=D)
            # [S | g_g - B D^-1 g_l] with S = H_g + lam diag(d_g) - B D^-1 B^T
            m = (global_block - (B / D) @ local_rows).tolist()
            m[0][0] += lam * d0
            m[1][1] += lam * d1
            neg_global = _cholesky_solve(m)               # -s_g
            if neg_global is None:
                lam *= 10.0
                continue
            # x + s projected on the box, with s_l = -(g_l + B^T s_g) / D
            np.subtract(x_g, neg_global, out=new_g)
            np.divide(np.matmul(local_rows, neg_global + [-1.0], out=step), D, out=step)
            np.add(x_l, step, out=new_l)
            np.minimum(np.maximum(x_new, lo, out=x_new), hi, out=x_new)
            raw_new, rt_new, huber_new = evaluate(x_new)
            cost_new = float(rt_new @ rt_new)   # not finite if any residual is not
            if cost_new < cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            reason = "step"
            break

        small_reduction = cost - cost_new <= _COST_TOL * cost
        x_old, x, raw, cost = x, x_new, raw_new, cost_new
        x_new, new_g, new_l = trial_buffer()
        step_size = _max_abs(np.subtract(x, x_old, out=x_new))
        J = np.asarray(problem.jacobian(x), dtype=float)
        if not _all_finite(J):
            reason = "step"
            break
        if step_size < _STEP_TOL * (_max_abs(x) + _STEP_TOL):
            reason = "step"
            break
        if small_reduction:
            reason = "cost"
            break
        fill_columns(J, raw_new, rt_new, huber_new)
        lam = max(lam / 10.0, _DAMPING_FLOOR)

    return SolveReport(params=x, cost=cost, iterations=iterations,
                       reason=reason, residuals=raw)


def _max_abs(a: np.ndarray) -> float:
    """The largest |a_i|, NaN if any is; ``np.max`` without its wrapper."""
    return float(np.maximum.reduce(np.abs(a), axis=None))


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def check_jacobian(problem: ResidualProblem, x: np.ndarray) -> float:
    """Max relative deviation between the analytic Jacobian and central
    differences of the raw residuals at ``x``."""
    x = np.asarray(x, dtype=float)
    J = problem.dense_jacobian(x)
    fd = np.empty_like(J)
    cbrt_eps = float(np.finfo(float).eps) ** (1.0 / 3.0)
    for j in range(problem.n_params):
        h = cbrt_eps * max(abs(x[j]), 1e-2)
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fd[:, j] = (np.asarray(problem.residual(xp)) -
                    np.asarray(problem.residual(xm))) / (xp[j] - xm[j])
    denom = np.maximum(np.maximum(np.abs(J), np.abs(fd)), 1.0)
    return float(np.max(np.abs(J - fd) / denom))
