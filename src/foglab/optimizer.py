"""Bounded robust nonlinear least squares by projected Levenberg-Marquardt.

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

A problem is dense, or has the ``slot`` form. In the slot form the first
``n_global`` parameters are global and the rest are local: residual row i
depends on the global parameters and on local parameter ``slot[i]`` only,
and the Jacobian callback returns the ``(N, n_global + 1)`` columns
[d r / d global..., d r / d local of the row]. J^T J is then an arrowhead:
a dense global block H_g, a diagonal local block H_l and a coupling block
B. Each iteration reduces the rows to those blocks once (the per-local sums
in one ``np.bincount``); each damping trial then eliminates the local block
(the Schur complement of bundle adjustment),

    D   = H_l + lam * d_l
    S   = H_g + lam * diag(d_g) - B D^-1 B^T
    S s_g = B D^-1 g_l - g_g,        s_l = -(g_l + B^T s_g) / D,

which is the damped dense step, so a trial solves an n_global-sized
symmetric positive definite system and all else is O(N). A dense problem is
the case with no local parameters (B empty, S the whole damped matrix).

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


@dataclass
class ResidualProblem:
    """A weighted residual vector with analytic Jacobian and box bounds.

    ``huber_delta`` is the Huber width; ``None`` means squared loss.
    ``weights`` are per-residual and fixed for the whole solve;
    ``lower``/``upper`` default to an unbounded box.

    ``slot`` is None for a dense problem, whose ``jacobian`` returns
    ``(N, n_params)``. Otherwise it gives, per residual row, the index of the
    one local parameter ``x[n_global + slot[i]]`` the row depends on, and
    ``jacobian`` returns the ``(N, n_global + 1)`` columns described in the
    module docstring.
    """

    n_params: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    weights: Optional[np.ndarray] = None
    huber_delta: Optional[float] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    slot: Optional[np.ndarray] = None
    n_global: Optional[int] = None

    def __post_init__(self):
        if self.huber_delta is not None and not self.huber_delta > 0:
            raise ValueError("huber_delta must be positive")
        if self.slot is None:
            if self.n_global not in (None, self.n_params):
                raise ValueError("n_global needs slot")
            self.n_global = self.n_params
        else:
            self.slot = np.asarray(self.slot)
            if self.n_global is None or not 0 <= self.n_global < self.n_params:
                raise ValueError("slot needs 0 <= n_global < n_params")
            if (self.slot.ndim != 1 or self.slot.dtype.kind not in "iu"
                    or self.slot.size and not (
                        np.minimum.reduce(self.slot) >= 0
                        and np.maximum.reduce(self.slot) < self.n_params - self.n_global)):
                raise ValueError("slot entries must be integers in "
                                 "[0, n_params - n_global)")
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
        dense[:, :self.n_global] = J[:, :self.n_global]
        dense[np.arange(self.slot.size), self.n_global + self.slot] = J[:, self.n_global]
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


def _arrowhead(cols: np.ndarray, n_global: int, flat: Optional[np.ndarray],
               n_local: int):
    """A function that returns the arrowhead of the scaled system from its
    columns ``cols`` = ``[J_g, r, J_l]`` as they are at the call, as three
    arrays: [H_g | g_g] (n_global, n_global + 1); per local parameter its
    coupling row and gradient [B^T | g_l] (n_local, n_global + 1); and the
    local diagonal H_l. Column views and scratch space are made once here."""
    jg_t, jg_r = cols[:, :n_global].T, cols[:, :n_global + 1]
    if flat is None:
        no_local = np.zeros((0, n_global + 1)), np.zeros(0)
        return lambda: (jg_t @ jg_r, *no_local)
    # per row: its local derivative times [global derivatives, residual,
    # local derivative], summed per local parameter. Column by column, as
    # numpy loops slowly over rows of a few columns.
    prod = np.empty_like(cols)
    j_l, products = cols[:, -1], [(cols[:, k], prod[:, k]) for k in range(n_global + 2)]
    prod = prod.ravel()

    def blocks():
        global_block = jg_t @ jg_r
        for col, out in products:
            np.multiply(j_l, col, out=out)
        sums = np.bincount(flat, prod, n_local * (n_global + 2))
        sums = sums.reshape(n_local, n_global + 2)
        return global_block, sums[:, :-1], sums[:, -1]
    return blocks


def _cholesky_solve(m: list) -> Optional[list]:
    """Solve S x = b in Python floats, given the rows of [S | b] with S small
    and symmetric positive definite; S's lower triangle is read and may be
    overwritten. None when a pivot is not positive."""
    n = len(m)
    if n == 2:
        # the loop below for n = 2, unrolled: the same operations in the same
        # order, so the same result
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
    for i in range(n):
        ri = m[i]
        for j in range(i + 1):
            rj = m[j]
            s = ri[j]
            for k in range(j):
                s -= ri[k] * rj[k]
            if j < i:
                ri[j] = s / rj[j]
            elif s > 0:
                ri[i] = math.sqrt(s)
            else:
                return None
    x = [row[n] for row in m]
    for i in range(n):
        s = x[i]
        for k in range(i):
            s -= m[i][k] * x[k]
        x[i] = s / m[i][i]
    for i in reversed(range(n)):
        s = x[i]
        for k in range(i + 1, n):
            s -= m[k][i] * x[k]
        x[i] = s / m[i][i]
    return x


def solve(problem: ResidualProblem, x0: np.ndarray,
          max_iterations: int = 100) -> SolveReport:
    """Run projected LM from ``x0``. Accepted iterates never increase cost.
    The callbacks are called as the module docstring says."""
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
    n_global = problem.n_global
    n_local = problem.n_params - n_global
    if problem.slot is None:
        flat = None
    else:
        if problem.slot.shape != (n_res,):
            raise ValueError("slot must have one entry per residual")
        # row i's sums land in bins slot[i] * (n_global + 2) + column
        flat = (problem.slot[:, None] * (n_global + 2)
                + np.arange(n_global + 2)).ravel()
    # the scaled system's columns [J_g, r, J_l], rewritten per accepted step
    cols = np.empty((n_res, n_global + 1 + (flat is not None)))
    blocks = _arrowhead(cols, n_global, flat, n_local)
    r_col = cols[:, n_global]
    j_cols = [cols[:, k + (k >= n_global)] for k in range(cols.shape[1] - 1)]
    # per-trial workspace: the damped local diagonal, the local step and,
    # from trial_buffer, the trial point. An accepted trial point keeps its
    # buffer, which may hold the residuals too; the next trials get a new one.
    D, step = np.empty(n_local), np.empty(n_local)

    def trial_buffer():
        x_new = np.empty_like(x)
        return x_new, x_new[:n_global], x_new[n_global:]

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
    if J.shape != (n_res, n_global + (flat is not None)):
        raise ValueError("jacobian shape must be (n_residuals, n_params), or "
                         "(n_residuals, n_global + 1) with slot")
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
                and (not n_local or _max_abs(local_rows[:, -1]) < _GRADIENT_TOL)):
            reason = "gradient"
            break
        diag = np.concatenate((global_block.diagonal(), H_local))
        diag[diag <= 0] = 1.0  # zero-information parameters stay put
        d_global, d_local = diag[:n_global].tolist(), diag[n_global:]
        B = local_rows[:, :-1].T
        x_g, x_l = x[:n_global], x[n_global:]

        accepted = False
        while lam <= _DAMPING_CEILING:
            np.add(H_local, np.multiply(lam, d_local, out=D), out=D)
            # [S | g_g - B D^-1 g_l] with S = H_g + lam diag(d_g) - B D^-1 B^T
            m = (global_block - (B / D) @ local_rows).tolist()
            for i in range(n_global):
                m[i][i] += lam * d_global[i]
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
