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
                    or np.any(self.slot < 0)
                    or np.any(self.slot >= self.n_params - self.n_global)):
                raise ValueError("slot entries must be integers in "
                                 "[0, n_params - n_global)")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
                raise ValueError("weights must be finite and non-negative")
        self.lower = self._box(self.lower, -np.inf)
        self.upper = self._box(self.upper, np.inf)
        if np.any(self.lower > self.upper):
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


def robust_scale(raw: np.ndarray, delta: Optional[float] = None):
    """Return (scaled residuals, Jacobian row factors) for the Huber loss of
    width ``delta``, or for squared loss when ``delta`` is None.

    The scaled residual squares to the loss value and the factor is its
    derivative with respect to the raw residual, so a plain least-squares
    solve on the scaled system minimizes the robust objective.
    """
    raw = np.asarray(raw, dtype=float)
    if delta is None:
        return raw, np.ones_like(raw)
    if not delta > 0:
        raise ValueError("huber delta must be positive")
    root, outside = _huber_root(raw, delta)
    return np.copysign(root, raw), _huber_factor(root, outside, delta)


def _blocks(cols: np.ndarray, n_global: int, flat: Optional[np.ndarray], n_local: int,
            prod: Optional[np.ndarray]):
    """The arrowhead of the scaled system, from its columns
    ``[J_g, r, J_l]``, as three arrays: [H_g | g_g] (n_global, n_global + 1);
    per local parameter its coupling row and gradient [B^T | g_l]
    (n_local, n_global + 1); and the local diagonal H_l. ``prod`` is scratch
    space of the shape of ``cols``."""
    global_block = cols[:, :n_global].T @ cols[:, :n_global + 1]
    if flat is None:
        return global_block, np.zeros((0, n_global + 1)), np.zeros(0)
    # per row: its local derivative times [global derivatives, residual,
    # local derivative], summed per local parameter. Column by column, as
    # numpy loops slowly over rows of a few columns.
    for k in range(n_global + 2):
        np.multiply(cols[:, -1], cols[:, k], out=prod[:, k])
    sums = np.bincount(flat, prod.ravel(), n_local * (n_global + 2))
    sums = sums.reshape(n_local, n_global + 2)
    return global_block, sums[:, :-1], sums[:, -1]


def _cholesky_solve(m: list) -> Optional[list]:
    """Solve S x = b in Python floats, given the rows of [S | b] with S small
    and symmetric positive definite; S's lower triangle is read and
    overwritten. None when a pivot is not positive."""
    n = len(m)
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

    ``problem.residual`` is called once for the residual count, once at the
    start point and once per trial point; ``problem.jacobian`` once at the
    start point and once per accepted step.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n_params,):
        raise ValueError("x0 must have one entry per parameter")
    lo, hi = problem.lower, problem.upper
    x = np.clip(x0, lo, hi)
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
        flat = prod = None
    else:
        if problem.slot.shape != (n_res,):
            raise ValueError("slot must have one entry per residual")
        # row i's sums land in bins slot[i] * (n_global + 2) + column
        flat = (problem.slot[:, None] * (n_global + 2)
                + np.arange(n_global + 2)).ravel()
    # the scaled system's columns [J_g, r, J_l], rewritten per accepted step
    cols = np.empty((n_res, n_global + 1 + (flat is not None)))
    if flat is not None:
        prod = np.empty_like(cols)

    def evaluate(x):
        """Raw and scaled residuals at ``x``, and what the Huber row factors
        need; the cost is the scaled residuals' squared norm."""
        raw = np.asarray(problem.residual(x), dtype=float)
        if delta is None:
            scaled, huber = raw, None
        else:
            root, outside = huber = _huber_root(raw, delta)
            scaled = np.copysign(root, raw)
        return raw, (scaled if sqrt_w is None else sqrt_w * scaled), huber

    def fill_columns(J, rt, huber):
        """Write the scaled Jacobian and residuals into ``cols``."""
        if huber is None:
            scale = sqrt_w
        else:
            factor = _huber_factor(*huber, delta)
            scale = factor if sqrt_w is None else sqrt_w * factor
        for k in range(J.shape[1]):
            col = cols[:, k + (k >= n_global)]
            if scale is None:
                col[:] = J[:, k]
            else:
                np.multiply(scale, J[:, k], out=col)
        cols[:, n_global] = rt

    raw, rt, huber = evaluate(x)
    J = np.asarray(problem.jacobian(x), dtype=float)
    if J.shape != (n_res, n_global + (flat is not None)):
        raise ValueError("jacobian shape must be (n_residuals, n_params), or "
                         "(n_residuals, n_global + 1) with slot")
    if not (np.all(np.isfinite(rt)) and np.all(np.isfinite(J))):
        raise NumericError("non-finite residual or Jacobian at the start point")
    fill_columns(J, rt, huber)
    cost = float(rt @ rt)

    lam = _INIT_DAMPING
    iterations = 0
    reason = "max-iter"
    for _ in range(max_iterations):
        iterations += 1
        global_block, local_rows, H_local = _blocks(cols, n_global, flat, n_local, prod)
        g = np.concatenate((global_block[:, -1], local_rows[:, -1]))
        if np.abs(g).max() < _GRADIENT_TOL:
            reason = "gradient"
            break
        diag = np.concatenate((global_block.diagonal(), H_local))
        diag[diag <= 0] = 1.0  # zero-information parameters stay put
        d_global, d_local = diag[:n_global].tolist(), diag[n_global:]
        B = local_rows[:, :-1].T

        accepted = False
        while lam <= _DAMPING_CEILING:
            D = H_local + lam * d_local
            # [S | g_g - B D^-1 g_l] with S = H_g + lam diag(d_g) - B D^-1 B^T
            m = (global_block - (B / D) @ local_rows).tolist()
            for i in range(n_global):
                m[i][i] += lam * d_global[i]
            neg_global = _cholesky_solve(m)               # -s_g
            if neg_global is None:
                lam *= 10.0
                continue
            # x + s projected on the box, with s_l = -(g_l + B^T s_g) / D
            x_new = np.empty_like(x)
            np.subtract(x[:n_global], neg_global, out=x_new[:n_global])
            np.add(x[n_global:], (local_rows @ (neg_global + [-1.0])) / D,
                   out=x_new[n_global:])
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

        step_size = float(np.max(np.abs(x_new - x)))
        small_reduction = cost - cost_new <= _COST_TOL * cost
        x, raw, cost = x_new, raw_new, cost_new
        J = np.asarray(problem.jacobian(x), dtype=float)
        if not np.all(np.isfinite(J)):
            reason = "step"
            break
        if step_size < _STEP_TOL * (np.max(np.abs(x)) + _STEP_TOL):
            reason = "step"
            break
        if small_reduction:
            reason = "cost"
            break
        fill_columns(J, rt_new, huber_new)
        lam = max(lam / 10.0, _DAMPING_FLOOR)

    return SolveReport(params=x, cost=cost, iterations=iterations,
                       reason=reason, residuals=raw)


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
