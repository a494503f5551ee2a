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
matrix positive definite, so each trial takes one linear solve. Same problem,
start and iteration cap give a bitwise-identical report.

Huber convention, for width delta:

    loss(r) = r**2                          for |r| <= delta
    loss(r) = 2 * delta * |r| - delta**2    otherwise
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericError

_INIT_DAMPING = 1e-3
_DAMPING_FLOOR = 1e-12
_DAMPING_CEILING = 1e15
_GRADIENT_TOL = 1e-10
_STEP_TOL = 1e-12


@dataclass
class ResidualProblem:
    """A weighted residual vector with analytic Jacobian and box bounds.

    ``huber_delta`` is the Huber width; ``None`` means squared loss.
    ``weights`` are per-residual and fixed for the whole solve;
    ``lower``/``upper`` default to an unbounded box.
    """

    n_params: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    weights: Optional[np.ndarray] = None
    huber_delta: Optional[float] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.huber_delta is not None and not self.huber_delta > 0:
            raise ValueError("huber_delta must be positive")
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


@dataclass
class SolveReport:
    params: np.ndarray
    cost: float
    iterations: int
    reason: str                  # "gradient" | "step" | "max-iter"
    residuals: np.ndarray        # raw residuals at the solution
    projected_init: bool = False


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
    absr = np.abs(raw)
    outside = absr > delta
    value = np.where(outside, 2.0 * delta * absr - delta * delta, raw * raw)
    scaled = np.sign(raw) * np.sqrt(value)
    factor = np.ones_like(value)
    np.divide(delta, np.sqrt(value), out=factor, where=outside)
    return scaled, factor


def _evaluate(problem: ResidualProblem, x: np.ndarray, sqrt_w: np.ndarray):
    raw = np.asarray(problem.residual(x), dtype=float)
    scaled, factor = robust_scale(raw, problem.huber_delta)
    rt = sqrt_w * scaled
    return raw, rt, factor


def solve(problem: ResidualProblem, x0: np.ndarray,
          max_iterations: int = 100) -> SolveReport:
    """Run projected LM from ``x0``. Accepted iterates never increase cost."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n_params,):
        raise ValueError("x0 must have one entry per parameter")
    lo, hi = problem.lower, problem.upper
    x = np.clip(x0, lo, hi)
    projected_init = bool(np.any(x != x0))

    n_res = np.asarray(problem.residual(x)).shape[0]
    if problem.weights is None:
        sqrt_w = np.ones(n_res)
    else:
        if problem.weights.shape != (n_res,):
            raise ValueError("weights must have one entry per residual")
        sqrt_w = np.sqrt(problem.weights)

    raw, rt, factor = _evaluate(problem, x, sqrt_w)
    J = np.asarray(problem.jacobian(x), dtype=float)
    if J.shape != (n_res, problem.n_params):
        raise ValueError("jacobian shape must be (n_residuals, n_params)")
    if not (np.all(np.isfinite(rt)) and np.all(np.isfinite(J))):
        raise NumericError("non-finite residual or Jacobian at the start point")
    Jt = (sqrt_w * factor)[:, None] * J
    cost = float(rt @ rt)

    lam = _INIT_DAMPING
    iterations = 0
    reason = "max-iter"
    for _ in range(max_iterations):
        iterations += 1
        g = Jt.T @ rt
        if np.max(np.abs(g)) < _GRADIENT_TOL:
            reason = "gradient"
            break
        H = Jt.T @ Jt
        diag = np.diag(H).copy()
        diag[diag <= 0] = 1.0  # zero-information parameters stay put

        accepted = False
        while lam <= _DAMPING_CEILING:
            A = H + np.diag(lam * diag)
            try:
                step = np.linalg.solve(A, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = np.clip(x + step, lo, hi)
            raw_new, rt_new, factor_new = _evaluate(problem, x_new, sqrt_w)
            if not np.all(np.isfinite(rt_new)):
                lam *= 10.0
                continue
            cost_new = float(rt_new @ rt_new)
            if cost_new < cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            reason = "step"
            break

        step_size = float(np.max(np.abs(x_new - x)))
        x, raw, rt, cost = x_new, raw_new, rt_new, cost_new
        J = np.asarray(problem.jacobian(x), dtype=float)
        if not np.all(np.isfinite(J)):
            reason = "step"
            break
        Jt = (sqrt_w * factor_new)[:, None] * J
        lam = max(lam / 10.0, _DAMPING_FLOOR)
        if step_size < _STEP_TOL * (np.max(np.abs(x)) + _STEP_TOL):
            reason = "step"
            break

    return SolveReport(params=x, cost=cost, iterations=iterations,
                       reason=reason, residuals=raw, projected_init=projected_init)


def check_jacobian(problem: ResidualProblem, x: np.ndarray) -> float:
    """Max relative deviation between the analytic Jacobian and central
    differences of the raw residuals at ``x``."""
    x = np.asarray(x, dtype=float)
    J = np.asarray(problem.jacobian(x), dtype=float)
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
