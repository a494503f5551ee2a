"""Projected Levenberg-Marquardt solver and robust residual rescaling."""

import math
from typing import Optional

import numpy as np
import pytest

from foglab.errors import NumericError
from foglab.estimator import _fog_problem, residual_and_jacobian
from foglab.localmap import ObservationSet
from foglab.optimizer import (_COST_TOL, _DAMPING_CEILING, _DAMPING_FLOOR, _GRADIENT_TOL,
                              _INIT_DAMPING, _STEP_TOL, ResidualProblem, SolveReport,
                              _cholesky_solve, _huber_factor, _huber_root, check_jacobian,
                              solve)


def padded_problem(n, n_rows, residual, jacobian, lower=None, upper=None, **fields):
    """A problem in n <= 2 parameters, posed in the solver's slot form: they
    are its first globals, and parameters with zero Jacobian columns pad
    them to two globals and one local that every row uses. The padding
    carries no information, so it stays where it starts (at 0, see pad)."""
    def padded_box(b, fill):
        return None if b is None else np.concatenate((b, np.full(3 - n, fill)))

    def padded_jacobian(x):
        return np.column_stack((jacobian(x[:n]), np.zeros((n_rows, 3 - n))))
    return ResidualProblem(3, lambda x: residual(x[:n]), padded_jacobian,
                           lower=padded_box(lower, -np.inf), upper=padded_box(upper, np.inf),
                           slot=np.zeros(n_rows, dtype=int), **fields)


def pad(x0):
    """A start point of a padded problem."""
    return np.concatenate((x0, np.zeros(3 - len(x0))))


def scalar_problem(**kwargs):
    # residual r(x) = x - 3, minimized at x = 3
    return padded_problem(1, 1, lambda x: np.array([x[0] - 3.0]),
                          lambda x: np.array([[1.0]]), **kwargs)


def rosenbrock_residual(x):
    # classic curved valley, unique minimum at (1, 1) with zero residuals
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def rosenbrock_problem():
    return padded_problem(2, 2, rosenbrock_residual, rosenbrock_jacobian)


def test_scalar_minimum():
    report = solve(scalar_problem(), pad([10.0]))
    assert report.params[0] == pytest.approx(3.0, abs=1e-8)
    assert report.cost == pytest.approx(0.0, abs=1e-15)


def test_active_bound_is_respected():
    problem = scalar_problem(lower=np.array([0.0]), upper=np.array([2.0]))
    report = solve(problem, pad([1.0]))
    assert report.params[0] == pytest.approx(2.0, abs=1e-12)
    # feasible throughout, including the solution
    assert 0.0 <= report.params[0] <= 2.0


def test_init_outside_box_is_projected():
    problem = scalar_problem(lower=np.array([0.0]), upper=np.array([2.0]))
    report = solve(problem, pad([50.0]))
    assert report.params[0] == pytest.approx(2.0, abs=1e-12)
    assert 0.0 <= report.params[0] <= 2.0


def test_rosenbrock_from_standard_start():
    report = solve(rosenbrock_problem(), pad([-1.2, 1.0]),
                   max_iterations=200)
    assert np.allclose(report.params, [1.0, 1.0, 0.0], atol=1e-6)


def test_deterministic_bitwise():
    a = solve(rosenbrock_problem(), pad([-1.2, 1.0]))
    b = solve(rosenbrock_problem(), pad([-1.2, 1.0]))
    assert a.params.tobytes() == b.params.tobytes()
    assert a.cost == b.cost and a.iterations == b.iterations


def test_cost_never_increases_with_more_iterations():
    costs = [solve(rosenbrock_problem(), pad([-1.2, 1.0]),
                   max_iterations=k).cost
             for k in range(1, 25)]
    assert all(c2 <= c1 + 1e-15 for c1, c2 in zip(costs, costs[1:]))


def test_weights_shift_the_optimum():
    # two incompatible targets: weighted mean 2*1 + 1*4 over total weight 3
    problem = padded_problem(1, 2, lambda x: np.array([x[0] - 1.0, x[0] - 4.0]),
                             lambda x: np.array([[1.0], [1.0]]),
                             weights=np.array([2.0, 1.0]))
    report = solve(problem, pad([0.0]), max_iterations=200)
    assert report.params[0] == pytest.approx(2.0, abs=1e-6)


def test_huber_downweights_outlier():
    # square loss pulls the fit toward the outlier; huber mostly ignores it
    targets = np.array([0.0, 0.1, -0.1, 100.0])

    def make(delta=None):
        return padded_problem(1, 4, lambda x: x[0] - targets,
                              lambda x: np.ones((4, 1)), huber_delta=delta)

    x_sq = solve(make(), pad([0.0]), max_iterations=300).params[0]
    x_hu = solve(make(1.0), pad([0.0]), max_iterations=300).params[0]
    assert x_sq == pytest.approx(25.0, abs=1e-6)
    assert abs(x_hu) < 1.0


def huber_loss(raw, delta):
    """The Huber loss as the optimizer docstring defines it."""
    return np.where(np.abs(raw) <= delta, raw ** 2, 2.0 * delta * np.abs(raw) - delta ** 2)


def test_robust_scale_square_is_identity():
    # the Huber loss is the squared loss for residuals no wider than delta
    raw = np.array([-2.0, 0.0, 3.0])
    root, outside = huber = _huber_root(raw, 3.0)
    assert np.array_equal(root ** 2, raw ** 2) and not outside.any()
    assert np.array_equal(_huber_factor(*huber, 3.0), np.ones(3))


def test_robust_scale_huber_inside_is_identity():
    raw = np.array([3.0, -2.0, 5.0])
    root, outside = huber = _huber_root(raw, 5.0)
    assert np.array_equal(root, [3.0, 2.0, 5.0]) and not outside.any()
    assert np.array_equal(_huber_factor(*huber, 5.0), [1.0, 1.0, 1.0])


def test_robust_scale_huber_outside_reference():
    # loss(50) with delta 5 is 2*5*50 - 25 = 475; root sqrt(475)
    raw = np.array([50.0, -50.0])
    root, outside = huber = _huber_root(raw, 5.0)
    assert root == pytest.approx([math.sqrt(475.0)] * 2) and outside.all()
    assert root ** 2 == pytest.approx(huber_loss(raw, 5.0))
    # d root / d|r| = loss'(r) / (2 root) = delta / root
    assert _huber_factor(*huber, 5.0) == pytest.approx([5.0 / math.sqrt(475.0)] * 2)


def test_robust_scale_squares_to_loss_everywhere():
    raw = np.linspace(-20.0, 20.0, 81)
    root, _ = _huber_root(raw, 5.0)
    assert np.allclose(root ** 2, huber_loss(raw, 5.0))


def test_problem_validation():
    for delta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^huber_delta must be positive$"):
            scalar_problem(huber_delta=delta)
    for weights in ([-1.0], [1.0, -1e-300], [np.nan], [2.0, np.inf], [-np.inf], np.nan):
        with pytest.raises(ValueError, match="^weights must be finite and non-negative$"):
            scalar_problem(weights=weights)
    with pytest.raises(ValueError, match="^lower bounds exceed upper bounds$"):
        scalar_problem(lower=np.array([3.0]), upper=np.array([1.0]))
    with pytest.raises(ValueError, match="bounds"):
        scalar_problem(lower=np.array([0.0, 0.0]))
    # n_params 3: two globals and one local parameter, so slot 1 is out of range
    message = r"^slot entries must be integers in \[0, n_params - 2\)$"
    for slot in ([0, 1], [0, -1], [0.0], [-1], [[0]]):
        with pytest.raises(ValueError, match=message):
            ResidualProblem(3, scalar_problem().residual, scalar_problem().jacobian,
                            slot=np.array(slot))
    # the slot form needs a local parameter
    for n_params in (0, 1, 2):
        with pytest.raises(ValueError, match=r"^slot needs n_params > 2$"):
            ResidualProblem(n_params, scalar_problem().residual, scalar_problem().jacobian,
                            slot=np.zeros(1, dtype=int))
    # empty weights and slots pass construction; solve checks their lengths
    ResidualProblem(3, scalar_problem().residual, scalar_problem().jacobian,
                    weights=np.zeros(0), slot=np.zeros(0, dtype=int))


def test_solve_input_validation():
    with pytest.raises(ValueError, match="x0"):
        solve(scalar_problem(), np.array([1.0, 2.0]))
    bad_w = scalar_problem(weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="weights"):
        solve(bad_w, pad([1.0]))
    bad_slot = scalar_problem()
    bad_slot.slot = np.zeros(2, dtype=int)
    with pytest.raises(ValueError, match="^slot must have one entry per residual$"):
        solve(bad_slot, pad([1.0]))

    problem = ResidualProblem(3, lambda x: np.array([x[0]]), lambda x: np.ones((2, 3)),
                              slot=np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="jacobian shape"):
        solve(problem, pad([1.0]))

    # the slot form takes (N, 3) columns, not the dense matrix
    obs, x0, _, _ = random_fog_problem(np.random.default_rng(0))
    dense = ResidualProblem(x0.size, lambda x: residual_and_jacobian(x, obs)[0],
                            lambda x: residual_and_jacobian(x, obs)[1],
                            slot=obs.slot)
    with pytest.raises(ValueError, match="jacobian shape"):
        solve(dense, x0)


def test_solve_refuses_a_dense_problem():
    obs, x0, _, _ = random_fog_problem(np.random.default_rng(0))
    calls = []
    dense = ResidualProblem(x0.size, lambda x: calls.append(x) or residual_and_jacobian(x, obs)[0],
                            lambda x: residual_and_jacobian(x, obs)[1])
    with pytest.raises(ValueError, match="^solve needs a problem in the slot form$"):
        solve(dense, x0)
    assert calls == []
    # check_jacobian still takes it, and agrees with the slot form
    slot = _fog_problem(x0.size, obs.distance, obs.radiance, obs.slot)
    assert check_jacobian(dense, x0) < 1e-6
    assert check_jacobian(slot, x0) < 1e-6
    assert np.array_equal(slot.dense_jacobian(x0), dense.dense_jacobian(x0))


def test_non_finite_start_raises():
    problem = padded_problem(1, 1, lambda x: np.array([np.nan]),
                             lambda x: np.array([[1.0]]))
    with pytest.raises(NumericError):
        solve(problem, pad([0.0]))


def test_zero_information_parameter_stays_put():
    # second parameter never enters the residual; it must not move, nor
    # must the local parameter, whose Jacobian column is zero too
    problem = padded_problem(2, 1, lambda x: np.array([x[0] - 3.0]),
                             lambda x: np.array([[1.0, 0.0]]))
    report = solve(problem, np.array([0.0, 7.0, -2.0]))
    assert report.params[0] == pytest.approx(3.0, abs=1e-8)
    assert report.params[1] == 7.0 and report.params[2] == -2.0


def test_check_jacobian_flags_wrong_analytic():
    # the dense form, as acceptance criterion 1 poses it
    good = ResidualProblem(2, rosenbrock_residual, rosenbrock_jacobian)
    assert check_jacobian(good, np.array([-1.2, 1.0])) < 1e-7

    bad = ResidualProblem(
        n_params=2,
        residual=good.residual,
        jacobian=lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 5.0]]))
    assert check_jacobian(bad, np.array([-1.2, 1.0])) > 1e-2


def test_stop_reasons():
    report = solve(scalar_problem(), pad([10.0]), max_iterations=1)
    assert report.reason == "max-iter"
    report = solve(scalar_problem(), pad([3.0]))
    assert report.reason == "gradient"   # already at the optimum


def test_small_relative_cost_reduction_stops_after_the_step():
    # a constant residual of 1e3 holds the cost near 1e6, so the first
    # accepted step, which removes ~1e-6 of it, lowers the cost by ~1e-12
    # relative: the solve stops on "cost" right after that step
    problem = padded_problem(1, 2, lambda x: np.array([x[0] - 3.0, 1e3]),
                             lambda x: np.array([[1.0], [0.0]]))
    calls = counting(problem)
    report = solve(problem, pad([3.001]))
    assert report.reason == "cost"
    assert report.iterations == 1
    assert 0.0 < 1e6 + 1e-6 - report.cost <= 1e-10 * (1e6 + 1e-6)
    assert abs(report.params[0] - 3.0) < 1e-5
    assert calls == {"residual": 3, "jacobian": 2}


# --- arrowhead step against the dense damped step ---------------------------------

def random_fog_problem(rng, n_landmarks=12, n_frames=5, subset=False):
    """A noisy fog fit as the estimator poses it: observations, a start
    point, the rows fitted, and the remaining problem fields. With
    ``subset`` some landmarks keep no rows, as in stage 2."""
    beta, l_inf = rng.uniform(0.01, 0.1), rng.uniform(150.0, 250.0)
    lc = rng.uniform(20.0, 200.0, n_landmarks)
    landmark = np.repeat(np.arange(n_landmarks), n_frames)
    d = rng.uniform(10.0, 150.0, landmark.size)
    radiance = ((lc[landmark] - l_inf) * np.exp(-beta * d) + l_inf
                + rng.normal(0.0, 3.0, d.size))
    obs = ObservationSet.from_columns(np.tile(np.arange(n_frames), n_landmarks),
                                      landmark, d, radiance)
    x0 = np.concatenate(([0.03, 180.0], radiance[obs.near]))
    lower = np.concatenate(([0.001, 100.0], np.full(n_landmarks, 0.0)))
    upper = np.concatenate(([0.2, 255.0], np.full(n_landmarks, 255.0)))
    rows = np.ones(obs.n_observations, dtype=bool)
    fields = dict(lower=lower, upper=upper)
    if subset:
        rows = (rng.uniform(size=rows.size) < 0.7) & (obs.landmark % 4 != 1)
    else:
        fields.update(weights=rng.uniform(0.5, 2.0, rows.size), huber_delta=4.0)
    return obs, x0, rows, fields


def fog_slot_problem(obs, x0, rows, fields):
    return _fog_problem(x0.size, obs.distance[rows], obs.radiance[rows],
                        obs.slot[rows], **fields)


def dense_lm_iteration(obs, x0, rows, fields):
    """One damped LM iteration from the dense fog Jacobian, as a reference."""
    w = fields.get("weights", np.ones(rows.sum()))
    delta = fields.get("huber_delta")

    def evaluate(x):
        """Scaled residuals and Jacobian row factors, from the definition of
        the Huber loss rather than from the solver's helpers."""
        raw = residual_and_jacobian(x, obs)[0][rows]
        if delta is None:
            return np.sqrt(w) * raw, np.ones_like(raw)
        loss = huber_loss(raw, delta)
        # d sqrt(loss) / d|r| is 1 inside the quadratic zone, delta / sqrt(loss) outside
        factor = np.where(np.abs(raw) <= delta, 1.0, delta / np.sqrt(np.maximum(loss, delta ** 2)))
        return np.sqrt(w) * np.sign(raw) * np.sqrt(loss), factor

    rt, factor = evaluate(x0)
    Jt = (np.sqrt(w) * factor)[:, None] * residual_and_jacobian(x0, obs)[1][rows]
    g, H = Jt.T @ rt, Jt.T @ Jt
    diag = np.diag(H).copy()
    diag[diag <= 0] = 1.0
    lam = 1e-3
    while True:
        x = np.clip(x0 + np.linalg.solve(H + np.diag(lam * diag), -g),
                    fields["lower"], fields["upper"])
        rt_new, _ = evaluate(x)
        if rt_new @ rt_new < rt @ rt:
            return x
        lam *= 10.0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("subset", [False, True], ids=["huber-all-rows", "row-subset"])
def test_arrowhead_step_equals_dense_damped_step(seed, subset):
    obs, x0, rows, fields = random_fog_problem(np.random.default_rng(seed), subset=subset)
    if subset:
        assert np.unique(obs.slot[rows]).size < x0.size - 2
    report = solve(fog_slot_problem(obs, x0, rows, fields), x0, max_iterations=1)
    expected = dense_lm_iteration(obs, x0, rows, fields)
    assert report.iterations == 1
    assert np.all(np.abs(report.params - expected) <= 1e-10 * np.abs(expected))


def counting(problem):
    """Wrap the problem's callbacks, as a tracer would, and count calls."""
    calls = {"residual": 0, "jacobian": 0}
    residual, jacobian = problem.residual, problem.jacobian

    def counted_residual(x):
        calls["residual"] += 1
        return residual(x)

    def counted_jacobian(x):
        calls["jacobian"] += 1
        return jacobian(x)

    problem.residual, problem.jacobian = counted_residual, counted_jacobian
    return calls


@pytest.mark.parametrize("form", ["dense", "slot"])
def test_callback_calls_per_iteration(form):
    # the residual once for the size, once at the start and once per trial
    # point; the Jacobian once at the start and once per accepted step.
    # "dense" is a small problem without local parameters, padded
    if form == "dense":
        problem, x0 = scalar_problem(), pad([10.0])
    else:
        obs, x0, rows, fields = random_fog_problem(np.random.default_rng(0))
        problem = fog_slot_problem(obs, x0, rows, fields)
    calls = counting(problem)
    report = solve(problem, x0, max_iterations=1)
    # one iteration whose first trial lowered the cost
    assert report.reason == "max-iter"
    assert calls == {"residual": 3, "jacobian": 2}

    # many iterations, some trials rejected: the counts are the reference's,
    # and every point the Jacobian saw is as it was when it saw it
    def build():
        if form == "dense":
            return rosenbrock_problem(), pad([-1.2, 1.0])
        return fog_case(0)

    problem, x0 = build()
    want = counting(problem)
    reference = reference_solve(problem, x0, 20)
    problem, x0 = build()
    calls = counting(problem)
    seen = []
    jacobian = problem.jacobian

    def remembering_jacobian(x):
        seen.append((x, x.copy()))
        return jacobian(x)

    problem.jacobian = remembering_jacobian
    report = solve(problem, x0, 20)
    assert calls == want
    assert report.reason == "max-iter" and report.iterations == 20
    # residual: size, start point, trials; Jacobian: start point, accepted steps
    assert calls["jacobian"] == 1 + report.iterations
    assert calls["residual"] > 2 + report.iterations     # rejected trials
    assert all(x.tobytes() == copy.tobytes() for x, copy in seen)
    assert seen[-1][0] is report.params
    assert_same_report(report, reference)


def test_fog_callbacks_match_a_fresh_problem_bitwise():
    # residual and Jacobian share exp(-beta d) through a cache keyed on the
    # value of beta, so any call order, including calls on one array edited
    # in place, gives what a freshly built problem gives
    obs, x0, rows, fields = random_fog_problem(np.random.default_rng(3))
    problem = fog_slot_problem(obs, x0, rows, fields)
    x1, x2 = x0.copy(), x0 + 0.5
    x2[0] = 0.05
    x = x1.copy()

    def edit():
        x[0], x[4] = x2[0], x[4] + 1.0

    for step in (("residual", x2), ("jacobian", x1), ("residual", x), edit,
                 ("jacobian", x), ("residual", x), ("jacobian", x2), ("residual", x1)):
        if callable(step):
            step()
            continue
        name, arg = step
        got = getattr(problem, name)(arg)
        want = getattr(fog_slot_problem(obs, x0, rows, fields), name)(arg.copy())
        assert got.tobytes() == want.tobytes()


# --- bitwise reference ----------------------------------------------------------
# The solver as it was before its per-trial work was trimmed, verbatim but for
# the three names. Every rework of the iteration must reproduce it bit for bit:
# same params, cost and residuals, same iteration count and stop reason.

def _reference_blocks(cols: np.ndarray, n_global: int, flat: Optional[np.ndarray], n_local: int,
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


def _reference_cholesky_solve(m: list) -> Optional[list]:
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


def reference_solve(problem: ResidualProblem, x0: np.ndarray,
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
    n_global = 2
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
        global_block, local_rows, H_local = _reference_blocks(cols, n_global, flat, n_local, prod)
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
            neg_global = _reference_cholesky_solve(m)               # -s_g
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


def assert_same_report(got, want):
    assert got.params.tobytes() == want.params.tobytes()
    assert got.cost.hex() == want.cost.hex()
    assert got.residuals.tobytes() == want.residuals.tobytes()
    assert (got.iterations, got.reason) == (want.iterations, want.reason)


def fog_case(seed, subset=False, beta_cap=None, pinned=False):
    """A seeded fog slot problem and its start point: Huber with weights
    (stage 1), or squared loss on a row subset (stage 2); optionally with
    beta's upper bound below the truth, or every parameter pinned."""
    obs, x0, rows, fields = random_fog_problem(np.random.default_rng(seed), subset=subset)
    if beta_cap is not None:
        fields["upper"] = fields["upper"].copy()
        fields["upper"][0] = beta_cap
    if pinned:
        fields["lower"], fields["upper"] = x0.copy(), x0.copy()
    return fog_slot_problem(obs, x0, rows, fields), x0


REFERENCE_CASES = {
    # name: (problem and start, iteration cap, expected stop reason)
    "huber-weights-0": (lambda: fog_case(0), 100, "cost"),
    "huber-weights-1": (lambda: fog_case(1), 100, "cost"),
    "huber-weights-4": (lambda: fog_case(4), 100, "max-iter"),
    "row-subset-0": (lambda: fog_case(0, subset=True), 100, "cost"),
    "row-subset-1": (lambda: fog_case(1, subset=True), 100, "max-iter"),
    "row-subset-3": (lambda: fog_case(3, subset=True), 100, "cost"),
    "beta-on-bound-0": (lambda: fog_case(0, beta_cap=0.004), 100, "max-iter"),
    "beta-on-bound-subset-1": (lambda: fog_case(1, subset=True, beta_cap=0.004), 100, "cost"),
    "pinned-box": (lambda: fog_case(2, pinned=True), 100, "step"),
    "cap-3": (lambda: fog_case(5), 3, "max-iter"),
    "scalar": (lambda: (scalar_problem(), pad([10.0])), 100, "gradient"),
    "scalar-on-bound": (lambda: (scalar_problem(lower=np.array([0.0]), upper=np.array([2.0])),
                                 pad([1.0])), 100, "step"),
    "rosenbrock": (lambda: (rosenbrock_problem(), pad([-1.2, 1.0])), 100, "gradient"),
    "rosenbrock-cap-5": (lambda: (rosenbrock_problem(), pad([-1.2, 1.0])), 5, "max-iter"),
    # the residuals are the point itself, so they live in the trial buffer
    "residual-is-x": (lambda: (padded_problem(2, 2, lambda x: x, lambda x: np.eye(2)),
                               pad([3.0, -4.0])), 100, "gradient"),
}


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_solve_matches_the_reference_bitwise(name):
    build, max_iterations, reason = REFERENCE_CASES[name]
    problem, x0 = build()
    want = reference_solve(problem, x0, max_iterations)
    got = solve(problem, x0, max_iterations)
    assert got.reason == reason
    assert_same_report(got, want)
    if name.startswith("beta-on-bound"):
        assert got.params[0] == problem.upper[0]


@pytest.mark.parametrize("n", [2])
def test_cholesky_solve_matches_the_reference(n):
    rng = np.random.default_rng(n)
    results = []
    for trial in range(200):
        a = rng.normal(size=(n, n))
        if trial % 2:
            s = a @ a.T + 0.1 * np.eye(n)           # positive definite
        else:
            s = a + a.T                             # indefinite, mostly
        m = np.column_stack((s, rng.normal(size=n))).tolist()
        got = _cholesky_solve([row[:] for row in m])
        want = _reference_cholesky_solve([row[:] for row in m])
        results.append(want is not None)
        if want is None:
            assert got is None
        else:
            assert [v.hex() for v in got] == [v.hex() for v in want]
    # both outcomes occur
    assert any(results) and not all(results)
    # a zero or NaN leading pivot is not positive
    for pivot in (0.0, math.nan):
        m = np.eye(n, n + 1).tolist()
        m[0][0] = pivot
        assert _cholesky_solve([row[:] for row in m]) is None
        assert _reference_cholesky_solve([row[:] for row in m]) is None
