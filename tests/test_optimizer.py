"""Projected Levenberg-Marquardt solver and robust residual rescaling."""

import math

import numpy as np
import pytest

from foglab.errors import NumericError
from foglab.estimator import _fog_problem, residual_and_jacobian
from foglab.localmap import ObservationSet
from foglab.optimizer import ResidualProblem, check_jacobian, robust_scale, solve


def scalar_problem(**kwargs):
    # residual r(x) = x - 3, minimized at x = 3
    return ResidualProblem(
        n_params=1,
        residual=lambda x: np.array([x[0] - 3.0]),
        jacobian=lambda x: np.array([[1.0]]),
        **kwargs)


def rosenbrock_problem():
    # classic curved valley, unique minimum at (1, 1) with zero residuals
    def residual(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jacobian(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    return ResidualProblem(n_params=2, residual=residual, jacobian=jacobian)


def test_scalar_minimum():
    report = solve(scalar_problem(), np.array([10.0]))
    assert report.params[0] == pytest.approx(3.0, abs=1e-8)
    assert report.cost == pytest.approx(0.0, abs=1e-15)


def test_active_bound_is_respected():
    problem = scalar_problem(lower=np.array([0.0]), upper=np.array([2.0]))
    report = solve(problem, np.array([1.0]))
    assert report.params[0] == pytest.approx(2.0, abs=1e-12)
    # feasible throughout, including the solution
    assert 0.0 <= report.params[0] <= 2.0


def test_init_outside_box_is_projected():
    problem = scalar_problem(lower=np.array([0.0]), upper=np.array([2.0]))
    report = solve(problem, np.array([50.0]))
    assert report.params[0] == pytest.approx(2.0, abs=1e-12)
    assert 0.0 <= report.params[0] <= 2.0


def test_rosenbrock_from_standard_start():
    report = solve(rosenbrock_problem(), np.array([-1.2, 1.0]),
                   max_iterations=200)
    assert np.allclose(report.params, [1.0, 1.0], atol=1e-6)


def test_deterministic_bitwise():
    a = solve(rosenbrock_problem(), np.array([-1.2, 1.0]))
    b = solve(rosenbrock_problem(), np.array([-1.2, 1.0]))
    assert a.params.tobytes() == b.params.tobytes()
    assert a.cost == b.cost and a.iterations == b.iterations


def test_cost_never_increases_with_more_iterations():
    costs = [solve(rosenbrock_problem(), np.array([-1.2, 1.0]),
                   max_iterations=k).cost
             for k in range(1, 25)]
    assert all(c2 <= c1 + 1e-15 for c1, c2 in zip(costs, costs[1:]))


def test_weights_shift_the_optimum():
    # two incompatible targets: weighted mean 2*1 + 1*4 over total weight 3
    problem = ResidualProblem(
        n_params=1,
        residual=lambda x: np.array([x[0] - 1.0, x[0] - 4.0]),
        jacobian=lambda x: np.array([[1.0], [1.0]]),
        weights=np.array([2.0, 1.0]))
    report = solve(problem, np.array([0.0]), max_iterations=200)
    assert report.params[0] == pytest.approx(2.0, abs=1e-6)


def test_huber_downweights_outlier():
    # square loss pulls the fit toward the outlier; huber mostly ignores it
    targets = np.array([0.0, 0.1, -0.1, 100.0])

    def make(delta=None):
        return ResidualProblem(
            n_params=1,
            residual=lambda x: x[0] - targets,
            jacobian=lambda x: np.ones((4, 1)),
            huber_delta=delta)

    x_sq = solve(make(), np.array([0.0]), max_iterations=300).params[0]
    x_hu = solve(make(1.0), np.array([0.0]), max_iterations=300).params[0]
    assert x_sq == pytest.approx(25.0, abs=1e-6)
    assert abs(x_hu) < 1.0


def test_robust_scale_square_is_identity():
    raw = np.array([-2.0, 0.0, 3.0])
    scaled, factor = robust_scale(raw)
    assert np.array_equal(scaled, raw)
    assert np.array_equal(factor, np.ones(3))


def test_robust_scale_huber_inside_is_identity():
    scaled, factor = robust_scale(np.array([3.0, -2.0]), delta=5.0)
    assert np.allclose(scaled, [3.0, -2.0])
    assert np.allclose(factor, [1.0, 1.0])


def test_robust_scale_huber_outside_reference():
    # loss(50) with delta 5 is 2*5*50 - 25 = 475; scaled residual sqrt(475)
    scaled, factor = robust_scale(np.array([50.0, -50.0]), delta=5.0)
    assert scaled[0] == pytest.approx(math.sqrt(475.0))
    assert scaled[1] == pytest.approx(-math.sqrt(475.0))
    assert np.all(scaled ** 2 == pytest.approx(475.0))
    assert factor[0] == pytest.approx(5.0 / math.sqrt(475.0))


def test_robust_scale_squares_to_loss_everywhere():
    raw = np.linspace(-20.0, 20.0, 81)
    delta = 5.0
    scaled, _ = robust_scale(raw, delta)
    expected = np.where(np.abs(raw) <= delta,
                        raw ** 2, 2.0 * delta * np.abs(raw) - delta ** 2)
    assert np.allclose(scaled ** 2, expected)


def test_robust_scale_validation():
    with pytest.raises(ValueError):
        robust_scale(np.array([1.0]), delta=0.0)


def test_problem_validation():
    with pytest.raises(ValueError, match="huber_delta"):
        scalar_problem(huber_delta=0.0)
    with pytest.raises(ValueError, match="weights"):
        scalar_problem(weights=np.array([-1.0]))
    with pytest.raises(ValueError, match="bounds"):
        scalar_problem(lower=np.array([3.0]), upper=np.array([1.0]))
    with pytest.raises(ValueError, match="bounds"):
        scalar_problem(lower=np.array([0.0, 0.0]))
    for slot, n_global in (([0, 1], None), ([0, 1], 2), ([0, -1], 1), ([0.0], 1)):
        with pytest.raises(ValueError, match="slot"):
            ResidualProblem(2, scalar_problem().residual, scalar_problem().jacobian,
                            slot=np.array(slot), n_global=n_global)
    with pytest.raises(ValueError, match="n_global needs slot"):
        scalar_problem(n_global=0)


def test_solve_input_validation():
    with pytest.raises(ValueError, match="x0"):
        solve(scalar_problem(), np.array([1.0, 2.0]))
    bad_w = scalar_problem(weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="weights"):
        solve(bad_w, np.array([1.0]))

    problem = ResidualProblem(
        n_params=1,
        residual=lambda x: np.array([x[0]]),
        jacobian=lambda x: np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError, match="jacobian shape"):
        solve(problem, np.array([1.0]))

    # the slot form takes (N, n_global + 1) columns, not the dense matrix
    obs, x0, _, _ = random_fog_problem(np.random.default_rng(0))
    dense = ResidualProblem(x0.size, lambda x: residual_and_jacobian(x, obs)[0],
                            lambda x: residual_and_jacobian(x, obs)[1],
                            slot=obs.slot, n_global=2)
    with pytest.raises(ValueError, match="jacobian shape"):
        solve(dense, x0)


def test_non_finite_start_raises():
    problem = ResidualProblem(
        n_params=1,
        residual=lambda x: np.array([np.nan]),
        jacobian=lambda x: np.array([[1.0]]))
    with pytest.raises(NumericError):
        solve(problem, np.array([0.0]))


def test_zero_information_parameter_stays_put():
    # second parameter never enters the residual; it must not move
    problem = ResidualProblem(
        n_params=2,
        residual=lambda x: np.array([x[0] - 3.0]),
        jacobian=lambda x: np.array([[1.0, 0.0]]))
    report = solve(problem, np.array([0.0, 7.0]))
    assert report.params[0] == pytest.approx(3.0, abs=1e-8)
    assert report.params[1] == 7.0


def test_check_jacobian_flags_wrong_analytic():
    good = rosenbrock_problem()
    assert check_jacobian(good, np.array([-1.2, 1.0])) < 1e-7

    bad = ResidualProblem(
        n_params=2,
        residual=good.residual,
        jacobian=lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 5.0]]))
    assert check_jacobian(bad, np.array([-1.2, 1.0])) > 1e-2


def test_stop_reasons():
    report = solve(scalar_problem(), np.array([10.0]), max_iterations=1)
    assert report.reason == "max-iter"
    report = solve(scalar_problem(), np.array([3.0]))
    assert report.reason == "gradient"   # already at the optimum


def test_small_relative_cost_reduction_stops_after_the_step():
    # a constant residual of 1e3 holds the cost near 1e6, so the first
    # accepted step, which removes ~1e-6 of it, lowers the cost by ~1e-12
    # relative: the solve stops on "cost" right after that step
    problem = ResidualProblem(
        n_params=1,
        residual=lambda x: np.array([x[0] - 3.0, 1e3]),
        jacobian=lambda x: np.array([[1.0], [0.0]]))
    calls = counting(problem)
    report = solve(problem, np.array([3.001]))
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
        scaled, factor = robust_scale(residual_and_jacobian(x, obs)[0][rows], delta)
        return np.sqrt(w) * scaled, factor

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
    # point; the Jacobian once at the start and once per accepted step
    if form == "dense":
        problem, x0 = scalar_problem(), np.array([10.0])
    else:
        obs, x0, rows, fields = random_fog_problem(np.random.default_rng(0))
        problem = fog_slot_problem(obs, x0, rows, fields)
    calls = counting(problem)
    report = solve(problem, x0, max_iterations=1)
    # one iteration whose first trial lowered the cost
    assert report.reason == "max-iter"
    assert calls == {"residual": 3, "jacobian": 2}


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
