"""Projected Levenberg-Marquardt solver and robust residual rescaling."""

import math

import numpy as np
import pytest

from foglab.errors import NumericError
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
    assert report.projected_init
    assert report.params[0] == pytest.approx(2.0, abs=1e-12)
    assert not solve(problem, np.array([1.0])).projected_init


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
