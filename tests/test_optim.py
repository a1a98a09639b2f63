import math

import numpy as np
import pytest

from legal_sbd.errors import TrainingError
from legal_sbd import optim
from legal_sbd.optim import _two_loop, minimize_lbfgs


def quadratic(center):
    def fun(x):
        d = x - center
        return 0.5 * float(d @ d), lambda: d

    return fun


def test_quadratic_exact():
    center = np.array([3.0, -2.0, 0.5, 7.0])
    res = minimize_lbfgs(quadratic(center), np.zeros(4), tol=1e-14)
    assert res.converged
    np.testing.assert_allclose(res.x, center, atol=1e-10)


def test_lasso_soft_threshold():
    # argmin 0.5||x - a||^2 + lam*||x||_1 has the closed form
    # sign(a) * max(|a| - lam, 0); exact zeros must come out exactly zero
    a = np.array([3.0, -2.0, 0.5, 7.0, -0.2])
    lam = 1.0
    want = np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)
    res = minimize_lbfgs(quadratic(a), np.zeros(5), l1=lam, tol=1e-14, max_iterations=300)
    np.testing.assert_allclose(res.x, want, atol=1e-10)
    assert res.x[2] == 0.0
    assert res.x[4] == 0.0


def test_l1_produces_exact_zeros_on_random_problems(rng):
    for _ in range(5):
        dim = 8
        root = rng.normal(size=(dim, dim))
        hessian = root @ root.T + np.eye(dim)
        linear = rng.normal(size=dim)
        lam = 0.8

        def fun(x):
            return 0.5 * float(x @ hessian @ x) - float(linear @ x), lambda: hessian @ x - linear

        res = minimize_lbfgs(fun, np.zeros(dim), l1=lam, tol=1e-15, max_iterations=500)

        # coordinate-descent reference solution
        x = np.zeros(dim)
        for _ in range(5000):
            for i in range(dim):
                r = linear[i] - hessian[i] @ x + hessian[i, i] * x[i]
                x[i] = np.sign(r) * max(abs(r) - lam, 0.0) / hessian[i, i]
        np.testing.assert_allclose(res.x, x, atol=1e-6)


def rosen(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
    g = np.array(
        [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
         200.0 * (x[1] - x[0] ** 2)]
    )
    return f, lambda: g


def test_rosenbrock():
    res = minimize_lbfgs(rosen, np.array([-1.2, 1.0]), tol=1e-16, max_iterations=500)
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_objective_decreases_monotonically():
    values = []
    center = np.arange(6, dtype=float)
    minimize_lbfgs(
        quadratic(center), np.zeros(6), l1=0.5, tol=1e-12,
        callback=lambda it, f: values.append(f),
    )
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_max_iterations_respected():
    center = np.full(40, 13.7)
    res = minimize_lbfgs(quadratic(center), np.zeros(40), max_iterations=3, tol=0.0)
    assert res.iterations <= 3


def test_evaluations_count_every_objective_call():
    # the Rosenbrock line searches backtrack, so calls exceed iterations + 1
    calls = []

    def counted(x):
        calls.append(x.copy())
        return rosen(x)

    res = minimize_lbfgs(counted, np.array([-1.2, 1.0]), tol=1e-16, max_iterations=500)
    assert res.evaluations == len(calls)
    assert res.evaluations > res.iterations + 1


@pytest.mark.parametrize("l1", [0.0, 0.5])
def test_gradient_taken_only_at_the_start_and_at_accepted_points(l1):
    values, gradients, accepted = [], [], []

    def fun(x):
        values.append(x.copy())
        f, gradient = rosen(x)

        def counted():
            gradients.append(x.copy())
            return gradient()

        return f, counted

    res = minimize_lbfgs(
        fun, np.array([-1.2, 1.0]), l1=l1, tol=1e-16, max_iterations=500,
        callback=lambda it, big_f: accepted.append(big_f),
    )
    assert res.gradients == len(gradients) == res.iterations + 1
    assert res.evaluations == len(values) > len(gradients)  # no rejected trial took one
    # after the start's, each gradient is taken at the point its iteration accepted
    assert [rosen(x)[0] + l1 * np.abs(x).sum() for x in gradients[1:]] == accepted
    assert np.array_equal(gradients[-1], res.x)


def test_trial_with_a_non_finite_gradient_is_rejected_and_the_step_halved():
    # the first trial passes the Armijo test, but its gradient is NaN
    points = []

    def fun(x):
        points.append(x.copy())
        g = np.full_like(x, np.nan) if len(points) == 2 else x
        return 0.5 * float(x @ x), lambda: g

    x0 = np.array([1.0, 2.0])
    res = minimize_lbfgs(fun, x0, max_iterations=1)
    step, d = 1.0 / math.sqrt(5.0), -x0  # steepest descent, at most a unit step
    assert np.array_equal(points[1], x0 + step * d)
    assert np.array_equal(points[2], x0 + (step / 2) * d)
    assert (res.iterations, res.evaluations, res.gradients) == (1, 3, 3)
    assert np.array_equal(res.x, points[2])


@pytest.mark.parametrize("fun, x0, l1, tol, max_iterations, want_x, want_evaluations", [
    (rosen, [-1.2, 1.0], 0.0, 1e-16, 500, ["0x1.0000000000000p+0", "0x1.0000000000000p+0"], 57),
    (rosen, [-1.2, 1.0], 0.5, 1e-16, 500, ["0x1.fff27f6463176p-2", "0x1.fac59790dacdbp-3"], 1520),
    (quadratic(np.array([3.0, -2.0, 0.5, 7.0, -0.2])), [0.0] * 5, 1.0, 1e-14, 300,
     ["0x1.fffffffffffffp+0", "-0x1.fffffffffffffp-1", "0x0.0p+0", "0x1.8000000000001p+2",
      "0x0.0p+0"], 3),
], ids=["rosenbrock", "rosenbrock-l1", "lasso"])
def test_iterates_and_evaluations_are_pinned(
    fun, x0, l1, tol, max_iterations, want_x, want_evaluations
):
    # taking the gradient apart from the value must not move a bit of the path
    res = minimize_lbfgs(fun, np.array(x0), l1=l1, tol=tol, max_iterations=max_iterations)
    assert [v.hex() for v in res.x.tolist()] == want_x
    assert res.evaluations == want_evaluations


def test_non_finite_direction_falls_back_to_steepest_descent(monkeypatch):
    # a gradient of 1e160 at the third point makes the slope of the
    # two-loop direction non-finite: the history is cleared and d = -g
    history = []  # the optimizer's (s, y) list, as the two-loop is handed it

    def two_loop(grad, pairs):
        history[:] = [pairs]
        return _two_loop(grad, pairs)

    calls, huge = [], np.array([1e160, 1e160])

    def fun(x):
        calls.append((x.copy(), len(history[0]) if history else 0))  # point, pairs held
        g = huge if len(calls) == 3 else x  # the quadratic 0.5 * |x|^2, then the jump
        return 10.0 - len(calls), lambda: g

    monkeypatch.setattr(optim, "_two_loop", two_loop)
    with np.errstate(over="ignore", invalid="ignore"):  # 1e160 ** 2 overflows
        res = minimize_lbfgs(fun, np.array([1.0, 2.0]), max_iterations=3)
    (x2, held_before), (x3, held_after) = calls[2], calls[3]
    assert held_before == 1 and held_after == 0
    assert np.array_equal(x3, x2 - huge)  # d = -pg, at step 1
    assert res.stop_reason == "line_search"


def test_deterministic():
    center = np.array([1.0, -4.0, 2.5])
    a = minimize_lbfgs(quadratic(center), np.zeros(3), l1=0.3, tol=1e-13)
    b = minimize_lbfgs(quadratic(center), np.zeros(3), l1=0.3, tol=1e-13)
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun


def test_non_finite_start_aborts():
    def bad(x):
        return float("nan"), lambda: x

    with pytest.raises(TrainingError, match="non-finite"):
        minimize_lbfgs(bad, np.zeros(2))


def test_negative_l1_rejected():
    with pytest.raises(ValueError):
        minimize_lbfgs(quadratic(np.zeros(2)), np.zeros(2), l1=-1.0)


def test_line_search_stops_on_a_gradient_that_points_uphill():
    # every step along minus the reported gradient raises the objective,
    # so no backtrack meets the Armijo condition
    def fun(x):
        return 0.5 * float(x @ x), lambda: -x

    x0 = np.array([1.0, -2.0])
    res = minimize_lbfgs(fun, x0)
    assert (res.stop_reason, res.converged, res.iterations) == ("line_search", False, 0)
    assert res.evaluations == 51  # the start and each of the 50 backtracks
    assert np.array_equal(res.x, x0) and res.fun == 2.5


@pytest.mark.parametrize("l1", [0.0, 0.5])
def test_step_lost_to_rounding_is_never_evaluated(l1):
    # x + step * d rounds back to x (doubles near 1e17 are 16 apart), so no
    # backtrack moves (dg == 0) and the search halves the step without
    # calling the objective
    def fun(x):
        return float(x.sum()), lambda: np.ones_like(x)

    x0 = np.array([1e17, -1e17])
    res = minimize_lbfgs(fun, x0, l1=l1)
    assert (res.stop_reason, res.iterations, res.evaluations) == ("line_search", 0, 1)
    assert np.array_equal(res.x, x0)
