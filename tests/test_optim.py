import numpy as np
import pytest

from legal_sbd.errors import TrainingError
from legal_sbd.optim import minimize_lbfgs


def quadratic(center):
    def fun(x):
        d = x - center
        return 0.5 * float(d @ d), d

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
            return 0.5 * float(x @ hessian @ x) - float(linear @ x), hessian @ x - linear

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
    return f, g


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


def test_deterministic():
    center = np.array([1.0, -4.0, 2.5])
    a = minimize_lbfgs(quadratic(center), np.zeros(3), l1=0.3, tol=1e-13)
    b = minimize_lbfgs(quadratic(center), np.zeros(3), l1=0.3, tol=1e-13)
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun


def test_non_finite_start_aborts():
    def bad(x):
        return float("nan"), x

    with pytest.raises(TrainingError, match="non-finite"):
        minimize_lbfgs(bad, np.zeros(2))


def test_negative_l1_rejected():
    with pytest.raises(ValueError):
        minimize_lbfgs(quadratic(np.zeros(2)), np.zeros(2), l1=-1.0)
