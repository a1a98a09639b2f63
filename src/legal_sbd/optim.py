"""Limited-memory quasi-Newton minimization with optional L1 penalty.

Minimizes ``F(x) = f(x) + l1 * ||x||_1`` where *f* is smooth and supplied
as a function returning ``(value, gradient)``.  With ``l1 == 0`` this is
plain L-BFGS with an Armijo backtracking line search.  With ``l1 > 0`` it
is the orthant-wise variant (OWL-QN): the L1 term enters through a
pseudo-gradient, search directions are constrained to the orthant of the
steepest-descent direction, and line-search iterates are projected back
onto that orthant, which is what produces exactly-zero coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TrainingError

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 50
_CURVATURE_EPS = 1e-10


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float  # final objective including the L1 term
    iterations: int
    converged: bool
    stop_reason: str
    evaluations: int  # calls of the objective, the line searches' included


def _pseudo_gradient(x: np.ndarray, grad: np.ndarray, l1: float) -> np.ndarray:
    """Steepest-descent surrogate for the non-smooth objective.

    At nonzero coordinates the L1 term is differentiable; at zero the
    one-sided derivative closer to zero wins, and coordinates whose
    subdifferential contains zero get a zero entry (they are optimal).
    """
    right = grad + l1
    left = grad - l1
    pg = np.where(x > 0, right, np.where(x < 0, left, 0.0))
    at_zero = x == 0
    if at_zero.any():
        pg_zero = np.where(right < 0, right, np.where(left > 0, left, 0.0))
        pg = np.where(at_zero, pg_zero, pg)
    return pg


def _two_loop(grad: np.ndarray, history: list) -> np.ndarray:
    """Approximate ``H^-1 @ grad`` from the stored (s, y) pairs."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def minimize_lbfgs(
    fun: Objective,
    x0: np.ndarray,
    *,
    l1: float = 0.0,
    max_iterations: int = 100,
    memory: int = 10,
    tol: float = 1e-6,
    callback: Callable[[int, float], None] | None = None,
) -> MinimizeResult:
    """Minimize ``fun(x) + l1 * ||x||_1`` starting from *x0*.

    Stops when the relative objective change drops below *tol*, the
    (pseudo-)gradient vanishes, *max_iterations* outer iterations ran, or
    the line search cannot make progress.  Deterministic: identical inputs
    produce identical iterates.
    """
    if l1 < 0:
        raise ValueError(f"l1 must be >= 0, got {l1}")
    x = np.array(x0, dtype=np.float64, copy=True)
    f, g = fun(x)
    evaluations = 1
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise TrainingError(f"objective is non-finite at the initial point (f={f})")
    big_f = f + l1 * np.abs(x).sum() if l1 > 0 else f
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    iterations = 0
    converged = False
    stop_reason = "max_iterations"

    for it in range(1, max_iterations + 1):
        pg = _pseudo_gradient(x, g, l1) if l1 > 0 else g
        if np.max(np.abs(pg)) < 1e-12:
            converged, stop_reason = True, "gradient"
            break
        d = -_two_loop(pg, history)
        if l1 > 0:
            d[d * pg >= 0] = 0.0  # keep only components aligned with -pg
        deriv = float(pg @ d)
        if deriv >= 0 or not np.isfinite(deriv):
            # fall back to steepest descent when the metric degenerates
            history.clear()
            d = -pg
            deriv = -float(pg @ pg)
        if l1 > 0:
            orthant = np.where(x != 0, np.sign(x), -np.sign(pg))
        step = 1.0 if it > 1 else min(1.0, 1.0 / float(np.linalg.norm(d)))

        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + step * d
            if l1 > 0:
                x_new[x_new * orthant < 0] = 0.0
            dg = float(pg @ (x_new - x))
            if dg >= 0:
                step *= 0.5
                continue
            f_new, g_new = fun(x_new)
            evaluations += 1
            big_f_new = f_new + l1 * np.abs(x_new).sum() if l1 > 0 else f_new
            if (
                np.isfinite(big_f_new)
                and np.all(np.isfinite(g_new))
                and big_f_new <= big_f + _ARMIJO_C * dg
            ):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stop_reason = "line_search"
            break

        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > _CURVATURE_EPS * float(np.linalg.norm(s) * np.linalg.norm(y)):
            history.append((s, y, 1.0 / sy))
            if len(history) > memory:
                history.pop(0)

        rel_change = (big_f - big_f_new) / max(abs(big_f), abs(big_f_new), 1.0)
        x, f, g, big_f = x_new, f_new, g_new, big_f_new
        iterations = it
        if callback is not None:
            callback(it, big_f)
        if rel_change < tol:
            converged, stop_reason = True, "objective"
            break

    return MinimizeResult(
        x=x,
        fun=big_f,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        evaluations=evaluations,
    )
