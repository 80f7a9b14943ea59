"""Matrix-free L-BFGS with a strong Wolfe line search, plus a gradient checker.

The minimizer touches the problem only through a callback returning
``(f, grad)``, so it scales to states that exist solely as flat vectors.
"""

from __future__ import annotations

import csv
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .domain import NumericalError

logger = logging.getLogger(__name__)

Evaluate = Callable[[np.ndarray], tuple[float, np.ndarray]]

# Strong Wolfe constants: sufficient decrease and curvature.
_C1 = 1e-4
_C2 = 0.9
# Curvature pairs with s'y below this relative floor are discarded.
_PAIR_FLOOR = 1e-12


@dataclass
class MinimizeResult:
    """Outcome of a minimization run.

    ``trace`` holds one ``(iteration, f, grad_norm, step)`` row per accepted
    iterate, starting with the initial point at step 0.
    """

    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    status: str
    trace: list[tuple[int, float, float, float]] = field(repr=False, default_factory=list)
    n_evaluations: int = 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def write_trace(path, trace: Sequence[tuple[int, float, float, float]]) -> None:
    """Write a trace as CSV with columns iter,f,grad_norm,step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "f", "grad_norm", "step"])
        for row in trace:
            writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])


def _check_pair(f: float, g: np.ndarray) -> None:
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericalError("objective or gradient is non-finite")


def _strong_wolfe(
    evaluate: Evaluate,
    x: np.ndarray,
    f0: float,
    g0: np.ndarray,
    direction: np.ndarray,
    alpha0: float,
    max_expand: int = 25,
    max_zoom: int = 40,
):
    """Line search satisfying the strong Wolfe conditions.

    Returns ``(alpha, f, g, n_evals)`` on success or ``None`` on failure.
    Follows the usual bracket-then-zoom scheme with safeguarded quadratic
    interpolation inside the zoom phase.
    """
    dphi0 = float(g0 @ direction)
    if dphi0 >= 0:
        return None
    n_evals = 0

    def phi(alpha: float):
        nonlocal n_evals
        f, g = evaluate(x + alpha * direction)
        _check_pair(f, g)
        n_evals += 1
        return f, float(g @ direction), g

    def zoom(a_lo, f_lo, dphi_lo, a_hi, f_hi):
        nonlocal n_evals
        for _ in range(max_zoom):
            span = a_hi - a_lo
            if abs(span) < 1e-16 * max(1.0, abs(a_lo)):
                return None
            # Quadratic model through (a_lo, f_lo, dphi_lo) and (a_hi, f_hi).
            denom = f_hi - f_lo - dphi_lo * span
            if denom > 0:
                a = a_lo - 0.5 * dphi_lo * span * span / denom
            else:
                a = a_lo + 0.5 * span
            lo, hi = (a_lo, a_hi) if a_lo < a_hi else (a_hi, a_lo)
            margin = 0.1 * (hi - lo)
            if not (lo + margin <= a <= hi - margin):
                a = a_lo + 0.5 * span
            f_a, dphi_a, g_a = phi(a)
            if f_a > f0 + _C1 * a * dphi0 or f_a >= f_lo:
                a_hi, f_hi = a, f_a
            else:
                if abs(dphi_a) <= -_C2 * dphi0:
                    return a, f_a, g_a, n_evals
                if dphi_a * span >= 0:
                    a_hi, f_hi = a_lo, f_lo
                a_lo, f_lo, dphi_lo = a, f_a, dphi_a
        return None

    a_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    alpha = alpha0
    for i in range(max_expand):
        f_a, dphi_a, g_a = phi(alpha)
        if f_a > f0 + _C1 * alpha * dphi0 or (i > 0 and f_a >= f_prev):
            return zoom(a_prev, f_prev, dphi_prev, alpha, f_a)
        if abs(dphi_a) <= -_C2 * dphi0:
            return alpha, f_a, g_a, n_evals
        if dphi_a >= 0:
            return zoom(alpha, f_a, dphi_a, a_prev, f_prev)
        a_prev, f_prev, dphi_prev = alpha, f_a, dphi_a
        alpha = min(2.0 * alpha, 1e10)
    return None


def lbfgs_minimize(
    evaluate: Evaluate,
    x0: np.ndarray,
    memory: int = 10,
    max_iter: int = 500,
    grad_tol: float = 1e-6,
) -> MinimizeResult:
    """Minimize a smooth function with limited-memory BFGS.

    Parameters
    ----------
    evaluate : callable
        Maps a flat vector to ``(f, grad)``.
    x0 : ndarray
        Starting point.
    memory : int
        Number of curvature pairs kept for the two-loop recursion.
    max_iter : int
        Iteration cap.
    grad_tol : float
        Stop once ``||grad|| / max(1, ||x||) <= grad_tol``.

    Returns
    -------
    MinimizeResult
        ``status`` is "converged", "max_iter", or "line_search_failed"; the
        last iterate with the lowest seen objective is always returned.
    """
    if memory < 1 or max_iter < 1 or not grad_tol > 0:
        raise ValueError("memory and max_iter must be >= 1 and grad_tol positive")
    x = np.array(x0, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x0 must be a flat vector")
    f, g = evaluate(x)
    _check_pair(f, g)
    n_evals = 1
    gnorm = float(np.linalg.norm(g))
    trace: list[tuple[int, float, float, float]] = [(0, f, gnorm, 0.0)]
    pairs: deque = deque(maxlen=memory)
    status = "max_iter"
    iteration = 0

    while iteration < max_iter:
        if gnorm / max(1.0, float(np.linalg.norm(x))) <= grad_tol:
            status = "converged"
            break
        # Two-loop recursion.
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= float(s @ y) / float(y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        direction = -q
        if float(g @ direction) >= 0:
            # Stale curvature produced a non-descent direction; restart.
            pairs.clear()
            direction = -g
        alpha0 = min(1.0, 1.0 / max(gnorm, 1e-16)) if iteration == 0 else 1.0
        result = _strong_wolfe(evaluate, x, f, g, direction, alpha0)
        if result is None:
            status = "line_search_failed"
            logger.warning(
                "line search failed at iteration %d (f=%.6e, ||g||=%.3e); returning best iterate",
                iteration + 1, f, gnorm,
            )
            break
        alpha, f_new, g_new, evals = result
        n_evals += evals
        s = alpha * direction
        y = g_new - g
        sy = float(s @ y)
        if sy > _PAIR_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
        x = x + s
        f, g = f_new, g_new
        gnorm = float(np.linalg.norm(g))
        iteration += 1
        trace.append((iteration, f, gnorm, alpha))
    else:
        status = "max_iter"

    if status == "max_iter" and gnorm / max(1.0, float(np.linalg.norm(x))) <= grad_tol:
        status = "converged"
    return MinimizeResult(
        x=x, f=f, grad_norm=gnorm, iterations=iteration, status=status,
        trace=trace, n_evaluations=n_evals,
    )


def finite_diff_check(
    evaluate: Evaluate,
    x: np.ndarray,
    step: float,
    n_directions: int = 20,
    seed: int = 0,
) -> float:
    """Compare the analytic gradient against central finite differences.

    For states up to 10^4 entries every coordinate is probed; beyond that,
    ``n_directions`` random unit directions are used instead. Returns the
    maximum relative discrepancy, where each comparison is scaled by
    ``max(1, |analytic|, |numeric|)``.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    f0, g = evaluate(x)
    _check_pair(f0, g)
    worst = 0.0
    if x.size <= 10_000:
        probe = x.copy()
        for i in range(x.size):
            orig = probe[i]
            probe[i] = orig + step
            f_plus = evaluate(probe)[0]
            probe[i] = orig - step
            f_minus = evaluate(probe)[0]
            probe[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(numeric - g[i]) / max(1.0, abs(numeric), abs(g[i]))
            worst = max(worst, err)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(max(n_directions, 20)):
            d = rng.standard_normal(x.size)
            d /= np.linalg.norm(d)
            f_plus = evaluate(x + step * d)[0]
            f_minus = evaluate(x - step * d)[0]
            numeric = (f_plus - f_minus) / (2.0 * step)
            analytic = float(g @ d)
            err = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
            worst = max(worst, err)
    return worst
