"""Matrix-free L-BFGS with exact steps on a convex quadratic, plus a gradient checker.

The minimizer touches the problem only through a callback returning
``(f, grad)``, so it scales to states that exist solely as flat vectors.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .domain import NumericalError

Evaluate = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class MinimizeResult:
    """Outcome of a minimization run.

    ``trace`` holds one ``(iteration, f, grad_norm, step)`` row per iterate,
    starting with the initial point at step 0; ``step`` is the exact step
    length. ``f`` and ``grad_norm`` are updated from the quadratic model, not
    re-evaluated, and ``n_evaluations`` is ``iterations + 1``.
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


def _direction(pairs: deque, g: np.ndarray, precondition) -> np.ndarray:
    """The L-BFGS direction ``-H g`` by the two-loop recursion over ``pairs``.

    A function of its own so that its loop variables, which name the pairs'
    vectors, are gone once the direction is returned.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if precondition is not None:
        q = precondition(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return np.negative(q, out=q)


def lbfgs_minimize(
    evaluate: Evaluate,
    x0: np.ndarray,
    memory: int = 10,
    max_iter: int = 500,
    grad_tol: float = 1e-6,
    precondition: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> MinimizeResult:
    """Minimize a strictly convex quadratic with limited-memory BFGS.

    Each iteration evaluates the gradient once, at ``x + d`` for the two-loop
    direction ``d``. On a quadratic the gradient difference is ``Hd``, which
    gives the exact step ``-g'd / d'Hd``, the new gradient and the new
    objective without a line search; the iterates are those of conjugate
    gradients (Nazareth 1979).

    Parameters
    ----------
    evaluate : callable
        Maps a flat vector to ``(f, grad)`` of a quadratic whose Hessian is
        positive definite.
    x0 : ndarray
        Starting point.
    memory : int
        Number of curvature pairs kept for the two-loop recursion. In exact
        arithmetic the iterates are those of (preconditioned) conjugate
        gradients for any memory. A good ``precondition`` converges before
        rounding can tell memories apart, so there pairs beyond the first
        change nothing but cost two state vectors each and four vector
        operations per iteration; a slow unpreconditioned solve can differ
        by an iteration or two between memories. The oldest pair is dropped
        as soon as the direction is formed, so at most ``memory - 1`` pairs
        are held while ``evaluate`` runs.
    max_iter : int
        Iteration cap.
    grad_tol : float
        Stop once ``||grad|| / max(1, ||x||) <= grad_tol``.
    precondition : callable, optional
        A fixed symmetric positive definite ``v -> P^-1 v``, P close to the
        Hessian: the two-loop recursion's initial inverse Hessian, which is
        the identity when omitted.

    Returns
    -------
    MinimizeResult
        ``status`` is "converged" or "max_iter". A non-finite evaluation, or
        a curvature ``d'Hd`` that is not positive and finite (the function is
        not a strictly convex quadratic), raises ``NumericalError``.
    """
    if memory < 1 or max_iter < 1 or not grad_tol > 0:
        raise ValueError("memory and max_iter must be >= 1 and grad_tol positive")
    x = np.array(x0, dtype=np.float64)
    # Not read again: where the caller keeps no reference of its own, the
    # starting point is freed here rather than held through the solve.
    del x0
    if x.ndim != 1:
        raise ValueError("x0 must be a flat vector")
    f, g = evaluate(x)
    _check_pair(f, g)
    g = np.array(g, dtype=np.float64)
    gnorm = float(np.linalg.norm(g))
    trace: list[tuple[int, float, float, float]] = [(0, f, gnorm, 0.0)]
    pairs: deque = deque()
    iteration = 0

    def converged() -> bool:
        return gnorm / max(1.0, float(np.linalg.norm(x))) <= grad_tol

    while iteration < max_iter and not converged():
        d = _direction(pairs, g, precondition)
        # The oldest pair is read no more once d is formed: drop it now
        # rather than on append, so it is not held through the evaluation.
        if len(pairs) == memory:
            pairs.popleft()
        f_trial, g_trial = evaluate(x + d)
        _check_pair(f_trial, g_trial)
        hd = g_trial - g
        curv = float(hd @ d)
        if not 0.0 < curv < np.inf:
            raise NumericalError(f"curvature d'Hd = {curv:.3e}: not a strictly convex quadratic")
        gd = float(g @ d)
        alpha = -gd / curv
        # Scaled in place, d and hd become the pair's step s and gradient
        # change y. Dropping the names below leaves the pair referenced by
        # ``pairs`` alone, so popping it frees its vectors, and no trial
        # gradient is held into the next evaluation.
        np.multiply(d, alpha, out=d)
        np.multiply(hd, alpha, out=hd)
        pairs.append((d, hd, 1.0 / (alpha * alpha * curv)))
        x += d
        g += hd
        del d, hd, g_trial
        f += 0.5 * alpha * gd
        gnorm = float(np.linalg.norm(g))
        iteration += 1
        trace.append((iteration, f, gnorm, alpha))

    return MinimizeResult(
        x=x, f=f, grad_norm=gnorm, iterations=iteration,
        status="converged" if converged() else "max_iter",
        trace=trace, n_evaluations=iteration + 1,
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
    if not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if n_directions < 1:
        raise ValueError(f"n_directions must be >= 1, got {n_directions}")
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
        for _ in range(n_directions):
            d = rng.standard_normal(x.size)
            d /= np.linalg.norm(d)
            f_plus = evaluate(x + step * d)[0]
            f_minus = evaluate(x - step * d)[0]
            numeric = (f_plus - f_minus) / (2.0 * step)
            analytic = float(g @ d)
            err = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
            worst = max(worst, err)
    return worst
