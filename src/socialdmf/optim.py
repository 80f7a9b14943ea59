"""Matrix-free one-pair L-BFGS with exact steps on a convex quadratic, plus a gradient checker.

The minimizer touches the problem only through a callback returning
``(f, grad)``, so it scales to states that exist solely as flat vectors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .domain import NumericalError

Evaluate = Callable[[np.ndarray], tuple[float, np.ndarray]]

# Random directions finite_diff_check probes on a state too large to probe
# coordinate by coordinate.
FD_DIRECTIONS = 20


@dataclass
class MinimizeResult:
    """Outcome of a minimization run.

    ``trace`` holds one ``(iteration, f, grad_norm, step)`` row per iterate,
    starting with the initial point at step 0; ``step`` is the exact step
    length. ``f`` and ``grad_norm`` are updated from the quadratic model, not
    re-evaluated: the objective is evaluated once per iteration plus once at
    the start.
    """

    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    status: str
    trace: list[tuple[int, float, float, float]] = field(repr=False, default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def n_evaluations(self) -> int:
        return self.iterations + 1


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


def lbfgs_minimize(
    evaluate: Evaluate,
    x0: np.ndarray,
    max_iter: int = 500,
    grad_tol: float = 1e-6,
    precondition: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> MinimizeResult:
    """Minimize a strictly convex quadratic with one-pair L-BFGS.

    Each iteration evaluates the gradient once, at ``x + d`` for the
    direction ``d``. On a quadratic the gradient difference is ``Hd``, which
    gives the exact step ``-g'd / d'Hd``, the new gradient and the new
    objective without a line search. The direction is the two-loop recursion
    over the last step's curvature pair alone, which with exact steps and a
    fixed preconditioner makes the iterates those of preconditioned
    conjugate gradients (Nazareth 1979). The pair is dropped once the
    direction is formed, so none is held while ``evaluate`` runs.

    Parameters
    ----------
    evaluate : callable
        Maps a flat vector to ``(f, grad)`` of a quadratic whose Hessian is
        positive definite.
    x0 : ndarray
        Starting point.
    max_iter : int
        Iteration cap.
    grad_tol : float
        Stop once ``||grad|| / max(1, ||x||) <= grad_tol``; positive and finite.
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
    if max_iter < 1 or not 0 < grad_tol < np.inf:
        raise ValueError("max_iter must be >= 1 and grad_tol positive and finite")
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
    s = y = None  # the last step's curvature pair; none before the first step
    iteration = 0

    def converged() -> bool:
        return gnorm / max(1.0, float(np.linalg.norm(x))) <= grad_tol

    while iteration < max_iter and not converged():
        # The two-loop recursion over the one pair, in place: d = -H g.
        d = g.copy()
        if s is not None:
            a = rho * float(s @ d)
            d -= a * y
        if precondition is not None:
            d = precondition(d)
        if s is not None:
            d += (a - rho * float(y @ d)) * s
        # Read no more: dropped now, so the pair is not held through the evaluation.
        s = y = None
        np.negative(d, out=d)
        f_trial, g_trial = evaluate(x + d)
        _check_pair(f_trial, g_trial)
        hd = g_trial - g
        del g_trial
        curv = float(hd @ d)
        if not 0.0 < curv < np.inf:
            raise NumericalError(f"curvature d'Hd = {curv:.3e}: not a strictly convex quadratic")
        gd = float(g @ d)
        alpha = -gd / curv
        # Scaled in place, d and hd become the pair's step s and gradient
        # change y, and only the pair's names keep them.
        np.multiply(d, alpha, out=d)
        np.multiply(hd, alpha, out=hd)
        x += d
        g += hd
        s, y, rho = d, hd, 1.0 / (alpha * alpha * curv)
        del d, hd
        f += 0.5 * alpha * gd
        gnorm = float(np.linalg.norm(g))
        iteration += 1
        trace.append((iteration, f, gnorm, alpha))

    return MinimizeResult(
        x=x, f=f, grad_norm=gnorm, iterations=iteration,
        status="converged" if converged() else "max_iter", trace=trace,
    )


def finite_diff_check(
    evaluate: Evaluate,
    x: np.ndarray,
    step: float,
    seed: int = 0,
) -> float:
    """Compare the analytic gradient against central finite differences.

    For states up to 10^4 entries every coordinate is probed; beyond that,
    :data:`FD_DIRECTIONS` random unit directions are used instead. Returns the
    maximum relative discrepancy, where each comparison is scaled by
    ``max(1, |analytic|, |numeric|)``.
    """
    if not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
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
        for _ in range(FD_DIRECTIONS):
            d = rng.standard_normal(x.size)
            d /= np.linalg.norm(d)
            f_plus = evaluate(x + step * d)[0]
            f_minus = evaluate(x - step * d)[0]
            numeric = (f_plus - f_minus) / (2.0 * step)
            analytic = float(g @ d)
            err = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
            worst = max(worst, err)
    return worst
