"""Matrix-free objective and gradient of the factor-trajectory smoother.

The smoother estimates one velocity/position factor pair per time bin by
minimizing

    f(x) = 1/(2 sigma^2) ||H x - z||^2
         + 1/2 (G x - w)' Qinv (G x - w)
         + lam/2 x' L x

over the flat state x described in :mod:`socialdmf.domain`. H predicts each
observed rating as the inner product of a user's position row with the item's
fixed factor row, G chains consecutive bins through a constant-velocity
transition, Qinv is the blockwise inverse process covariance, and L applies
each bin's graph Laplacian to the position block. All operators act in
O(N k (m + p + edges)) time; nothing of size m x n is ever formed.

The anchor w is zero except in its first position block, which carries the
static initialization of bin 0 propagated through one transition from rest.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .domain import (
    FactorTimeline,
    NumericalError,
    ProcessNoiseBlock,
    RatingsTimeline,
    SmootherConfig,
    SmootherState,
    process_noise_block,
)
from .laplacian import LaplacianOperator, apply_laplacian, laplacian_quadratic


class SmootherProblem:
    """A fully assembled smoothing instance, ready for repeated evaluation.

    Parameters
    ----------
    train : RatingsTimeline
        Training observations; only these enter the measurement term.
    factors : FactorTimeline
        Per-bin factor pairs from the static initializer. The item factors
        V_t are held fixed; the user factors seed the anchor.
    laplacians : sequence of LaplacianOperator or None
        One per bin. ``None`` builds the problem with no social term at all,
        which is also the behaviour when ``config.lam == 0``.
    config : SmootherConfig
    x0_position : ndarray, optional
        m-by-k anchor position for bin 0. Defaults to ``factors[0].U``.
    """

    def __init__(
        self,
        train: RatingsTimeline,
        factors: FactorTimeline,
        laplacians: Optional[Sequence[LaplacianOperator]],
        config: SmootherConfig,
        x0_position: Optional[np.ndarray] = None,
    ) -> None:
        if factors.N != train.N:
            raise ValueError(f"factors cover {factors.N} bins, ratings cover {train.N}")
        if factors.m != train.m or factors.n != train.n:
            raise ValueError(
                f"factor dimensions ({factors.m}, {factors.n}) do not match "
                f"ratings dimensions ({train.m}, {train.n})"
            )
        if factors.k != config.k:
            raise ValueError(f"factors have rank {factors.k}, config says {config.k}")
        if laplacians is not None:
            laplacians = list(laplacians)
            if len(laplacians) != train.N:
                raise ValueError(f"need {train.N} Laplacians, got {len(laplacians)}")
            for t, op in enumerate(laplacians):
                if op.m != train.m:
                    raise ValueError(f"bin {t}: Laplacian is over {op.m} users, expected {train.m}")
        if config.lam > 0 and laplacians is None:
            raise ValueError("lam > 0 requires per-bin Laplacians")

        self.train = train
        self.factors = factors
        self.laplacians = laplacians
        self.config = config
        self.noise: ProcessNoiseBlock = process_noise_block(config.dt)

        self.m = train.m
        self.n = train.n
        self.k = config.k
        self.N = train.N

        if x0_position is None:
            x0_position = factors[0].U
        x0_position = np.array(x0_position, dtype=np.float64)
        if x0_position.shape != (self.m, self.k):
            raise ValueError(f"anchor position must be {self.m}x{self.k}, got {x0_position.shape}")
        self.x0_position = x0_position
        self.z = np.concatenate([train.bin(t)[2] for t in range(self.N)])

        # Per-bin scatter matrices turn a residual vector into its adjoint
        # contribution on the position block with one sparse product.
        self._scatter: list[sp.csr_matrix] = []
        for t in range(self.N):
            users, _, _ = train.bin(t)
            p = users.size
            self._scatter.append(
                sp.csr_matrix(
                    (np.ones(p), (users, np.arange(p))), shape=(self.m, p)
                )
            )

    @property
    def state_size(self) -> int:
        return self.N * 2 * self.m * self.k

    def total_observations(self) -> int:
        return self.train.total()


def _blocks(problem: SmootherProblem, x: np.ndarray) -> np.ndarray:
    """Check a flat state against the problem and view it as (N, 2, m, k)."""
    return SmootherState(x=x, N=problem.N, m=problem.m, k=problem.k).blocks


def apply_measurement(problem: SmootherProblem, x: np.ndarray) -> np.ndarray:
    """Predict every training observation from the position blocks.

    Returns the length-sum(p_t) vector of inner products, bin by bin.
    """
    X = _blocks(problem, x)
    out = np.empty(problem.total_observations())
    offset = 0
    for t in range(problem.N):
        users, items, _ = problem.train.bin(t)
        p = users.size
        if p:
            out[offset : offset + p] = np.einsum("lk,lk->l", X[t, 1][users], problem.factors[t].V[items])
        offset += p
    return out


def apply_measurement_adjoint(problem: SmootherProblem, r: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`apply_measurement`: scatter residuals back to positions.

    Observation l of bin t adds ``r_l * V_t[j_l, :]`` to position row ``i_l``;
    velocity blocks stay zero.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1 or r.size != problem.total_observations():
        raise ValueError(f"residual must have length {problem.total_observations()}, got shape {r.shape}")
    out = np.zeros(problem.state_size)
    out_blocks = _blocks(problem, out)
    offset = 0
    for t in range(problem.N):
        users, items, _ = problem.train.bin(t)
        p = users.size
        if p:
            contrib = r[offset : offset + p, None] * problem.factors[t].V[items]
            out_blocks[t, 1] = problem._scatter[t] @ contrib
        offset += p
    return out


def apply_process(problem: SmootherProblem, x: np.ndarray) -> np.ndarray:
    """The block lower-bidiagonal transition operator G applied to x.

    Bin 0 maps to itself; bin t maps to ``x_t - G x_{t-1}`` where the
    constant-velocity transition sends (vel, pos) to (vel, pos + dt * vel).
    """
    dt = problem.config.dt
    X = _blocks(problem, x)
    out = np.empty_like(X)
    out[0] = X[0]
    out[1:, 0] = X[1:, 0] - X[:-1, 0]
    out[1:, 1] = X[1:, 1] - (X[:-1, 1] + dt * X[:-1, 0])
    return out.reshape(-1)


def apply_process_adjoint(problem: SmootherProblem, r: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`apply_process`.

    Bin N-1 maps to itself; bin t maps to ``r_t - G' r_{t+1}`` where the
    transposed transition sends (vel, pos) to (vel + dt * pos, pos).
    """
    dt = problem.config.dt
    R = _blocks(problem, r)
    out = np.empty_like(R)
    out[-1] = R[-1]
    out[:-1, 0] = R[:-1, 0] - (R[1:, 0] + dt * R[1:, 1])
    out[:-1, 1] = R[:-1, 1] - R[1:, 1]
    return out.reshape(-1)


def apply_qinv(problem: SmootherProblem, r: np.ndarray) -> np.ndarray:
    """Apply the blockwise inverse process covariance.

    Within each bin the 2x2 inverse noise block couples the velocity and
    position coordinates of every (user, latent) pair.
    """
    qi = problem.noise.q_inv
    R = _blocks(problem, r)
    out = np.empty_like(R)
    out[:, 0] = qi[0, 0] * R[:, 0] + qi[0, 1] * R[:, 1]
    out[:, 1] = qi[1, 0] * R[:, 0] + qi[1, 1] * R[:, 1]
    return out.reshape(-1)


def _process_residual(problem: SmootherProblem, x: np.ndarray) -> np.ndarray:
    """G x - w, where w anchors bin 0's position to the static initializer."""
    r = apply_process(problem, x)
    _blocks(problem, r)[0, 1] -= problem.x0_position
    return r


def _evaluate(problem: SmootherProblem, x: np.ndarray, want_gradient: bool):
    """Shared core of all objective/gradient entry points.

    Returns ``(terms, grad)`` where ``terms`` is the (measurement, process,
    social) triple and ``grad`` is None unless requested. The term values are
    computed along one fixed code path so that every public entry point
    returns bit-identical numbers.
    """
    X = _blocks(problem, x)
    cfg = problem.config
    sigma2 = cfg.sigma**2

    rm = apply_measurement(problem, x) - problem.z
    meas = 0.5 / sigma2 * float(rm @ rm)
    if not np.isfinite(meas):
        raise NumericalError("measurement term is non-finite")

    rp = _process_residual(problem, x)
    qr = apply_qinv(problem, rp)
    proc = 0.5 * float(rp @ qr)
    if not np.isfinite(proc):
        raise NumericalError("process term is non-finite")

    social = 0.0
    use_social = cfg.lam > 0 and problem.laplacians is not None
    if use_social:
        quad = 0.0
        for t in range(problem.N):
            quad += laplacian_quadratic(problem.laplacians[t], X[t, 1])
        social = 0.5 * cfg.lam * quad
        if not np.isfinite(social):
            raise NumericalError("social term is non-finite")

    terms = (meas, proc, social)
    if not want_gradient:
        return terms, None

    grad = apply_measurement_adjoint(problem, rm)
    grad *= 1.0 / sigma2
    grad += apply_process_adjoint(problem, qr)
    if use_social:
        grad_blocks = _blocks(problem, grad)
        for t in range(problem.N):
            grad_blocks[t, 1] += cfg.lam * apply_laplacian(problem.laplacians[t], X[t, 1])
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient is non-finite")
    return terms, grad


def objective_terms(problem: SmootherProblem, x: np.ndarray) -> tuple[float, float, float]:
    """The (measurement, process, social) terms of the objective, separately.

    Each term is non-negative; the social term is exactly
    ``lam/2 * sum_t tr(U_t' L_t U_t)``.
    """
    terms, _ = _evaluate(problem, x, want_gradient=False)
    return terms


def objective(problem: SmootherProblem, x: np.ndarray) -> float:
    """The smoothing objective f(x)."""
    meas, proc, social = objective_terms(problem, x)
    return meas + proc + social


def gradient(problem: SmootherProblem, x: np.ndarray) -> np.ndarray:
    """The exact gradient of f at x, same layout as the state."""
    _, grad = _evaluate(problem, x, want_gradient=True)
    return grad


def objective_and_gradient(problem: SmootherProblem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Fused objective and gradient, sharing the residual computations."""
    terms, grad = _evaluate(problem, x, want_gradient=True)
    meas, proc, social = terms
    return meas + proc + social, grad
