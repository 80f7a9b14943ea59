"""Matrix-free objective and gradient of the factor-trajectory smoother.

The smoother estimates one velocity/position factor pair per time bin by
minimizing

    f(x) = 1/(2 sigma^2) ||H x - z||^2
         + 1/2 (G x - w)' Qinv (G x - w)
         + lam/2 x' L x

over the flat state x described in :mod:`socialdmf.domain`. H predicts each
observed rating as the inner product of a user's position row with the item's
fixed factor row, G chains consecutive bins through a constant-velocity
transition over bins one time unit apart, Qinv is the blockwise inverse
process covariance, and L applies each bin's graph Laplacian to the position
block. All operators act in O(N k (m + p + edges)) time; nothing of size
m x n is ever formed. H is not stored either: the measurement and its
adjoint read each bin's ratings in place from the training timeline and
gather the factor rows they need per call, so a problem holds nothing that
grows with the number of ratings.

The anchor w is zero except in its first position block, which carries the
static initialization of bin 0 propagated through one transition from rest.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ._parallel import parallel_map
from .domain import (
    FactorTimeline,
    NumericalError,
    RatingsTimeline,
    SmootherConfig,
    SmootherState,
)
from .laplacian import LaplacianOperator, apply_laplacian, laplacian_quadratic

# Most users per chunk of block_preconditioner's build and applies: enough to
# keep numpy's per-call overhead small, few enough to bound the build's
# temporaries and to give every thread work at the benchmark shapes.
PRECONDITIONER_CHUNK = 128

# The constant-velocity prior in the (velocity, position) order of the state's
# blocks, for bins one time unit apart and velocities counted per bin: F sends
# (vel, pos) to (vel, pos + vel), and Q_INV inverts the integrated white
# acceleration noise [[1, 1/2], [1/2, 1/3]]. Another spacing s would only
# scale Q_INV by s**-3, which sigma * s**-1.5 and lam * s**3 reproduce.
Q_INV = np.array([[4.0, -6.0], [-6.0, 12.0]])
F = np.array([[1.0, 0.0], [1.0, 1.0]])


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

    Besides its inputs and their sizes the problem holds only ``indptr``,
    an (N, m + 1) array: each bin's ratings as CSR rows over users.
    """

    def __init__(
        self,
        train: RatingsTimeline,
        factors: FactorTimeline,
        laplacians: Optional[Sequence[LaplacianOperator]],
        config: SmootherConfig,
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

        self.m = train.m
        self.n = train.n
        self.k = config.k
        self.N = train.N

        # The timeline stores each bin in (user, item) order, so user i's
        # ratings in bin t are positions indptr[t, i] to indptr[t, i + 1].
        self.indptr = np.stack([np.searchsorted(users, np.arange(self.m + 1)) for users in train.users])

    @property
    def state_size(self) -> int:
        return self.N * 2 * self.m * self.k

    def total_observations(self) -> int:
        return self.train.total()


def _blocks(problem: SmootherProblem, x: np.ndarray) -> np.ndarray:
    """Check a flat state against the problem and view it as (N, 2, m, k)."""
    return SmootherState(x=x, N=problem.N, m=problem.m, k=problem.k).blocks


def _rating_slices(problem: SmootherProblem):
    """Each bin t with the slice of its ratings in the flat, bin-by-bin rating vector."""
    stop = 0
    for t, count in enumerate(problem.train.counts):
        start, stop = stop, stop + count
        yield t, slice(start, stop)


def apply_measurement(problem: SmootherProblem, x: np.ndarray) -> np.ndarray:
    """Predict every training observation from the position blocks.

    Returns the length-sum(p_t) vector ``H x`` of inner products, bin by bin:
    observation l of bin t predicts ``U_t[i_l] . V_t[j_l]``.
    """
    X = _blocks(problem, x)
    out = np.empty(problem.total_observations())
    for t, rows in _rating_slices(problem):
        # np.take gathers rows two to three times faster than fancy indexing.
        user_rows = np.take(X[t, 1], problem.train.users[t], axis=0)
        item_rows = np.take(problem.factors[t].V, problem.train.items[t], axis=0)
        np.einsum("lk,lk->l", user_rows, item_rows, out=out[rows])
    return out


def apply_measurement_adjoint(problem: SmootherProblem, r: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`apply_measurement`: scatter residuals back to positions.

    Observation l of bin t adds ``r_l * V_t[j_l, :]`` to position row ``i_l``;
    velocity blocks stay zero. Bin t's scatter is one CSR product over its
    (user, item) ratings.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1 or r.size != problem.total_observations():
        raise ValueError(f"residual must have length {problem.total_observations()}, got shape {r.shape}")
    out = np.zeros(problem.state_size)
    blocks = _blocks(problem, out)
    for t, rows in _rating_slices(problem):
        weights = sp.csr_matrix((r[rows], problem.train.items[t], problem.indptr[t]), shape=(problem.m, problem.n))
        blocks[t, 1] = weights @ problem.factors[t].V
    return out


def apply_process(problem: SmootherProblem, x: np.ndarray) -> np.ndarray:
    """The block lower-bidiagonal transition operator G applied to x.

    Bin 0 maps to itself; bin t maps to ``x_t - F x_{t-1}`` where the
    constant-velocity transition :data:`F` sends (vel, pos) to (vel, pos + vel).
    """
    X = _blocks(problem, x)
    out = np.empty_like(X)
    out[0] = X[0]
    out[1:, 0] = X[1:, 0] - X[:-1, 0]
    out[1:, 1] = X[1:, 1] - (X[:-1, 1] + X[:-1, 0])
    return out.reshape(-1)


def apply_process_adjoint(problem: SmootherProblem, r: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`apply_process`.

    Bin N-1 maps to itself; bin t maps to ``r_t - F' r_{t+1}`` where the
    transposed transition sends (vel, pos) to (vel + pos, pos).
    """
    R = _blocks(problem, r)
    out = np.empty_like(R)
    out[-1] = R[-1]
    out[:-1, 0] = R[:-1, 0] - (R[1:, 0] + R[1:, 1])
    out[:-1, 1] = R[:-1, 1] - R[1:, 1]
    return out.reshape(-1)


def apply_qinv(problem: SmootherProblem, r: np.ndarray) -> np.ndarray:
    """Apply the blockwise inverse process covariance.

    Within each bin the 2x2 inverse noise block :data:`Q_INV` couples the
    velocity and position coordinates of every (user, latent) pair.
    """
    R = _blocks(problem, r)
    out = np.empty_like(R)
    out[:, 0] = Q_INV[0, 0] * R[:, 0] + Q_INV[0, 1] * R[:, 1]
    out[:, 1] = Q_INV[1, 0] * R[:, 0] + Q_INV[1, 1] * R[:, 1]
    return out.reshape(-1)


def _evaluate(problem: SmootherProblem, x: np.ndarray, want_gradient: bool):
    """Shared core of :func:`objective_terms` and :func:`objective_and_gradient`.

    Returns ``(terms, grad)`` where ``terms`` is the (measurement, process,
    social) triple and ``grad`` is None unless requested. The terms are
    computed along one code path, so both entry points return the same bits.
    """
    X = _blocks(problem, x)
    cfg = problem.config
    sigma2 = cfg.sigma**2

    rm = apply_measurement(problem, x)
    for t, rows in _rating_slices(problem):
        rm[rows] -= problem.train.values[t]
    meas = 0.5 / sigma2 * float(rm @ rm)
    if not np.isfinite(meas):
        raise NumericalError("measurement term is non-finite")

    # G x - w: w anchors bin 0's position to the static initializer.
    rp = apply_process(problem, x)
    _blocks(problem, rp)[0, 1] -= problem.factors[0].U
    qr = apply_qinv(problem, rp)
    proc = 0.5 * float(rp @ qr)
    # Each state-sized temporary is dropped once read for the last time, so
    # the gradient's own temporaries do not stack on top of it.
    del rp
    if not np.isfinite(proc):
        raise NumericalError("process term is non-finite")

    social = 0.0
    if cfg.lam > 0:
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
    del qr
    if cfg.lam > 0:
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


def objective_and_gradient(problem: SmootherProblem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """f(x), the sum of :func:`objective_terms`, and its exact gradient in the state's layout."""
    (meas, proc, social), grad = _evaluate(problem, x, want_gradient=True)
    return meas + proc + social, grad


def _time_stencil(N: int) -> np.ndarray:
    """One user's process Hessian ``T = G' Qinv G`` per latent coordinate.

    The dense (2N, 2N) matrix over N bins of (velocity, position), with
    ``G = I - kron(eye(N, k=-1), F)``. Its entries are small integers, so exact.
    """
    G = np.eye(2 * N) - np.kron(np.eye(N, k=-1), F)
    return G.T @ np.kron(np.eye(N), Q_INV) @ G


def _spd_inverse(S: np.ndarray) -> np.ndarray:
    """Inverse of every symmetric positive definite matrix in an (..., n, n) stack.

    With ``S = L L'`` (Cholesky), ``X = L^-1`` by forward substitution, one
    row of every matrix at a time, and ``S^-1 = X' X``.
    """
    L = np.linalg.cholesky(S)
    n = S.shape[-1]
    X = np.zeros_like(L)
    reciprocal = 1.0 / np.diagonal(L, axis1=-2, axis2=-1)
    X[..., 0, 0] = reciprocal[..., 0]
    for i in range(1, n):
        row = np.matmul(L[..., i : i + 1, :i], X[..., :i, :i])[..., 0, :]
        X[..., i, :i] = row * -reciprocal[..., i, None]
        X[..., i, i] = reciprocal[..., i]
    return np.swapaxes(X, -1, -2) @ X


def block_preconditioner(problem: SmootherProblem) -> Callable[[np.ndarray], np.ndarray]:
    """``r -> P^-1 r + Z (E^-1 - E_P^-1) Z' r``, the smoother solve's preconditioner.

    P is the Hessian without the Laplacians' adjacency entries. Keeping only
    the degree terms decouples the users, so P is, per user,
    block-tridiagonal in time with 2k-by-2k (velocity, position) blocks.
    With T one user's time stencil (:func:`_time_stencil`), bin t's diagonal
    block is ``kron(a_t, I_k)``, ``a_t`` T's 2-by-2 diagonal block of bin t,
    plus ``M_it / sigma^2 + lam deg_t(i) I_k`` on positions, M_it the Gram
    matrix of user i's bin-t item factors; ``kron(T[:2, 2:4], I_k)`` couples
    bins t and t+1. At ``lam = 0`` P is the Hessian and the operator is
    ``P^-1``. Forward block elimination in time (the information form of
    the Rauch-Tung-Striebel smoother) inverts each symmetric positive
    definite Schur complement through its Cholesky factor and stores the
    inverses as one (N, m, 2k, 2k) float32 stack; ``P^-1 r`` is a forward
    and a backward sweep of float64 batched mat-vecs. A complement that is
    not positive definite in floating point, as at a tiny sigma, raises
    :class:`NumericalError`.

    At ``lam > 0`` P is far too stiff where every user moves together:
    there ``L 1 = 0`` but ``D 1`` is large. The second term, a coarse
    correction, undoes that. Z has one column per (bin, velocity/position,
    latent coordinate), equal for every user, so ``Z' r`` sums over users
    and ``Z c`` broadcasts. Because ``L 1 = 0``, ``E = Z' A Z`` is
    ``kron(m T, I_k)`` plus ``sum_l V_j V_j' / sigma^2`` over each bin's
    training ratings on its position block; ``E_P = Z' P Z`` adds
    ``lam * sum(deg_t) I_k`` there.
    It is a one-aggregate coarse space in the additive form (Nicolaides,
    SIAM J. Numer. Anal. 24, 1987; Tang, Nabben, Vuik & Erlangga, J. Sci.
    Comput. 39, 2009). The operator is fixed, and it is symmetric positive
    definite because ``E <= E_P``.

    Users are independent in P, so the build and each apply run in equal
    chunks of at most :data:`PRECONDITIONER_CHUNK` users on the package's
    shared thread pool, and the build's temporaries are bounded by the
    chunk: a chunk's Gram matrices are sums of outer products over its
    slice of each bin's ratings, which the timeline keeps in (user, item)
    order. The result does not depend on the chunking: the factorizations
    and batched products work matrix by matrix, and OpenBLAS rounds each
    row of an apply's (users, 2k) products alike in any block but a short
    one (one row; up to about 30 at k = 20), which equal chunks avoid.
    """
    N, m, k = problem.N, problem.m, problem.k
    cfg = problem.config
    T = _time_stencil(N)
    eye = np.eye(k)
    coupling = np.kron(T[:2, 2:4], eye)  # block (t, t+1) of every user
    count = -(-m // PRECONDITIONER_CHUNK)
    chunks = [slice(m * c // count, m * (c + 1) // count) for c in range(count)]

    inverses = np.empty((N, m, 2 * k, 2 * k), dtype=np.float32)

    def build(chunk: slice) -> None:
        for t in range(N):
            a_t = T[2 * t : 2 * t + 2, 2 * t : 2 * t + 2]
            S = np.repeat(np.kron(a_t, eye)[None], chunk.stop - chunk.start, axis=0)
            indptr = problem.indptr[t, chunk.start : chunk.stop + 1]
            lo, hi = indptr[0], indptr[-1]
            if hi > lo:
                V = problem.factors[t].V[problem.train.items[t][lo:hi]]
                rated = np.flatnonzero(np.diff(indptr))
                gram = np.add.reduceat(V[:, :, None] * V[:, None, :], indptr[rated] - lo)
                S[rated, k:, k:] += gram / cfg.sigma**2
            if cfg.lam > 0:
                S[:, k:, k:] += cfg.lam * problem.laplacians[t].degrees[chunk, None, None] * eye
            if t > 0:
                S -= coupling.T @ S_inv @ coupling
            try:
                S_inv = _spd_inverse(S)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"bin {t}: a preconditioner block is not positive definite in floating point"
                ) from exc
            inverses[t, chunk] = S_inv

    parallel_map(build, chunks)

    delta = None
    if cfg.lam > 0:
        E = np.kron(m * T, eye).reshape(N, 2, k, N, 2, k)
        E_P = E.copy()
        for t in range(N):
            V = problem.factors[t].V[problem.train.items[t]]
            gram = V.T @ V / cfg.sigma**2
            E[t, 1, :, t, 1] += gram
            E_P[t, 1, :, t, 1] += gram + cfg.lam * problem.laplacians[t].degrees.sum() * eye
        size = 2 * N * k
        delta = np.linalg.inv(E.reshape(size, size)) - np.linalg.inv(E_P.reshape(size, size))

    def solve(t: int, chunk: slice, y: np.ndarray) -> np.ndarray:
        return np.matmul(inverses[t, chunk].astype(np.float64), y[..., None])[..., 0]

    def apply(r: np.ndarray) -> np.ndarray:
        blocks = _blocks(problem, r)
        R = blocks.transpose(0, 2, 1, 3).reshape(N, m, 2 * k)
        X = np.empty_like(R)

        def sweep(chunk: slice) -> None:
            X[0, chunk] = solve(0, chunk, R[0, chunk])
            for t in range(1, N):
                X[t, chunk] = solve(t, chunk, R[t, chunk] - X[t - 1, chunk] @ coupling)
            for t in range(N - 2, -1, -1):
                X[t, chunk] -= solve(t, chunk, X[t + 1, chunk] @ coupling.T)

        parallel_map(sweep, chunks)
        if delta is not None:
            X += (delta @ blocks.sum(axis=2).reshape(-1)).reshape(N, 1, 2 * k)
        return X.reshape(N, m, 2, k).transpose(0, 2, 1, 3).reshape(-1)

    return apply
