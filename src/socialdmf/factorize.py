"""Per-bin penalized alternating least squares, alignment, and checkpoint IO.

Each time bin gets an independent rank-k factorization of its training
ratings under an L2 penalty:

    min_{U,V} 1/2 sum_l (z_l - <U_i_l, V_j_l>)^2 + gamma/2 (||U||_F^2 + ||V||_F^2)

Alternating half-steps solve the per-row ridge systems exactly, so the
objective never increases. Consecutive bins are then rotated into a common
latent frame with an orthogonal Procrustes fit of their item factors, which
leaves every product U V' unchanged.
"""

from __future__ import annotations

import concurrent.futures
import logging
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .domain import FactorPair, FactorTimeline, SmootherConfig
from .ingest import SplitTimeline

logger = logging.getLogger(__name__)


def _compress(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """One bin's sparse structure over its observed rows and columns.

    Returns the observed row ids, the observed column ids, and two CSR
    matrices over them: entry (i, c) counts row i's observations of column
    c, and sums their values.
    """
    row_ids, r = np.unique(rows, return_inverse=True)
    col_ids, c = np.unique(cols, return_inverse=True)
    shape = (row_ids.size, col_ids.size)
    counts = sp.csr_matrix((np.ones(rows.size), (r, c)), shape=shape)
    sums = sp.csr_matrix((vals, (r, c)), shape=shape)
    return row_ids, col_ids, counts, sums


def _ridge_rows(
    counts: sp.csr_matrix,
    values: sp.csr_matrix,
    other_rows: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Solve every per-row ridge system (M'M + gamma I) x = M'z exactly.

    ``counts[i, c]`` is how often row i observed column c and ``values[i, c]``
    the sum of those observations; ``other_rows[c]`` is column c's factor.
    So row i's system is over its observations, and a repeated (row, col)
    pair counts twice. One sparse product forms every Gram matrix and one
    batched call solves them.
    """
    k = other_rows.shape[1]
    outer = np.einsum("ck,cl->ckl", other_rows, other_rows).reshape(-1, k * k)
    G = (counts @ outer).reshape(-1, k, k)
    G += gamma * np.eye(k)
    b = values @ other_rows
    # The trailing singleton makes b a stack of column vectors, which
    # keeps the batched solve unambiguous across numpy versions.
    return np.linalg.solve(G, b[..., None])[..., 0]


def _penalized_objective(users, items, values, U, V, gamma) -> float:
    r = values - np.einsum("lk,lk->l", U[users], V[items])
    return 0.5 * float(r @ r) + 0.5 * gamma * (float(np.sum(U * U)) + float(np.sum(V * V)))


def factorize_bin(
    observations: tuple[np.ndarray, np.ndarray, np.ndarray],
    m: int,
    n: int,
    k: int,
    gamma: float,
    iters: int = 30,
    seed=0,
    tol: float = 1e-6,
) -> tuple[FactorPair, np.ndarray]:
    """Factorize one bin's training observations.

    Parameters
    ----------
    observations : (users, items, values) arrays
        Dense indices and rating values of one bin.
    m, n, k : int
        User count, item count, and rank.
    gamma : float
        Ridge weight; must be positive, which also keeps every per-row
        system nonsingular.
    iters : int
        Maximum alternating iterations, at least 1; the loop stops early
        once the relative objective change over one full iteration drops
        below ``tol``.
    seed : int, SeedSequence, or Generator
        Seeds the Gaussian initialization (std 1/sqrt(k)).

    Returns
    -------
    (FactorPair, ndarray)
        The factors and the objective trace, one entry per half-step plus
        the initial value. The trace is non-increasing. Users and items
        without observations get zero factors.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    users, items, values = observations
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if users.size == 0:
        raise ValueError("cannot factorize an empty bin")

    # The structure depends only on the bin, so both orientations are built once.
    row_ids, col_ids, counts, sums = _compress(users, items, values)
    counts_t, sums_t = counts.T.tocsr(), sums.T.tocsr()

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(k)
    U = rng.normal(0.0, scale, size=(m, k))
    V = rng.normal(0.0, scale, size=(n, k))

    trace = [_penalized_objective(users, items, values, U, V, gamma)]
    previous_full = trace[0]
    for _ in range(iters):
        U = np.zeros((m, k))
        U[row_ids] = _ridge_rows(counts, sums, V[col_ids], gamma)
        trace.append(_penalized_objective(users, items, values, U, V, gamma))
        V = np.zeros((n, k))
        V[col_ids] = _ridge_rows(counts_t, sums_t, U[row_ids], gamma)
        trace.append(_penalized_objective(users, items, values, U, V, gamma))
        current = trace[-1]
        if abs(previous_full - current) <= tol * max(1.0, abs(current)):
            break
        previous_full = current
    return FactorPair(U=U, V=V), np.asarray(trace)


def align_factor_pair(current: FactorPair, reference: FactorPair) -> FactorPair:
    """Rotate ``current`` into ``reference``'s latent frame.

    The orthogonal matrix R minimizing ``||V_cur R - V_ref||_F`` is applied
    to both factors, so the reconstruction U V' is exactly preserved.
    """
    if current.V.shape != reference.V.shape:
        raise ValueError(
            f"item factor shapes differ: {current.V.shape} vs {reference.V.shape}"
        )
    R, _ = scipy.linalg.orthogonal_procrustes(current.V, reference.V)
    return FactorPair(U=current.U @ R, V=current.V @ R)


def init_timeline(
    split: SplitTimeline,
    config: SmootherConfig,
    iters: int = 30,
    tol: float = 1e-6,
    n_jobs: int = 1,
) -> FactorTimeline:
    """Factorize every bin of the training half independently.

    Bins without training data get zero factors (with a warning). When
    ``config.align_factors`` is set, each bin is rotated into the frame of
    its predecessor after fitting.
    """
    train = split.train
    N = train.N
    children = np.random.SeedSequence(config.seed).spawn(N)

    def fit(t: int) -> FactorPair:
        if train.p(t) == 0:
            logger.warning("bin %d has no training ratings; using zero factors", t)
            return FactorPair(
                U=np.zeros((train.m, config.k)), V=np.zeros((train.n, config.k))
            )
        pair, _ = factorize_bin(
            train.bin(t), train.m, train.n, config.k, config.gamma,
            iters=iters, seed=children[t], tol=tol,
        )
        return pair

    if n_jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_jobs) as pool:
            pairs = list(pool.map(fit, range(N)))
    else:
        pairs = [fit(t) for t in range(N)]

    if config.align_factors:
        for t in range(1, N):
            pairs[t] = align_factor_pair(pairs[t], pairs[t - 1])
    return FactorTimeline(pairs)


# Checkpoint files ----------------------------------------------------------

def save_factors(directory, timeline: FactorTimeline) -> None:
    """Write the timeline as two ``.npy`` stacks: ``U.npy`` (N, m, k) and ``V.npy`` (N, n, k).

    The ``.npy`` format stores float64 bits as they are, so a checkpoint
    round-trips exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "U.npy", np.stack([pair.U for pair in timeline]))
    np.save(directory / "V.npy", np.stack([pair.V for pair in timeline]))


def load_factors(directory) -> FactorTimeline:
    """Read a checkpoint directory written by :func:`save_factors`.

    Never unpickles. Raises ValueError when a stack is not 3-d or the two
    disagree on N or k.
    """
    directory = Path(directory)
    U = np.load(directory / "U.npy")
    V = np.load(directory / "V.npy")
    if U.ndim != 3 or V.ndim != 3 or U.shape[0] != V.shape[0] or U.shape[2] != V.shape[2]:
        raise ValueError(
            f"{directory}: U.npy and V.npy must be (N, m, k) and (N, n, k) stacks, "
            f"got {U.shape} and {V.shape}"
        )
    return FactorTimeline([FactorPair(U=u, V=v) for u, v in zip(U, V)])
