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


def _ridge_rows(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n_rows: int,
    other: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Solve every per-row ridge system (M'M + gamma I) x = M'z exactly.

    Row i's system is over its observations; M stacks the corresponding rows
    of ``other``, so a repeated (row, col) pair counts twice. Rows without
    observations get the zero vector. One sparse product forms every Gram
    matrix and one batched call solves them.
    """
    k = other.shape[1]
    out = np.zeros((n_rows, k))
    if rows.size == 0:
        return out
    row_ids, r = np.unique(rows, return_inverse=True)
    col_ids, c = np.unique(cols, return_inverse=True)
    shape = (row_ids.size, col_ids.size)
    counts = sp.csr_matrix((np.ones(rows.size), (r, c)), shape=shape)
    values = sp.csr_matrix((vals, (r, c)), shape=shape)
    M = other[col_ids]
    G = (counts @ np.einsum("ck,cl->ckl", M, M).reshape(-1, k * k)).reshape(-1, k, k)
    G += gamma * np.eye(k)
    b = values @ M
    # The trailing singleton makes b a stack of column vectors, which
    # keeps the batched solve unambiguous across numpy versions.
    out[row_ids] = np.linalg.solve(G, b[..., None])[..., 0]
    return out


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
        Maximum alternating iterations; the loop stops early once the
        relative objective change over one full iteration drops below
        ``tol``.
    seed : int, SeedSequence, or Generator
        Seeds the Gaussian initialization (std 1/sqrt(k)).

    Returns
    -------
    (FactorPair, ndarray)
        The factors and the objective trace, one entry per half-step plus
        the initial value. The trace is non-increasing.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    users, items, values = observations
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if users.size == 0:
        raise ValueError("cannot factorize an empty bin")

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(k)
    U = rng.normal(0.0, scale, size=(m, k))
    V = rng.normal(0.0, scale, size=(n, k))

    trace = [_penalized_objective(users, items, values, U, V, gamma)]
    previous_full = trace[0]
    for _ in range(iters):
        U = _ridge_rows(users, items, values, m, V, gamma)
        trace.append(_penalized_objective(users, items, values, U, V, gamma))
        V = _ridge_rows(items, users, values, n, U, gamma)
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

def write_matrix(path, A: np.ndarray) -> None:
    """Write a matrix as text: a 'rows cols' header, then one row per line."""
    with open(path, "w") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: first line must be 'rows cols'")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    if data.size == 0:
        data = data.reshape(0, cols)
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: header says {rows}x{cols}, body is {data.shape}")
    return data


def save_factors(directory, timeline: FactorTimeline) -> None:
    """Write one U_<t>.mat / V_<t>.mat text pair per bin.

    Files carry a 'rows cols' header line followed by one row per line with
    17 significant digits, enough to round-trip doubles exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for t, pair in enumerate(timeline):
        write_matrix(directory / f"U_{t}.mat", pair.U)
        write_matrix(directory / f"V_{t}.mat", pair.V)


def load_factors(directory) -> FactorTimeline:
    """Read a checkpoint directory written by :func:`save_factors`."""
    directory = Path(directory)
    t = 0
    pairs = []
    while (directory / f"U_{t}.mat").exists():
        U = read_matrix(directory / f"U_{t}.mat")
        V = read_matrix(directory / f"V_{t}.mat")
        pairs.append(FactorPair(U=U, V=V))
        t += 1
    if not pairs:
        raise FileNotFoundError(f"no U_0.mat under {directory}")
    return FactorTimeline(pairs)
