"""Core data types and the flat state layout shared across the package.

The smoother's decision vector is the C-order flattening of an (N, 2, m, k)
array: for every time bin a velocity block followed by a position block,
each an m-by-k factor matrix, so the latent coordinate varies fastest and
the user index next. :attr:`SmootherState.blocks` is the one place that
reshape is written down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .laplacian import LaplacianOperator


class NumericalError(RuntimeError):
    """A numerical evaluation produced non-finite values."""


class RatingsTimeline:
    """Sparse rating observations grouped into consecutive time bins.

    Observations for bin ``t`` are stored as three parallel arrays
    ``users, items, values`` of common length ``p(t)``. Indices are dense:
    users in ``[0, m)``, items in ``[0, n)``. Within one bin a (user, item)
    pair appears at most once.

    Parameters
    ----------
    m, n : int
        Number of users and items.
    bins : sequence of (users, items, values) array triples
        One triple per bin, in time order. Empty bins are allowed.
    """

    def __init__(self, m: int, n: int, bins: Sequence[tuple]) -> None:
        if m < 1 or n < 1:
            raise ValueError(f"need at least one user and one item, got m={m}, n={n}")
        self.m = int(m)
        self.n = int(n)
        self.users: list[np.ndarray] = []
        self.items: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        for t, triple in enumerate(bins):
            users, items, values = triple
            users = np.asarray(users, dtype=np.int64)
            items = np.asarray(items, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            if not (users.shape == items.shape == values.shape) or users.ndim != 1:
                raise ValueError(f"bin {t}: users/items/values must be 1-d arrays of equal length")
            if users.size:
                if users.min() < 0 or users.max() >= m:
                    raise ValueError(f"bin {t}: user index out of range [0, {m})")
                if items.min() < 0 or items.max() >= n:
                    raise ValueError(f"bin {t}: item index out of range [0, {n})")
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"bin {t}: non-finite rating value")
                keys = users * self.n + items
                if np.unique(keys).size != keys.size:
                    raise ValueError(f"bin {t}: duplicate (user, item) pair")
            self.users.append(users)
            self.items.append(items)
            self.values.append(values)
        if not self.users:
            raise ValueError("timeline needs at least one bin")

    @property
    def N(self) -> int:
        return len(self.users)

    def p(self, t: int) -> int:
        """Number of observations in bin ``t``."""
        return self.users[t].size

    @property
    def counts(self) -> list[int]:
        return [u.size for u in self.users]

    def total(self) -> int:
        return int(sum(self.counts))

    def bin(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (users, items, values) triple of bin ``t``."""
        return self.users[t], self.items[t], self.values[t]


class TrustTimeline:
    """Per-bin undirected trust graphs on a fixed set of ``m`` users.

    Each bin holds the cumulative graph of all edges created up to (and
    within) that bin, so edge sets are monotone non-decreasing in ``t``.
    Adjacency matrices are symmetric, zero-diagonal, and non-negative.
    The timeline validates each bin once and owns that bin's
    :class:`~socialdmf.laplacian.LaplacianOperator`, built on the same CSR
    matrix. :meth:`from_edges` builds the adjacencies from edge lists.
    """

    def __init__(self, m: int, graphs: Sequence[sp.spmatrix]) -> None:
        if m < 1:
            raise ValueError(f"need at least one user, got m={m}")
        if not len(graphs):
            raise ValueError("timeline needs at least one bin")
        self.m = int(m)
        self.laplacians: list[LaplacianOperator] = []
        for t, W in enumerate(graphs):
            W = sp.csr_matrix(W, dtype=np.float64)
            if W.shape != (m, m):
                raise ValueError(f"bin {t}: adjacency must be {m}x{m}, got {W.shape}")
            if W.nnz and W.data.min() < 0:
                raise ValueError(f"bin {t}: negative edge weight")
            if abs(W - W.T).nnz:
                raise ValueError(f"bin {t}: adjacency not symmetric")
            if np.any(W.diagonal() != 0):
                raise ValueError(f"bin {t}: nonzero diagonal (self-loop)")
            W.eliminate_zeros()
            self.laplacians.append(LaplacianOperator(W))
        for t in range(self.N - 1):
            a = self.graph(t).astype(bool)
            b = self.graph(t + 1).astype(bool)
            if (a > b).nnz:
                raise ValueError(f"bin {t + 1}: edge set lost edges present in bin {t}")

    @classmethod
    def from_edges(cls, m: int, per_bin_edges: Sequence[tuple]) -> "TrustTimeline":
        """Build a timeline from one ``(rows, cols)`` pair of index arrays per bin.

        Pair ``(rows[e], cols[e])`` becomes the undirected edge between those
        users, so bin ``t``'s adjacency is symmetric with weight one on every
        edge, however often its pair repeats. Validation is the constructor's.
        """
        graphs = []
        for rows, cols in per_bin_edges:
            i = np.concatenate([rows, cols]).astype(np.int64)
            j = np.concatenate([cols, rows]).astype(np.int64)
            W = sp.csr_matrix((np.ones(i.size), (i, j)), shape=(m, m))
            W.data[:] = 1.0
            graphs.append(W)
        return cls(m, graphs)

    @property
    def N(self) -> int:
        return len(self.laplacians)

    def graph(self, t: int) -> sp.csr_matrix:
        return self.laplacians[t].adjacency

    def edge_count(self, t: int) -> int:
        """Number of undirected edges in bin ``t``."""
        return self.laplacians[t].edge_count

    def edges(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Upper-triangle edge endpoints (i < j) of bin ``t``."""
        op = self.laplacians[t]
        return op.rows, op.cols


@dataclass(frozen=True)
class FactorPair:
    """One bin's factor matrices: users U (m x k), items V (n x k)."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        U = np.asarray(self.U, dtype=np.float64)
        V = np.asarray(self.V, dtype=np.float64)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        if U.ndim != 2 or V.ndim != 2:
            raise ValueError("factors must be 2-d arrays")
        if U.shape[1] != V.shape[1]:
            raise ValueError(f"rank mismatch: U has k={U.shape[1]}, V has k={V.shape[1]}")
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
            raise ValueError("non-finite factor entry")

    @property
    def k(self) -> int:
        return self.U.shape[1]


class FactorTimeline:
    """A factor pair per time bin, with uniform m, n, k across bins."""

    def __init__(self, pairs: Sequence[FactorPair]) -> None:
        if not len(pairs):
            raise ValueError("timeline needs at least one bin")
        shapes = {(p.U.shape, p.V.shape) for p in pairs}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent factor shapes across bins: {sorted(shapes)}")
        self.pairs = list(pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, t: int) -> FactorPair:
        return self.pairs[t]

    def __iter__(self) -> Iterator[FactorPair]:
        return iter(self.pairs)

    @property
    def N(self) -> int:
        return len(self.pairs)

    @property
    def m(self) -> int:
        return self.pairs[0].U.shape[0]

    @property
    def n(self) -> int:
        return self.pairs[0].V.shape[0]

    @property
    def k(self) -> int:
        return self.pairs[0].k


@dataclass(frozen=True)
class SmootherConfig:
    """Hyperparameters and solver settings for the trajectory smoother.

    ``lam`` weights the social disagreement penalty, ``sigma`` is the
    measurement noise scale, ``dt`` the bin spacing, and ``gamma`` the ridge
    weight of the static initializer. A single ``seed`` governs every random
    draw made under this configuration.
    """

    k: int
    dt: float = 1.0
    sigma: float = 1.0
    lam: float = 0.0
    gamma: float = 1.0
    max_iter: int = 500
    lbfgs_memory: int = 10
    grad_tol: float = 1e-6
    align_factors: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for name in ("dt", "sigma", "gamma", "grad_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.max_iter < 1 or self.lbfgs_memory < 1:
            raise ValueError("max_iter and lbfgs_memory must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class ProcessNoiseBlock:
    """The 2x2 constant-velocity noise covariance ``q`` and its inverse.

    Velocity is the first coordinate and position the second, matching the
    per-bin block order of the flat state.
    """

    dt: float
    q: np.ndarray
    q_inv: np.ndarray

    def __post_init__(self) -> None:
        prod = self.q @ self.q_inv
        if not np.allclose(prod, np.eye(2), rtol=0.0, atol=1e-12):
            raise NumericalError(f"q @ q_inv deviates from identity by {abs(prod - np.eye(2)).max():.3e}")


def process_noise_block(dt: float) -> ProcessNoiseBlock:
    """Constant-velocity process noise covariance for bin spacing ``dt``.

    Integrating white acceleration noise over one interval gives
    ``q = [[dt, dt^2/2], [dt^2/2, dt^3/3]]`` in (velocity, position) order;
    the inverse is formed in closed form.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    q = np.array([[dt, dt**2 / 2.0], [dt**2 / 2.0, dt**3 / 3.0]])
    q_inv = (12.0 / dt**4) * np.array([[dt**3 / 3.0, -(dt**2) / 2.0], [-(dt**2) / 2.0, dt]])
    return ProcessNoiseBlock(dt=float(dt), q=q, q_inv=q_inv)


@dataclass
class SmootherState:
    """A flat smoother state plus the (N, m, k) sizes of its layout.

    ``x`` has length ``N * 2 * m * k`` and is the C-order flattening of
    :attr:`blocks`, so bin ``t`` occupies one contiguous slice: first the
    velocity block, then the position block, each a row-major flattened
    m-by-k matrix.
    """

    x: np.ndarray
    N: int
    m: int
    k: int

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 1:
            raise ValueError("state vector must be 1-d")
        if min(self.N, self.m, self.k) < 1:
            raise ValueError(f"N, m, k must be >= 1, got ({self.N}, {self.m}, {self.k})")
        expected = self.N * 2 * self.m * self.k
        if self.x.size != expected:
            raise ValueError(f"state has length {self.x.size}, layout needs {expected}")

    @property
    def blocks(self) -> np.ndarray:
        """View of ``x`` as (N, 2, m, k): bin, velocity (0) or position (1), user, coordinate."""
        return self.x.reshape(self.N, 2, self.m, self.k)

    def velocity(self, t: int) -> np.ndarray:
        """View of bin ``t``'s velocity block as an m-by-k matrix."""
        return self._bin(t)[0]

    def position(self, t: int) -> np.ndarray:
        """View of bin ``t``'s position block as an m-by-k matrix."""
        return self._bin(t)[1]

    def _bin(self, t: int) -> np.ndarray:
        if not 0 <= t < self.N:
            raise IndexError(f"bin {t} out of range [0, {self.N})")
        return self.blocks[t]
