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
    users in ``[0, m)``, items in ``[0, n)``. Each bin is stored in (user,
    item) order, each pair at most once: a bin given in that order keeps
    the caller's arrays, any other is sorted into new ones.

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
                # Bins sorted by (user, item) have strictly increasing keys,
                # an O(p) test; only other orders pay for the sort.
                keys = users * self.n + items
                if not np.all(keys[1:] > keys[:-1]):
                    order = np.argsort(keys)
                    if np.any(np.diff(keys[order]) == 0):
                        raise ValueError(f"bin {t}: duplicate (user, item) pair")
                    users, items, values = users[order], items[order], values[order]
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

    The timeline is one edge list: pair ``(rows[e], cols[e])`` is an
    undirected edge created in bin ``created[e]``, and bin ``t``'s graph
    holds every edge created up to (and within) bin ``t``. The list is
    validated once (endpoints in ``[0, m)``, no self-loop, creation bin in
    ``[0, N)``); each undirected pair is kept once, smaller index first,
    with weight one at its earliest creation bin, and stored sorted by
    (created, row, col) in new arrays. So every graph is symmetric, binary
    and loop-free, and edge sets are monotone non-decreasing in ``t``. Bin
    ``t``'s :class:`~socialdmf.laplacian.LaplacianOperator` is built on a
    prefix view of that list and owned by the timeline.
    """

    def __init__(self, m: int, N: int, rows, cols, created) -> None:
        if m < 1:
            raise ValueError(f"need at least one user, got m={m}")
        if N < 1:
            raise ValueError("timeline needs at least one bin")
        rows, cols, created = (np.asarray(a, dtype=np.int64) for a in (rows, cols, created))
        if not (rows.shape == cols.shape == created.shape) or rows.ndim != 1:
            raise ValueError("rows/cols/created must be 1-d arrays of equal length")
        if rows.size:
            if min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= m:
                raise ValueError(f"edge endpoint out of range [0, {m})")
            if np.any(rows == cols):
                raise ValueError("self-loop edge")
            if created.min() < 0 or created.max() >= N:
                raise ValueError(f"creation bin out of range [0, {N})")
        low, high = np.minimum(rows, cols), np.maximum(rows, cols)
        # In (created, low, high) order the first sighting of a pair is its
        # earliest, and the first sightings, kept in that order, stay sorted.
        # Equal keys are the same edge, so the sort need not be stable. The
        # packed keys need N * m * m < 2**63.
        order = np.argsort((created * m + low) * m + high)
        _, first = np.unique((low * m + high)[order], return_index=True)
        keep = order[np.sort(first)]
        self.m = int(m)
        self.rows, self.cols, self.created = low[keep], high[keep], created[keep]
        ends = np.searchsorted(self.created, np.arange(N), side="right")
        self.laplacians = [LaplacianOperator(m, self.rows[:e], self.cols[:e]) for e in ends]

    @property
    def N(self) -> int:
        return len(self.laplacians)

    def graph(self, t: int) -> sp.csr_matrix:
        return self.laplacians[t].adjacency

    def edge_count(self, t: int) -> int:
        """Number of undirected edges in bin ``t``."""
        return self.laplacians[t].edge_count

    def edges(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints ``rows < cols`` of bin ``t``'s edges, in (created, row, col) order."""
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
    measurement noise scale, and ``gamma`` the ridge weight of the static
    initializer. Bins are one time unit apart: a spacing ``s`` gives the
    positions of ``sigma * s**-1.5`` and ``lam * s**3`` at unit spacing. A
    single ``seed`` governs every random draw made under this configuration.
    """

    k: int
    sigma: float = 1.0
    lam: float = 0.0
    gamma: float = 1.0
    max_iter: int = 500
    grad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for name in ("sigma", "gamma", "grad_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        try:  # the measurement term divides by sigma**2
            sigma2_in_range = 0 < 1.0 / self.sigma**2 < np.inf
        except ArithmeticError:  # Python's float ** overflowed, or sigma**2 is zero
            sigma2_in_range = False
        if not sigma2_in_range:
            raise ValueError(f"sigma**2 and its reciprocal must be finite and non-zero, got sigma={self.sigma}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")


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
