"""Matrix-free unnormalized graph Laplacian operators.

For an undirected weighted adjacency W with degree vector d, the Laplacian
is L = diag(d) - W. It is applied to m-by-k factor matrices column-wise and
never formed densely; the quadratic form is accumulated over edges, which
keeps it exactly non-negative.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from .domain import TrustTimeline


class LaplacianOperator:
    """One bin's Laplacian, stored as adjacency plus degree vector.

    Built by :class:`~socialdmf.domain.TrustTimeline` from an adjacency it
    has already validated (symmetric, non-negative, zero diagonal); the CSR
    matrix is shared with the timeline, not copied. ``rows``/``cols``/
    ``weights`` hold the upper-triangle edge list (i < j) used by the
    quadratic form.
    """

    def __init__(self, adjacency: sp.csr_matrix) -> None:
        self.adjacency = adjacency
        self.degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        upper = sp.triu(adjacency, k=1).tocoo()
        self.rows = upper.row.astype(np.int64)
        self.cols = upper.col.astype(np.int64)
        self.weights = upper.data

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return self.rows.size


def apply_laplacian(op: LaplacianOperator, U: np.ndarray) -> np.ndarray:
    """Compute L @ U for an m-by-k matrix U in O((m + edges) k) time."""
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != op.m:
        raise ValueError(f"expected a matrix with {op.m} rows, got shape {U.shape}")
    return op.degrees[:, None] * U - op.adjacency @ U


def laplacian_quadratic(op: LaplacianOperator, U: np.ndarray) -> float:
    """The disagreement energy tr(U' L U) = sum_ij w_ij ||U_i - U_j||^2.

    Accumulated edge by edge over the upper triangle, so the result is
    non-negative by construction.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != op.m:
        raise ValueError(f"expected a matrix with {op.m} rows, got shape {U.shape}")
    if not op.rows.size:
        return 0.0
    diff = U[op.rows] - U[op.cols]
    return float(op.weights @ np.einsum("ek,ek->e", diff, diff))


def build_timeline_laplacians(trust: TrustTimeline) -> list[LaplacianOperator]:
    """The per-bin Laplacian operators of a trust timeline.

    The timeline owns them; every call returns the same operator objects.
    """
    return list(trust.laplacians)
