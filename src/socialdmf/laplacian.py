"""Matrix-free unnormalized graph Laplacian operators.

For an undirected binary adjacency W with degree vector d, the Laplacian
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
    """One bin's Laplacian over ``m`` users, from its undirected edge list.

    Built by :class:`~socialdmf.domain.TrustTimeline` from edges it has
    already validated and deduplicated: ``rows[e] < cols[e]`` names edge e
    once, with weight one. ``rows``/``cols`` are views of the timeline's
    edge list, used by the quadratic form; the symmetric CSR ``adjacency``
    and the ``degrees`` are derived from them.
    """

    def __init__(self, m: int, rows: np.ndarray, cols: np.ndarray) -> None:
        self.rows = rows
        self.cols = cols
        ends = np.concatenate([rows, cols])
        self.adjacency = sp.csr_matrix(
            (np.ones(ends.size), (ends, np.concatenate([cols, rows]))), shape=(m, m)
        )
        self.degrees = np.bincount(ends, minlength=m).astype(np.float64)

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
    """The disagreement energy tr(U' L U) = sum over edges ij of ||U_i - U_j||^2.

    Accumulated edge by edge, each undirected edge once, so the result is
    non-negative by construction.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != op.m:
        raise ValueError(f"expected a matrix with {op.m} rows, got shape {U.shape}")
    diff = U[op.rows] - U[op.cols]
    return float(np.vdot(diff, diff))


def build_timeline_laplacians(trust: TrustTimeline) -> list[LaplacianOperator]:
    """The per-bin Laplacian operators of a trust timeline.

    The timeline owns them; every call returns the same operator objects.
    """
    return list(trust.laplacians)
