import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from socialdmf import (
    SmootherProblem,
    SmootherState,
    TrustTimeline,
    apply_laplacian,
    build_timeline_laplacians,
    gradient,
    laplacian_quadratic,
    random_problem,
)

from oracles import edge_sum_quadratic


def _operator(W):
    """The Laplacian operator a one-bin trust timeline owns for adjacency W."""
    (op,) = build_timeline_laplacians(TrustTimeline(W.shape[0], [W]))
    return op


def _random_adjacency(rng, m, density=0.3, weighted=False):
    W = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            if rng.uniform() < density:
                W[i, j] = W[j, i] = rng.uniform(0.5, 2.0) if weighted else 1.0
    return W


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("weighted", [False, True])
def test_apply_matches_dense(seed, weighted):
    rng = np.random.default_rng(seed)
    m, k = 12, 3
    W = _random_adjacency(rng, m, weighted=weighted)
    op = _operator(sp.csr_matrix(W))
    L = np.diag(W.sum(axis=1)) - W
    U = rng.standard_normal((m, k))
    np.testing.assert_allclose(apply_laplacian(op, U), L @ U, rtol=1e-12, atol=1e-12)


def test_quadratic_matches_edge_sum_and_apply():
    rng = np.random.default_rng(42)
    m, k = 10, 4
    W = _random_adjacency(rng, m, weighted=True)
    op = _operator(W)
    U = rng.standard_normal((m, k))
    quad = laplacian_quadratic(op, U)
    assert quad >= 0.0
    np.testing.assert_allclose(quad, edge_sum_quadratic(W, U), rtol=1e-12)
    # Consistency with the operator form tr(U' L U).
    np.testing.assert_allclose(quad, float(np.sum(U * apply_laplacian(op, U))), rtol=1e-10)


def test_quadratic_zero_for_constant_rows():
    W = _random_adjacency(np.random.default_rng(3), 8)
    op = _operator(W)
    U = np.ones((8, 3)) * 2.5
    assert laplacian_quadratic(op, U) == 0.0
    np.testing.assert_allclose(apply_laplacian(op, U), 0.0, atol=1e-14)


def test_empty_graph_is_zero_operator():
    op = _operator(sp.csr_matrix((5, 5)))
    U = np.random.default_rng(0).standard_normal((5, 2))
    np.testing.assert_array_equal(apply_laplacian(op, U), np.zeros((5, 2)))
    assert laplacian_quadratic(op, U) == 0.0
    assert op.edge_count == 0


def test_build_rejects_bad_graphs():
    with pytest.raises(ValueError, match="symmetric"):
        _operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        _operator(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="negative"):
        _operator(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="2x2"):
        _operator(np.zeros((2, 3)))


def test_apply_rejects_wrong_row_count():
    op = _operator(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        apply_laplacian(op, np.zeros((5, 2)))


def test_social_block_zero_velocities_and_per_bin_positions():
    """The social term adds lam * L_t U_t to bin t's position gradient and
    leaves every velocity gradient bit for bit unchanged."""
    rng = np.random.default_rng(11)
    m, k, N = 6, 2, 3
    graphs = []
    cumulative = np.zeros((m, m))
    for _ in range(N):
        extra = _random_adjacency(rng, m, density=0.2)
        cumulative = np.maximum(cumulative, extra)
        graphs.append(sp.csr_matrix(cumulative))
    trust = TrustTimeline(m, graphs)
    base = random_problem(m=m, n=5, k=k, N=N, p_per_bin=10, trust_edges=0, lam=0.0, seed=11)
    lam = 0.4
    social = SmootherProblem(
        base.train, base.factors, build_timeline_laplacians(trust),
        dataclasses.replace(base.config, lam=lam),
    )
    layout = dict(N=N, m=m, k=k)
    state = SmootherState(x=rng.standard_normal(base.state_size), **layout)
    diff = SmootherState(x=gradient(social, state.x) - gradient(base, state.x), **layout)
    for t in range(N):
        W = graphs[t].toarray()
        L = np.diag(W.sum(axis=1)) - W
        np.testing.assert_array_equal(diff.velocity(t), np.zeros((m, k)))
        np.testing.assert_allclose(diff.position(t), lam * L @ state.position(t), rtol=1e-10, atol=1e-10)


def test_social_block_rejects_mismatched_shapes():
    problem = random_problem(m=4, n=3, k=2, N=2, p_per_bin=4, trust_edges=2, lam=0.1, seed=0)
    wider = TrustTimeline(5, [sp.csr_matrix((5, 5))] * problem.N)
    with pytest.raises(ValueError, match="Laplacian is over"):
        SmootherProblem(problem.train, problem.factors, build_timeline_laplacians(wider), problem.config)
    with pytest.raises(ValueError, match="Laplacians"):
        SmootherProblem(problem.train, problem.factors, problem.laplacians[:1], problem.config)
