import dataclasses

import numpy as np
import pytest

from socialdmf import (
    SmootherProblem,
    SmootherState,
    TrustTimeline,
    apply_laplacian,
    build_timeline_laplacians,
    laplacian_quadratic,
    objective_and_gradient,
    random_problem,
)

from oracles import edge_sum_quadratic


def _operator(m, rows, cols):
    """The Laplacian operator a one-bin trust timeline owns for the edges ``(rows, cols)``."""
    (op,) = build_timeline_laplacians(TrustTimeline(m, 1, rows, cols, np.zeros_like(rows)))
    return op


def _random_adjacency(rng, m, density=0.3):
    W = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            if rng.uniform() < density:
                W[i, j] = W[j, i] = 1.0
    return W


def _dense_operator(W):
    """The operator for a binary symmetric adjacency W, from its upper triangle."""
    return _operator(W.shape[0], *np.nonzero(np.triu(W)))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("repeated", [False, True])
def test_apply_matches_dense(seed, repeated):
    """The operator is the binary graph's Laplacian, also when the edge list
    names each pair three times, once reversed."""
    rng = np.random.default_rng(seed)
    m, k = 12, 3
    W = _random_adjacency(rng, m)
    rows, cols = np.nonzero(np.triu(W))
    if repeated:
        rows, cols = np.concatenate([rows, cols, rows]), np.concatenate([cols, rows, cols])
    op = _operator(m, rows, cols)
    L = np.diag(W.sum(axis=1)) - W
    U = rng.standard_normal((m, k))
    np.testing.assert_allclose(apply_laplacian(op, U), L @ U, rtol=1e-12, atol=1e-12)


def test_quadratic_matches_edge_sum_and_apply():
    rng = np.random.default_rng(42)
    m, k = 10, 4
    W = _random_adjacency(rng, m)
    op = _dense_operator(W)
    U = rng.standard_normal((m, k))
    quad = laplacian_quadratic(op, U)
    assert quad >= 0.0
    np.testing.assert_allclose(quad, edge_sum_quadratic(W, U), rtol=1e-12)
    # Consistency with the operator form tr(U' L U).
    np.testing.assert_allclose(quad, float(np.sum(U * apply_laplacian(op, U))), rtol=1e-10)


def test_quadratic_zero_for_constant_rows():
    W = _random_adjacency(np.random.default_rng(3), 8)
    op = _dense_operator(W)
    U = np.ones((8, 3)) * 2.5
    assert laplacian_quadratic(op, U) == 0.0
    np.testing.assert_allclose(apply_laplacian(op, U), 0.0, atol=1e-14)


def test_empty_graph_is_zero_operator():
    op = _operator(5, np.empty(0, np.int64), np.empty(0, np.int64))
    U = np.random.default_rng(0).standard_normal((5, 2))
    np.testing.assert_array_equal(apply_laplacian(op, U), np.zeros((5, 2)))
    assert laplacian_quadratic(op, U) == 0.0
    assert op.edge_count == 0


def test_build_rejects_bad_graphs():
    with pytest.raises(ValueError, match="self-loop"):
        _operator(2, np.array([0]), np.array([0]))
    with pytest.raises(ValueError, match="out of range"):
        _operator(2, np.array([0]), np.array([2]))
    with pytest.raises(ValueError, match="equal length"):
        _operator(2, np.array([0]), np.array([1, 0]))


def test_apply_rejects_wrong_row_count():
    op = _operator(4, np.empty(0, np.int64), np.empty(0, np.int64))
    with pytest.raises(ValueError):
        apply_laplacian(op, np.zeros((5, 2)))


def test_social_block_zero_velocities_and_per_bin_positions():
    """The social term adds lam * L_t U_t to bin t's position gradient and
    leaves every velocity gradient bit for bit unchanged."""
    rng = np.random.default_rng(11)
    m, k, N = 6, 2, 3
    # Each bin adds a random graph's edges to those of earlier bins.
    rows, cols, created, graphs = [], [], [], []
    cumulative = np.zeros((m, m))
    for t in range(N):
        extra = _random_adjacency(rng, m, density=0.2)
        i, j = np.nonzero(np.triu(extra))
        rows += i.tolist()
        cols += j.tolist()
        created += [t] * i.size
        cumulative = np.maximum(cumulative, extra)
        graphs.append(cumulative)
    trust = TrustTimeline(m, N, rows, cols, created)
    base = random_problem(m=m, n=5, k=k, N=N, p_per_bin=10, trust_edges=0, lam=0.0, seed=11)
    lam = 0.4
    social = SmootherProblem(
        base.train, base.factors, build_timeline_laplacians(trust),
        dataclasses.replace(base.config, lam=lam),
    )
    layout = dict(N=N, m=m, k=k)
    state = SmootherState(x=rng.standard_normal(base.state_size), **layout)
    grad_social = objective_and_gradient(social, state.x)[1]
    diff = SmootherState(x=grad_social - objective_and_gradient(base, state.x)[1], **layout)
    for t in range(N):
        W = graphs[t]
        L = np.diag(W.sum(axis=1)) - W
        np.testing.assert_array_equal(diff.velocity(t), np.zeros((m, k)))
        np.testing.assert_allclose(diff.position(t), lam * L @ state.position(t), rtol=1e-10, atol=1e-10)


def test_social_block_rejects_mismatched_shapes():
    problem = random_problem(m=4, n=3, k=2, N=2, p_per_bin=4, trust_edges=2, lam=0.1, seed=0)
    wider = TrustTimeline(5, problem.N, [], [], [])
    with pytest.raises(ValueError, match="Laplacian is over"):
        SmootherProblem(problem.train, problem.factors, build_timeline_laplacians(wider), problem.config)
    with pytest.raises(ValueError, match="Laplacians"):
        SmootherProblem(problem.train, problem.factors, problem.laplacians[:1], problem.config)
