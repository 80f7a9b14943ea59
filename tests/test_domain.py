import numpy as np
import pytest
import scipy.sparse as sp

from socialdmf import (
    FactorPair,
    FactorTimeline,
    NumericalError,
    RatingsTimeline,
    SmootherConfig,
    SmootherState,
    TrustTimeline,
    process_noise_block,
)


def test_noise_block_unit_spacing():
    block = process_noise_block(1.0)
    np.testing.assert_allclose(block.q, [[1.0, 0.5], [0.5, 1.0 / 3.0]])
    np.testing.assert_allclose(block.q_inv, [[4.0, -6.0], [-6.0, 12.0]])


@pytest.mark.parametrize("dt", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_noise_block_inverse_oracle(dt):
    block = process_noise_block(dt)
    np.testing.assert_allclose(block.q_inv, np.linalg.inv(block.q), rtol=1e-10)
    np.testing.assert_allclose(block.q @ block.q_inv, np.eye(2), atol=1e-12)


def test_noise_block_rejects_bad_dt():
    with pytest.raises(ValueError):
        process_noise_block(0.0)
    with pytest.raises(ValueError):
        process_noise_block(-1.0)


def test_noise_block_identity_guard():
    good = process_noise_block(1.0)
    with pytest.raises(NumericalError):
        ProcessNoiseBlockBroken = type(good)
        ProcessNoiseBlockBroken(dt=1.0, q=good.q, q_inv=2.0 * good.q_inv)


def _pack(blocks):
    """A state built by writing (velocity, position) pairs into its block view."""
    N = len(blocks)
    m, k = blocks[0][0].shape
    state = SmootherState(x=np.zeros(N * 2 * m * k), N=N, m=m, k=k)
    for t, (vel, pos) in enumerate(blocks):
        state.blocks[t, 0] = vel
        state.blocks[t, 1] = pos
    return state


@pytest.mark.parametrize("N,m,k", [(1, 1, 1), (3, 4, 2), (5, 2, 3)])
def test_pack_unpack_round_trip(N, m, k):
    rng = np.random.default_rng(7)
    blocks = [(rng.standard_normal((m, k)), rng.standard_normal((m, k))) for _ in range(N)]
    state = _pack(blocks)
    assert state.x.shape == (N * 2 * m * k,)
    for t in range(N):
        np.testing.assert_array_equal(state.velocity(t), blocks[t][0])
        np.testing.assert_array_equal(state.position(t), blocks[t][1])
    # The views write through to the flat vector.
    state.position(N - 1)[:] = 0.0
    np.testing.assert_array_equal(state.x[-m * k :], 0.0)


def test_state_index_matches_views():
    """Coordinate c of user i in part p (0 velocity, 1 position) of bin t
    sits at flat index ((t * 2 + p) * m + i) * k + c."""
    rng = np.random.default_rng(0)
    N, m, k = 3, 4, 2
    state = _pack([(rng.standard_normal((m, k)), rng.standard_normal((m, k))) for _ in range(N)])
    for t in range(N):
        for part, view in enumerate((state.velocity(t), state.position(t))):
            for i in range(m):
                for c in range(k):
                    assert state.x[((t * 2 + part) * m + i) * k + c] == view[i, c]


def test_state_index_bounds():
    state = SmootherState(x=np.zeros(2 * 2 * 2 * 2), N=2, m=2, k=2)
    with pytest.raises(IndexError):
        state.position(5)
    with pytest.raises(IndexError):
        state.velocity(2)
    with pytest.raises(IndexError):
        state.velocity(-1)


def test_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        SmootherState(x=np.zeros(10), N=2, m=2, k=2)


def test_ratings_timeline_basics():
    tl = RatingsTimeline(
        3,
        4,
        [
            ([0, 1], [0, 3], [4.0, 2.5]),
            ([], [], []),
            ([2], [1], [1.0]),
        ],
    )
    assert tl.N == 3
    assert tl.counts == [2, 0, 1]
    assert tl.total() == 3
    users, items, values = tl.bin(0)
    np.testing.assert_array_equal(users, [0, 1])
    np.testing.assert_array_equal(items, [0, 3])
    np.testing.assert_array_equal(values, [4.0, 2.5])
    assert tl.p(1) == 0 and tl.p(2) == 1


@pytest.mark.parametrize(
    "bad_bin",
    [
        ([0, 0], [1, 1], [1.0, 2.0]),  # duplicate pair
        ([5], [0], [1.0]),  # user out of range
        ([0], [9], [1.0]),  # item out of range
        ([0], [0], [np.nan]),  # non-finite value
    ],
)
def test_ratings_timeline_rejects_bad_bins(bad_bin):
    with pytest.raises(ValueError):
        RatingsTimeline(3, 4, [bad_bin])


def _adjacency(m, edges):
    W = np.zeros((m, m))
    for i, j in edges:
        W[i, j] = W[j, i] = 1.0
    return sp.csr_matrix(W)


def test_trust_timeline_cumulative_ok():
    tl = TrustTimeline(4, [_adjacency(4, [(0, 1)]), _adjacency(4, [(0, 1), (2, 3)])])
    assert tl.edge_count(0) == 1
    assert tl.edge_count(1) == 2
    np.testing.assert_array_equal(tl.laplacians[1].degrees, [1, 1, 1, 1])
    assert tl.laplacians[1].adjacency is tl.graph(1)
    rows, cols = tl.edges(1)
    assert set(zip(rows, cols)) == {(0, 1), (2, 3)}


def test_trust_timeline_rejects_lost_edges():
    with pytest.raises(ValueError, match="lost edges"):
        TrustTimeline(4, [_adjacency(4, [(0, 1), (2, 3)]), _adjacency(4, [(0, 1)])])


def test_trust_timeline_rejects_asymmetry_and_loops():
    W = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        TrustTimeline(2, [W])
    loop = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        TrustTimeline(2, [loop])


def test_from_edges_builds_symmetric_binary_graphs():
    # A repeated pair and its reverse both collapse to one weight-one edge.
    tl = TrustTimeline.from_edges(4, [([0, 0, 1], [1, 1, 0]), ([0, 3], [1, 2])])
    for t in range(tl.N):
        W = tl.graph(t)
        assert (W != W.T).nnz == 0
        np.testing.assert_array_equal(W.data, 1.0)
    assert tl.edge_count(0) == 1 and tl.edge_count(1) == 2
    rows, cols = tl.edges(1)
    assert set(zip(rows, cols)) == {(0, 1), (2, 3)}


def test_from_edges_handles_an_edgeless_bin():
    none = (np.empty(0, np.int64), np.empty(0, np.int64))
    tl = TrustTimeline.from_edges(3, [none, ([2], [0])])
    assert tl.edge_count(0) == 0 and tl.graph(0).nnz == 0
    assert tl.edge_count(1) == 1


def test_from_edges_keeps_the_constructor_checks():
    with pytest.raises(ValueError, match="diagonal"):
        TrustTimeline.from_edges(3, [([0, 1], [1, 1])])
    with pytest.raises(ValueError, match="lost edges"):
        TrustTimeline.from_edges(3, [([0, 1], [1, 2]), ([0], [1])])


def test_factor_pair_validation():
    with pytest.raises(ValueError, match="rank"):
        FactorPair(U=np.zeros((2, 3)), V=np.zeros((4, 2)))
    with pytest.raises(ValueError, match="finite"):
        FactorPair(U=np.full((2, 2), np.inf), V=np.zeros((3, 2)))
    pair = FactorPair(U=np.zeros((2, 3)), V=np.zeros((4, 3)))
    assert pair.k == 3


def test_factor_timeline_uniform_shapes():
    a = FactorPair(U=np.zeros((2, 2)), V=np.zeros((3, 2)))
    b = FactorPair(U=np.zeros((2, 2)), V=np.zeros((3, 2)))
    tl = FactorTimeline([a, b])
    assert (tl.m, tl.n, tl.k, tl.N) == (2, 3, 2, 2)
    with pytest.raises(ValueError):
        FactorTimeline([a, FactorPair(U=np.zeros((2, 3)), V=np.zeros((3, 3)))])


def test_config_validation():
    cfg = SmootherConfig(k=5)
    assert cfg.dt == 1.0 and cfg.lam == 0.0 and cfg.align_factors
    for kwargs in (
        dict(k=0),
        dict(k=2, dt=0.0),
        dict(k=2, sigma=-1.0),
        dict(k=2, lam=-0.1),
        dict(k=2, gamma=0.0),
        dict(k=2, grad_tol=0.0),
        # Non-finite values: NaN fails every comparison, inf is no scale.
        dict(k=2, lam=float("nan")),
        dict(k=2, lam=float("inf")),
        dict(k=2, dt=float("nan")),
        dict(k=2, dt=float("inf")),
        dict(k=2, sigma=float("nan")),
        dict(k=2, sigma=float("inf")),
        dict(k=2, gamma=float("nan")),
        dict(k=2, gamma=float("inf")),
        dict(k=2, grad_tol=float("nan")),
        dict(k=2, grad_tol=float("inf")),
        dict(k=2, max_iter=0),
        dict(k=2, seed=-1),
    ):
        with pytest.raises(ValueError):
            SmootherConfig(**kwargs)
