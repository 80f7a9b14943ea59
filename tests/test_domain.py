import numpy as np
import pytest

from socialdmf import (
    FactorPair,
    FactorTimeline,
    RatingsTimeline,
    SmootherConfig,
    SmootherState,
    TrustTimeline,
    save_dataset,
)
from socialdmf.smoother import Q_INV

from oracles import process_noise_covariance


def test_noise_block_unit_spacing():
    np.testing.assert_allclose(process_noise_covariance(), [[1.0, 0.5], [0.5, 1.0 / 3.0]])
    np.testing.assert_allclose(Q_INV, np.linalg.inv(process_noise_covariance()), rtol=1e-12)
    np.testing.assert_array_equal(Q_INV, [[4.0, -6.0], [-6.0, 12.0]])


@pytest.mark.parametrize("dt", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_noise_block_inverse_oracle(dt):
    # Counting velocities per bin (D = diag(dt, 1)) turns the covariance of
    # bins dt apart into dt**3 times the unit one, so its inverse is Q_INV / dt**3.
    D = np.diag([dt, 1.0])
    q = D @ process_noise_covariance(dt) @ D
    np.testing.assert_allclose(Q_INV / dt**3, np.linalg.inv(q), rtol=1e-10)
    np.testing.assert_allclose(q @ Q_INV / dt**3, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("e", range(-40, 41))
def test_config_accepts_every_spacing_with_a_finite_noise_inverse(e):
    # A spacing dt is the unit-spacing config at sigma * dt**-1.5 and
    # lam * dt**3; over dt = 1e-10 ... 1e10 that config stays valid.
    dt = 10.0 ** (e / 4)
    sigma, lam = 0.7 * dt**-1.5, 0.3 * dt**3
    cfg = SmootherConfig(k=2, sigma=sigma, lam=lam)
    assert cfg.sigma == sigma and cfg.lam == lam
    assert np.all(np.isfinite(Q_INV / dt**3)) and np.all(Q_INV / dt**3)


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


def test_ratings_timeline_sorts_a_shuffled_bin_by_user_then_item():
    users, items = np.array([2, 0, 1, 0, 2]), np.array([0, 3, 1, 1, 2])
    values = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    tl = RatingsTimeline(3, 4, [(users, items, values)])
    np.testing.assert_array_equal(tl.users[0], [0, 0, 1, 2, 2])
    np.testing.assert_array_equal(tl.items[0], [1, 3, 1, 0, 2])
    # Every value is still on its (user, item) pair.
    given = dict(zip(zip(users.tolist(), items.tolist()), values.tolist()))
    assert dict(zip(zip(tl.users[0].tolist(), tl.items[0].tolist()), tl.values[0].tolist())) == given


def test_ratings_timeline_keeps_an_ordered_bins_arrays():
    users, items, values = np.array([0, 0, 2]), np.array([1, 3, 0]), np.array([1.0, 2.0, 3.0])
    tl = RatingsTimeline(3, 4, [(users, items, values)])
    for stored, given in zip(tl.bin(0), (users, items, values)):
        assert np.shares_memory(stored, given)


def test_saved_dataset_does_not_depend_on_the_order_bins_were_given(tmp_path):
    rng = np.random.default_rng(0)
    cells = [np.sort(rng.choice(30 * 20, size=40, replace=False)) for _ in range(3)]
    ordered = [(c // 20, c % 20, rng.normal(size=c.size)) for c in cells]
    shuffled = []
    for bin_ in ordered:
        order = rng.permutation(40)
        shuffled.append(tuple(a[order] for a in bin_))
    trust = TrustTimeline(30, 3, [0, 4], [1, 5], [0, 2])
    users = {f"u{u}": u for u in range(30)}
    items = {f"i{i}": i for i in range(20)}
    for name, bins in (("ordered", ordered), ("shuffled", shuffled)):
        save_dataset(tmp_path / name, RatingsTimeline(30, 20, bins), trust, users, items)
    for path in sorted((tmp_path / "ordered").iterdir()):
        assert path.read_bytes() == (tmp_path / "shuffled" / path.name).read_bytes(), path.name


@pytest.mark.parametrize(
    "bad_bin",
    [
        ([0, 0], [1, 1], [1.0, 2.0]),  # duplicate pair
        ([5], [0], [1.0]),  # user out of range
        ([0], [9], [1.0]),  # item out of range
        ([0], [0], [np.nan]),  # non-finite value
        ([0, 1, 1, 2], [3, 0, 0, 1], [1.0] * 4),  # duplicate pair, bin sorted by (user, item)
        ([2, 1, 0, 1], [1, 0, 3, 0], [1.0] * 4),  # duplicate pair, bin not sorted
    ],
)
def test_ratings_timeline_rejects_bad_bins(bad_bin):
    with pytest.raises(ValueError):
        RatingsTimeline(3, 4, [bad_bin])


def test_trust_timeline_cumulative_ok():
    tl = TrustTimeline(4, 2, [0, 2], [1, 3], [0, 1])
    assert tl.edge_count(0) == 1
    assert tl.edge_count(1) == 2
    np.testing.assert_array_equal(tl.laplacians[1].degrees, [1, 1, 1, 1])
    assert tl.laplacians[1].adjacency is tl.graph(1)
    rows, cols = tl.edges(1)
    assert set(zip(rows, cols)) == {(0, 1), (2, 3)}
    # Every bin's edges are a prefix view of the one edge list.
    for t in range(tl.N):
        assert np.shares_memory(tl.edges(t)[0], tl.rows)


def test_trust_timeline_collapses_repeated_and_reversed_pairs():
    # (0, 1) comes three times, once reversed, first in bin 2; (1, 3) once
    # in each direction, earliest in bin 1.
    tl = TrustTimeline(4, 4, [1, 0, 0, 3, 1], [0, 1, 1, 1, 3], [2, 3, 2, 1, 3])
    np.testing.assert_array_equal(tl.rows, [1, 0])
    np.testing.assert_array_equal(tl.cols, [3, 1])
    np.testing.assert_array_equal(tl.created, [1, 2])
    assert [tl.edge_count(t) for t in range(tl.N)] == [0, 1, 2, 2]
    for t in range(tl.N):
        W = tl.graph(t)
        assert (W != W.T).nnz == 0
        np.testing.assert_array_equal(W.data, 1.0)
        assert not W.diagonal().any()
    np.testing.assert_array_equal(tl.laplacians[3].degrees, [1, 2, 0, 1])


def canonical_edges(m, rows, cols, created):
    """Each pair once, smaller index first, at its earliest bin, sorted by (created, row, col)."""
    first = {}
    for a, b, t in zip(rows, cols, created):
        key = (min(a, b), max(a, b))
        first[key] = min(t, first.get(key, t))
    ordered = sorted((t, a, b) for (a, b), t in first.items())
    return [np.array([e[i] for e in ordered], dtype=np.int64).reshape(-1) for i in (1, 2, 0)]


CANONICAL = ([0, 2, 0, 1, 0], [1, 3, 2, 3, 3], [0, 0, 1, 1, 2])


@pytest.mark.parametrize(
    "rows, cols, created",
    [
        CANONICAL,
        ([1, 2, 0, 1, 0], [0, 3, 2, 3, 3], [0, 0, 1, 1, 2]),  # one pair reversed
        ([0, 0, 2, 0, 1, 0], [1, 1, 3, 2, 3, 3], [0, 0, 0, 1, 1, 2]),  # a pair repeated in its bin
        ([0, 2, 0, 1, 0, 2], [1, 3, 2, 3, 3, 3], [0, 0, 1, 1, 2, 2]),  # (2, 3) again in a later bin
        ([0, 2, 0, 1, 3, 0], [1, 3, 2, 3, 2, 3], [0, 0, 1, 1, 1, 2]),  # ... and reversed
        ([0, 0, 2, 1, 0], [2, 1, 3, 3, 3], [1, 0, 0, 1, 2]),  # out of (created, row, col) order
    ],
)
def test_trust_timeline_canonicalises_every_list(rows, cols, created):
    rows, cols, created = (np.array(a, dtype=np.int64) for a in (rows, cols, created))
    tl = TrustTimeline(4, 3, rows, cols, created)
    expected = canonical_edges(4, rows.tolist(), cols.tolist(), created.tolist())
    for got, want in zip((tl.rows, tl.cols, tl.created), expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    reference = TrustTimeline(4, 3, *expected)
    for t in range(3):
        assert (tl.graph(t) != reference.graph(t)).nnz == 0
        np.testing.assert_array_equal(tl.graph(t).data, 1.0)
        np.testing.assert_array_equal(tl.laplacians[t].degrees, reference.laplacians[t].degrees)


def test_trust_timeline_handles_bins_without_new_edges():
    tl = TrustTimeline(3, 4, [2], [0], [1])
    assert tl.edge_count(0) == 0 and tl.graph(0).nnz == 0
    assert [tl.edge_count(t) for t in range(tl.N)] == [0, 1, 1, 1]
    for t in (2, 3):
        assert (tl.graph(t) != tl.graph(1)).nnz == 0
    empty = TrustTimeline(3, 2, [], [], [])
    assert [empty.edge_count(t) for t in range(empty.N)] == [0, 0]
    np.testing.assert_array_equal(empty.laplacians[1].degrees, [0, 0, 0])


def test_trust_timeline_rejects_bad_edge_lists():
    bad = [
        ([0, 1], [1, 1], [0, 0], "self-loop"),
        ([0], [3], [0], "out of range"),
        ([-1], [2], [0], "out of range"),
        ([0], [1], [2], "creation bin"),
        ([0], [1], [-1], "creation bin"),
        ([0, 1], [1], [0, 0], "equal length"),
        ([[0, 1]], [[1, 2]], [[0, 0]], "1-d"),
    ]
    for rows, cols, created, match in bad:
        with pytest.raises(ValueError, match=match):
            TrustTimeline(3, 2, rows, cols, created)


def test_trust_timeline_rejects_asymmetry_and_loops():
    # An edge list names each pair once, so a one-way row still gives a
    # symmetric graph; a self-loop is rejected outright.
    tl = TrustTimeline(2, 1, [0], [1], [0])
    W = tl.graph(0)
    assert (W != W.T).nnz == 0
    assert not W.diagonal().any()
    with pytest.raises(ValueError, match="self-loop"):
        TrustTimeline(2, 1, [1], [1], [0])


def test_from_edges_keeps_the_constructor_checks():
    # Building from edges rejects self-loops, and a later bin keeps every
    # edge of the earlier bins instead of losing it.
    with pytest.raises(ValueError, match="self-loop"):
        TrustTimeline(3, 1, [0, 1], [1, 1], [0, 0])
    tl = TrustTimeline(3, 2, [0, 1], [1, 2], [0, 0])
    assert set(zip(*tl.edges(1))) == set(zip(*tl.edges(0))) == {(0, 1), (1, 2)}


def test_trust_timeline_rejects_empty_shapes():
    with pytest.raises(ValueError, match="user"):
        TrustTimeline(0, 1, [], [], [])
    with pytest.raises(ValueError, match="bin"):
        TrustTimeline(2, 0, [], [], [])


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
    assert cfg.sigma == 1.0 and cfg.lam == 0.0
    with pytest.raises(TypeError):  # bins are one time unit apart
        SmootherConfig(k=2, dt=2.0)
    for kwargs in (
        dict(k=0),
        dict(k=2, sigma=-1.0),
        dict(k=2, lam=-0.1),
        dict(k=2, gamma=0.0),
        dict(k=2, grad_tol=0.0),
        # Non-finite values: NaN fails every comparison, inf is no scale.
        dict(k=2, lam=float("nan")),
        dict(k=2, lam=float("inf")),
        dict(k=2, sigma=float("nan")),
        dict(k=2, sigma=float("inf")),
        dict(k=2, gamma=float("nan")),
        dict(k=2, gamma=float("inf")),
        dict(k=2, grad_tol=float("nan")),
        dict(k=2, grad_tol=float("inf")),
        dict(k=2, max_iter=0),
        dict(k=2, seed=-1),
        # Finite values whose sigma**2 leaves float64 range.
        dict(k=2, sigma=1e200),
        dict(k=2, sigma=1e-200),
        dict(k=2, sigma=1e-160),  # sigma**2 is subnormal, its reciprocal inf
    ):
        with pytest.raises(ValueError):
            SmootherConfig(**kwargs)


def random_edge_list(rng, m, N):
    """Edges with repeated, reversed and later-bin duplicate pairs, in random order."""
    E = int(rng.integers(0, 40))
    rows = rng.integers(0, m, size=E)
    cols = (rows + rng.integers(1, m, size=E)) % m  # never a self-loop
    created = rng.integers(0, N, size=E)
    again = rng.integers(0, E, size=int(rng.integers(0, E + 1))) if E else np.zeros(0, dtype=np.int64)
    later = np.minimum(created[again] + rng.integers(0, N, size=again.size), N - 1)
    flip = rng.random(again.size) < 0.5
    rows, cols = (np.concatenate([a, np.where(flip, b[again], a[again])]) for a, b in ((rows, cols), (cols, rows)))
    created = np.concatenate([created, later])
    order = rng.permutation(rows.size)
    return rows[order], cols[order], created[order]


def assert_timeline_matches_reference(tl, m, N, rows, cols, created):
    expected = canonical_edges(m, rows.tolist(), cols.tolist(), created.tolist())
    for got, want in zip((tl.rows, tl.cols, tl.created), expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    dense = np.zeros((m, m))
    ends = np.searchsorted(expected[2], np.arange(N), side="right")
    for t, end in enumerate(ends):
        dense[:] = 0.0
        dense[expected[0][:end], expected[1][:end]] = 1.0
        dense += dense.T
        np.testing.assert_array_equal(tl.graph(t).toarray(), dense)
        np.testing.assert_array_equal(tl.laplacians[t].degrees, dense.sum(axis=1))


@pytest.mark.parametrize("seed", range(4))
def test_trust_timeline_matches_the_dict_reference_on_random_lists(seed):
    rng = np.random.default_rng(seed)
    for _ in range(75):
        m, N = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        rows, cols, created = random_edge_list(rng, m, N)
        tl = TrustTimeline(m, N, rows, cols, created)
        assert_timeline_matches_reference(tl, m, N, rows, cols, created)
        # A canonical list fed back in comes out byte for byte the same.
        again = TrustTimeline(m, N, tl.rows, tl.cols, tl.created)
        assert_timeline_matches_reference(again, m, N, tl.rows, tl.cols, tl.created)
