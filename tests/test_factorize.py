import logging

import numpy as np
import pytest
import scipy.sparse as sp

from socialdmf import (
    FactorPair,
    RatingsTimeline,
    SmootherConfig,
    _parallel,
    align_factor_pair,
    factorize,
    factorize_bin,
    init_timeline,
    load_factors,
    save_factors,
    split_train_test,
)
from socialdmf.factorize import _compress, _penalized_objective, _ridge_rows


def random_bin(m, n, p, seed, repeat_users=True):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < p:
        pairs.add((int(rng.integers(m)), int(rng.integers(n))))
    pairs = sorted(pairs)
    users = np.array([u for u, _ in pairs])
    items = np.array([i for _, i in pairs])
    values = rng.uniform(1.0, 5.0, size=p)
    return users, items, values


@pytest.mark.parametrize("seed", range(5))
def test_trace_is_non_increasing(seed):
    obs = random_bin(12, 9, 40, seed)
    _, trace = factorize_bin(obs, 12, 9, k=3, gamma=0.5, iters=40, seed=seed)
    slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) <= slack)
    assert trace.size >= 3


@pytest.mark.parametrize("seed", range(3))
def test_trace_matches_the_objective_of_each_half_step(seed):
    users, items, values = random_bin(12, 9, 40, seed)
    _, trace = factorize_bin((users, items, values), 12, 9, k=3, gamma=0.5, iters=4, seed=seed, tol=0.0)
    # Replay the half-steps and score each one by predicting every rating.
    row_ids, col_ids, counts, sums = _compress(users, items, values)
    rng = np.random.default_rng(seed)
    U = rng.normal(0.0, 1 / np.sqrt(3), size=(12, 3))
    V = rng.normal(0.0, 1 / np.sqrt(3), size=(9, 3))
    expected = [_penalized_objective(users, items, values, U, V, 0.5)]
    for _ in range(4):
        U = np.zeros((12, 3))
        U[row_ids], _ = _ridge_rows(counts, sums, V[col_ids], 0.5)
        expected.append(_penalized_objective(users, items, values, U, V, 0.5))
        V = np.zeros((9, 3))
        V[col_ids], _ = _ridge_rows(counts.T.tocsr(), sums.T.tocsr(), U[row_ids], 0.5)
        expected.append(_penalized_objective(users, items, values, U, V, 0.5))
    assert trace[0] == expected[0]
    np.testing.assert_allclose(trace, expected, rtol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_factor_norms_balance_at_convergence(seed):
    obs = random_bin(15, 12, 70, seed + 100)
    pair, _ = factorize_bin(obs, 15, 12, k=3, gamma=1.0, iters=500, seed=seed, tol=1e-13)
    nu = np.linalg.norm(pair.U)
    nv = np.linalg.norm(pair.V)
    assert abs(nu - nv) <= 1e-3 * max(nu, nv)


@pytest.mark.parametrize(
    "m,n,p,repeats",
    [
        pytest.param(8, 6, 25, 0, id="distinct-pairs"),
        pytest.param(8, 6, 25, 10, id="repeated-pairs"),
        pytest.param(60, 50, 12, 0, id="mostly-unobserved"),
    ],
)
def test_ridge_rows_matches_per_row_solves(m, n, p, repeats):
    rng = np.random.default_rng(11)
    k = 3
    users, items, values = random_bin(m, n, p, 11)
    other = rng.standard_normal((n, k))
    # Repeated (row, col) pairs carry fresh values and come after the
    # originals; each copy is one more observation in its row's system.
    again = rng.permutation(p)[:repeats]
    users = np.concatenate([users, users[again]])
    items = np.concatenate([items, items[again]])
    values = np.concatenate([values, rng.uniform(1.0, 5.0, size=repeats)])
    if m > p:
        assert np.unique(users).size < m / 2 and np.unique(items).size < n / 2
    gamma = 0.7
    row_ids, col_ids, counts, sums = _compress(users, items, values)
    got, fit = _ridge_rows(counts, sums, other[col_ids], gamma)
    assert got.shape == (row_ids.size, k)
    expect_fit = 0.0
    for i, x in zip(row_ids, got):
        mask = users == i
        M = other[items[mask]]
        z = values[mask]
        expect = np.linalg.solve(M.T @ M + gamma * np.eye(k), M.T @ z)
        np.testing.assert_allclose(x, expect, rtol=1e-10, atol=1e-12)
        expect_fit += float(expect @ (M.T @ z))
    np.testing.assert_allclose(fit, expect_fit, rtol=1e-10)


def test_ridge_rows_handles_empty_input():
    empty = sp.csr_matrix((0, 0))
    out, fit = _ridge_rows(empty, empty, np.zeros((0, 2)), 1.0)
    assert out.shape == (0, 2)
    assert fit == 0.0


def test_unrated_rows_get_zero_factors():
    users, items, values = random_bin(6, 5, 12, 3)
    # random_bin draws users below 6 and items below 5, so user 6 and item 5 are unrated.
    pair, _ = factorize_bin((users, items, values), 7, 6, k=2, gamma=0.5, iters=3)
    np.testing.assert_array_equal(pair.U[6], 0.0)
    np.testing.assert_array_equal(pair.V[5], 0.0)
    assert np.all(pair.U[np.unique(users)] != 0.0)


def test_half_steps_are_exact_minimizers():
    """After the U half-step, no single U row can be improved."""
    users, items, values = random_bin(10, 8, 30, 5)
    rng = np.random.default_rng(5)
    V = rng.standard_normal((8, 2))
    gamma = 0.3
    row_ids, col_ids, counts, sums = _compress(users, items, values)
    U = np.zeros((10, 2))
    U[row_ids], _ = _ridge_rows(counts, sums, V[col_ids], gamma)
    # Perturbing any row must not lower the objective.
    def obj(U_):
        r = values - np.einsum("lk,lk->l", U_[users], V[items])
        return 0.5 * r @ r + 0.5 * gamma * np.sum(U_ * U_)

    base = obj(U)
    for trial in range(20):
        U_p = U + 1e-4 * np.random.default_rng(trial).standard_normal(U.shape)
        assert obj(U_p) >= base - 1e-12


def test_empty_bin_rejected():
    with pytest.raises(ValueError, match="empty"):
        factorize_bin((np.array([]), np.array([]), np.array([])), 3, 3, 2, 1.0)


def test_invalid_parameters_rejected():
    obs = random_bin(4, 4, 5, 0)
    with pytest.raises(ValueError):
        factorize_bin(obs, 4, 4, k=0, gamma=1.0)
    with pytest.raises(ValueError):
        factorize_bin(obs, 4, 4, k=2, gamma=0.0)
    with pytest.raises(ValueError, match="iters"):
        factorize_bin(obs, 4, 4, k=2, gamma=1.0, iters=0)


# ---------------------------------------------------------------------------
# Alignment


def test_alignment_preserves_reconstruction():
    rng = np.random.default_rng(21)
    current = FactorPair(U=rng.standard_normal((7, 3)), V=rng.standard_normal((5, 3)))
    reference = FactorPair(U=rng.standard_normal((7, 3)), V=rng.standard_normal((5, 3)))
    aligned = align_factor_pair(current, reference)
    np.testing.assert_allclose(
        aligned.U @ aligned.V.T, current.U @ current.V.T, rtol=1e-10, atol=1e-10
    )


def test_alignment_recovers_a_planted_rotation():
    rng = np.random.default_rng(22)
    U = rng.standard_normal((6, 3))
    V = rng.standard_normal((9, 3))
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = FactorPair(U=U @ R, V=V @ R)
    aligned = align_factor_pair(rotated, FactorPair(U=U, V=V))
    np.testing.assert_allclose(aligned.V, V, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(aligned.U, U, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("n, k", [(9, 2), (40, 5), (300, 10), (30, 20)])
def test_alignment_matches_scipy_orthogonal_procrustes(n, k):
    import scipy.linalg

    rng = np.random.default_rng(n + k)
    for _ in range(5):
        current = FactorPair(U=rng.standard_normal((7, k)), V=rng.standard_normal((n, k)))
        reference = FactorPair(U=rng.standard_normal((7, k)), V=rng.standard_normal((n, k)))
        R, _ = scipy.linalg.orthogonal_procrustes(current.V, reference.V)
        aligned = align_factor_pair(current, reference)
        np.testing.assert_allclose(aligned.V, current.V @ R, rtol=0, atol=1e-12)
        np.testing.assert_allclose(aligned.U, current.U @ R, rtol=0, atol=1e-12)


def test_alignment_shape_mismatch_rejected():
    a = FactorPair(U=np.zeros((3, 2)), V=np.zeros((4, 2)))
    b = FactorPair(U=np.zeros((3, 2)), V=np.zeros((5, 2)))
    with pytest.raises(ValueError):
        align_factor_pair(a, b)


# ---------------------------------------------------------------------------
# Timeline initialization


def timeline_fixture(seed=0, N=3, m=10, n=8, p=35):
    rng = np.random.default_rng(seed)
    bins = []
    for t in range(N):
        bins.append(random_bin(m, n, p, seed * 37 + t))
    timeline = RatingsTimeline(m, n, bins)
    return split_train_test(timeline, 0.8, seed=seed)


def test_init_timeline_shapes_and_determinism():
    split = timeline_fixture(seed=1)
    config = SmootherConfig(k=2, gamma=0.5, seed=42)
    a = init_timeline(split, config)
    b = init_timeline(split, config)
    assert a.N == split.train.N and a.m == 10 and a.n == 8 and a.k == 2
    for t in range(a.N):
        np.testing.assert_array_equal(a[t].U, b[t].U)
        np.testing.assert_array_equal(a[t].V, b[t].V)


def test_init_timeline_bins_differ_and_seed_matters():
    split = timeline_fixture(seed=2)
    base = init_timeline(split, SmootherConfig(k=2, gamma=0.5, seed=1))
    other = init_timeline(split, SmootherConfig(k=2, gamma=0.5, seed=2))
    assert not np.allclose(base[0].U, base[1].U)
    assert not np.allclose(base[0].U, other[0].U)


def one_cpu_matches(split, config, monkeypatch):
    """Fit with the pool as it stands, then on one usable CPU; check the factors match bit for bit."""
    pooled = init_timeline(split, config)
    with monkeypatch.context() as patch:
        patch.setattr(_parallel, "_usable_cpus", lambda: 1)
        inline = init_timeline(split, config)
    for t in range(inline.N):
        np.testing.assert_array_equal(pooled[t].U, inline[t].U)
        np.testing.assert_array_equal(pooled[t].V, inline[t].V)


def test_init_timeline_threads_match_sequential(monkeypatch):
    one_cpu_matches(timeline_fixture(seed=3), SmootherConfig(k=2, gamma=0.5, seed=7), monkeypatch)


def test_init_timeline_default_matches_one_job(three_cpus, monkeypatch):
    one_cpu_matches(timeline_fixture(seed=5, N=5), SmootherConfig(k=3, gamma=0.5, seed=11), monkeypatch)


def test_init_timeline_alignment_tightens_consecutive_frames(monkeypatch):
    split = timeline_fixture(seed=4, N=4)
    config = SmootherConfig(k=3, gamma=0.5, seed=5)
    aligned = init_timeline(split, config)
    monkeypatch.setattr(factorize, "align_factor_pair", lambda current, reference: current)
    raw = init_timeline(split, config)
    for t in range(split.train.N):
        np.testing.assert_allclose(
            aligned[t].U @ aligned[t].V.T, raw[t].U @ raw[t].V.T, rtol=1e-9, atol=1e-9
        )
    for t in range(1, split.train.N):
        d_aligned = np.linalg.norm(aligned[t].V - aligned[t - 1].V)
        d_raw = np.linalg.norm(raw[t].V - raw[t - 1].V)
        assert d_aligned <= d_raw + 1e-12


def test_init_timeline_empty_bin_gets_zero_factors(caplog):
    m, n = 6, 5
    bins = [random_bin(m, n, 12, 9), (np.array([]), np.array([]), np.array([])), random_bin(m, n, 12, 10)]
    timeline = RatingsTimeline(m, n, bins)
    with caplog.at_level(logging.WARNING):
        split = split_train_test(timeline, 0.75, seed=0)
        factors = init_timeline(split, SmootherConfig(k=2, gamma=1.0, seed=0))
    np.testing.assert_array_equal(factors[1].U, 0.0)
    np.testing.assert_array_equal(factors[1].V, 0.0)
    assert any("no training ratings" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# Checkpoints


def test_factor_checkpoint_round_trip(tmp_path):
    split = timeline_fixture(seed=6)
    factors = init_timeline(split, SmootherConfig(k=2, gamma=0.5, seed=3))
    save_factors(tmp_path / "ckpt", factors)
    loaded = load_factors(tmp_path / "ckpt")
    assert loaded.N == factors.N
    for t in range(factors.N):
        np.testing.assert_array_equal(loaded[t].U, factors[t].U)
        np.testing.assert_array_equal(loaded[t].V, factors[t].V)
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == ["U.npy", "V.npy"]
    assert np.load(tmp_path / "ckpt" / "U.npy").shape == (factors.N, factors.m, factors.k)
    assert np.load(tmp_path / "ckpt" / "V.npy").shape == (factors.N, factors.n, factors.k)


def test_factor_checkpoint_is_byte_identical_across_saves(tmp_path):
    factors = init_timeline(timeline_fixture(seed=7), SmootherConfig(k=2, gamma=0.5, seed=4))
    save_factors(tmp_path / "a", factors)
    save_factors(tmp_path / "b", factors)
    for name in ("U.npy", "V.npy"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "U_shape,V_shape",
    [
        pytest.param((3, 5, 2), (2, 4, 2), id="N-differs"),
        pytest.param((3, 5, 2), (3, 4, 3), id="k-differs"),
        pytest.param((5, 2), (4, 2), id="not-3d"),
        pytest.param((3, 5, 2), (3, 4, 2, 1), id="V-4d"),
    ],
)
def test_load_factors_rejects_mismatched_stacks(tmp_path, U_shape, V_shape):
    np.save(tmp_path / "U.npy", np.zeros(U_shape))
    np.save(tmp_path / "V.npy", np.zeros(V_shape))
    with pytest.raises(ValueError, match="stacks"):
        load_factors(tmp_path)


def test_load_factors_never_unpickles(tmp_path):
    np.save(tmp_path / "U.npy", np.empty((1, 2, 2), dtype=object), allow_pickle=True)
    np.save(tmp_path / "V.npy", np.zeros((1, 3, 2)))
    with pytest.raises(ValueError, match="pickle"):
        load_factors(tmp_path)


@pytest.mark.parametrize("name", ["U.npy", "V.npy"])
def test_load_factors_rejects_an_npz_archive_naming_the_file(tmp_path, name):
    np.save(tmp_path / "U.npy", np.zeros((1, 2, 2)))
    np.save(tmp_path / "V.npy", np.zeros((1, 3, 2)))
    with open(tmp_path / name, "wb") as fh:
        np.savez(fh, stack=np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match=name):
        load_factors(tmp_path)


def test_load_factors_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_factors(tmp_path / "nothing")
