import csv
import logging

import numpy as np
import pytest

from socialdmf import (
    FactorPair,
    FactorTimeline,
    RatingsTimeline,
    SmootherConfig,
    apply_laplacian,
    build_timeline_laplacians,
    check_gradient,
    evaluate_rmse,
    merge_split,
    random_problem,
    run_dynamic,
    run_static,
    sweep,
    synth_generate,
    write_results_csv,
)


# ---------------------------------------------------------------------------
# Scoring


def test_rmse_hand_case():
    U = np.array([[1.0, 0.0], [0.0, 1.0]])
    V = np.array([[1.0, 0.0], [0.0, 2.0]])
    factors = FactorTimeline([FactorPair(U=U, V=V)] * 2)
    # Bin 0: predictions 1.0 and 2.0; errors 1.0 and 0.0. Bin 1: one
    # prediction 0.0 against 3.0.
    test = RatingsTimeline(2, 2, [
        (np.array([0, 1]), np.array([0, 1]), np.array([2.0, 2.0])),
        (np.array([0]), np.array([1]), np.array([3.0])),
    ])
    per_bin, weighted = evaluate_rmse(factors, test)
    np.testing.assert_allclose(per_bin[0], np.sqrt(0.5))
    np.testing.assert_allclose(per_bin[1], 3.0)
    np.testing.assert_allclose(weighted, np.sqrt((2 * 0.5 + 1 * 9.0) / 3))


def test_rmse_empty_bin_is_nan_and_excluded():
    factors = FactorTimeline([FactorPair(U=np.ones((2, 1)), V=np.ones((2, 1)))] * 2)
    test = RatingsTimeline(2, 2, [
        (np.array([0]), np.array([0]), np.array([2.0])),
        (np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([])),
    ])
    per_bin, weighted = evaluate_rmse(factors, test)
    assert np.isnan(per_bin[1])
    np.testing.assert_allclose(weighted, 1.0)


def test_rmse_all_empty_is_nan(caplog):
    factors = FactorTimeline([FactorPair(U=np.ones((2, 1)), V=np.ones((2, 1)))])
    test = RatingsTimeline(2, 2, [
        (np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([])),
    ])
    with caplog.at_level(logging.WARNING):
        per_bin, weighted = evaluate_rmse(factors, test)
    assert np.isnan(weighted)


def test_rmse_shape_mismatch_rejected():
    factors = FactorTimeline([FactorPair(U=np.ones((2, 1)), V=np.ones((2, 1)))])
    test = RatingsTimeline(3, 2, [
        (np.array([0]), np.array([0]), np.array([1.0])),
    ])
    with pytest.raises(ValueError):
        evaluate_rmse(factors, test)


# ---------------------------------------------------------------------------
# Synthetic generator


def test_synth_is_deterministic():
    a = synth_generate(10, 8, 2, 3, 20, 6, eta=0.1, noise_std=0.3, seed=12)
    b = synth_generate(10, 8, 2, 3, 20, 6, eta=0.1, noise_std=0.3, seed=12)
    c = synth_generate(10, 8, 2, 3, 20, 6, eta=0.1, noise_std=0.3, seed=13)
    for t in range(3):
        np.testing.assert_array_equal(a[0].train.values[t], b[0].train.values[t])
        np.testing.assert_array_equal(a[2].positions[t], b[2].positions[t])
    assert not np.array_equal(a[2].positions[0], c[2].positions[0])


def test_synth_noiseless_constant_velocity_is_exact():
    split, _, truth = synth_generate(
        8, 6, 2, 4, 20, 5, eta=0.0, noise_std=0.0, seed=3,
        velocity_std=0.1, process_std=0.0,
    )
    for t in range(4):
        np.testing.assert_array_equal(truth.velocities[t], truth.velocities[0])
        np.testing.assert_allclose(
            truth.positions[t],
            truth.positions[0] + t * truth.velocities[0],
            rtol=1e-12, atol=1e-14,
        )
    merged = merge_split(split)
    _, weighted = evaluate_rmse(truth.factors(), merged)
    assert weighted <= 1e-12


def test_synth_positions_follow_consensus_recurrence():
    split, trust, truth = synth_generate(
        10, 5, 2, 3, 15, 8, eta=0.2, noise_std=0.1, seed=9, process_std=0.0,
    )
    laplacians = build_timeline_laplacians(trust)
    for t in range(2):
        pulled = truth.positions[t] + 1.0 * truth.velocities[t]
        expect = pulled - 0.2 * apply_laplacian(laplacians[t], pulled)
        np.testing.assert_array_equal(truth.positions[t + 1], expect)


def test_synth_split_fraction():
    split, _, _ = synth_generate(6, 6, 2, 2, 9, 0, eta=0.0, noise_std=0.1, seed=1, fraction=0.5)
    for t in range(2):
        assert split.train.p(t) == 5  # ceil(0.5 * 9)
        assert split.test.p(t) == 4


def test_synth_rejects_unstable_eta():
    with pytest.raises(ValueError, match="eta"):
        synth_generate(10, 5, 2, 2, 10, 8, eta=1000.0, noise_std=0.1, seed=0)


def test_synth_rejects_oversampling():
    with pytest.raises(ValueError, match="samples_per_bin"):
        synth_generate(3, 3, 2, 2, 10, 0, eta=0.0, noise_std=0.1, seed=0)
    with pytest.raises(ValueError, match="trust_edges"):
        synth_generate(3, 3, 2, 2, 5, 99, eta=0.0, noise_std=0.1, seed=0)


# ---------------------------------------------------------------------------
# Model runs


@pytest.fixture(scope="module")
def small_synth():
    return synth_generate(
        20, 15, 2, 4, 80, 15, eta=0.05, noise_std=0.3, seed=21, fraction=0.6,
    )


def test_run_static_basics(small_synth):
    split, _, _ = small_synth
    result = run_static(split, SmootherConfig(k=2, gamma=0.5, seed=0))
    assert result.model == "static"
    assert result.lam is None
    assert np.isfinite(result.rmse_weighted)
    assert len(result.rmse_per_bin) == split.train.N
    assert result.factors is not None and result.factors.k == 2


def test_run_dynamic_names_models_by_penalty(small_synth):
    split, trust, _ = small_synth
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=300)
    plain = run_dynamic(split, trust, config, lam=0.0)
    social = run_dynamic(split, trust, config, lam=0.01)
    assert plain.model == "dynamic"
    assert social.model == "dynamic_social"
    assert plain.status == "ok" and social.status == "ok"
    assert plain.iterations > 0
    assert np.isfinite(plain.rmse_weighted) and np.isfinite(social.rmse_weighted)


def test_run_dynamic_keeps_item_factors_fixed(small_synth):
    split, trust, _ = small_synth
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=40)
    from socialdmf import init_timeline

    factors = init_timeline(split, config)
    result = run_dynamic(split, trust, config, lam=0.0, factors=factors)
    for t in range(factors.N):
        np.testing.assert_array_equal(result.factors[t].V, factors[t].V)
        assert not np.array_equal(result.factors[t].U, factors[t].U)


def test_run_dynamic_requires_trust_for_social(small_synth):
    split, _, _ = small_synth
    with pytest.raises(ValueError, match="trust"):
        run_dynamic(split, None, SmootherConfig(k=2, seed=0), lam=0.1)


def test_run_dynamic_without_trust_at_zero_lambda(small_synth):
    split, _, _ = small_synth
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=40)
    result = run_dynamic(split, None, config, lam=0.0)
    # 40 iterations do not converge here; the status says so.
    assert result.status == "max_iter"
    assert result.iterations == 40


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_grid_shape_and_order(small_synth, tmp_path):
    split, trust, _ = small_synth
    csv_path = tmp_path / "sweep.csv"
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=30)
    results = sweep(split, trust, ks=[2, 3], lambdas=[0.01, 0.1], config=config, csv_path=csv_path)
    assert len(results) == 2 * (2 + 2)
    models = [r.model for r in results[:4]]
    assert models == ["static", "dynamic", "dynamic_social", "dynamic_social"]
    assert [r.k for r in results] == [2, 2, 2, 2, 3, 3, 3, 3]
    assert results[2].lam == 0.01 and results[3].lam == 0.1

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["model", "k", "lambda", "rmse_weighted"]
    assert len(rows) == 1 + len(results)
    assert rows[1][2] == ""  # static rows carry no lambda
    assert float(rows[2][2]) == 0.0


def test_sweep_survives_a_failing_cell(small_synth, caplog):
    split, trust, _ = small_synth
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=20)
    with caplog.at_level(logging.ERROR):
        results = sweep(split, trust, ks=[2], lambdas=[-0.5, 0.01], config=config)
    assert [(r.model, r.lam) for r in results] == [
        ("static", None), ("dynamic", 0.0), ("dynamic_social", -0.5), ("dynamic_social", 0.01),
    ]
    # 20 iterations do not converge; only the invalid weight is an error.
    statuses = [r.status for r in results]
    assert statuses[:2] == ["ok", "max_iter"] and statuses[3] == "max_iter"
    assert statuses[2].startswith("error")


def test_sweep_threads_match_sequential(small_synth):
    split, trust, _ = small_synth
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=25)
    seq = sweep(split, trust, ks=[2], lambdas=[0.01], config=config, n_jobs=1)
    par = sweep(split, trust, ks=[2], lambdas=[0.01], config=config, n_jobs=3)
    assert [r.model for r in seq] == [r.model for r in par]
    for a, b in zip(seq, par):
        np.testing.assert_allclose(a.rmse_weighted, b.rmse_weighted, rtol=1e-12)


def test_write_results_csv_handles_nan(tmp_path):
    from socialdmf import ExperimentResult

    r = ExperimentResult(
        model="static", k=2, lam=None, rmse_per_bin=[float("nan")],
        rmse_weighted=float("nan"), wall_seconds=0.0, config={}, seed=0,
        status="error: boom",
    )
    path = tmp_path / "res.csv"
    write_results_csv(path, [r], N=1)
    rows = list(csv.reader(open(path, newline="")))
    assert rows[1][0] == "static"
    assert rows[1][3] == "nan"
    assert rows[1][-1] == "error: boom"


# ---------------------------------------------------------------------------
# Diagnostic fixtures


def test_random_problem_shapes():
    problem = random_problem(m=12, n=9, k=3, N=4, p_per_bin=20, trust_edges=10, lam=0.1, seed=0)
    assert problem.state_size == 4 * 2 * 12 * 3
    assert problem.laplacians is not None and len(problem.laplacians) == 4
    plain = random_problem(m=12, n=9, k=3, N=4, p_per_bin=20, trust_edges=10, lam=0.0, seed=0)
    assert plain.laplacians is None


def test_check_gradient_small_problem():
    problem = random_problem(m=8, n=6, k=2, N=3, p_per_bin=12, trust_edges=6, lam=0.05, seed=4)
    assert check_gradient(problem, step=1e-3, seed=0) <= 1e-6
