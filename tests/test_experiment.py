import csv
import dataclasses
import gc
import logging
import sys
import weakref

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
from socialdmf import experiment
from socialdmf.smoother import objective_and_gradient


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
        8, 6, 2, 4, 20, 5, eta=0.0, noise_std=0.0, seed=3, process_std=0.0,
    )
    for t in range(4):
        np.testing.assert_array_equal(truth.velocities[t], truth.velocities[0])
        np.testing.assert_allclose(
            truth.positions[t],
            truth.positions[0] + t * truth.velocities[0],
            rtol=1e-12, atol=1e-14,
        )
    merged = merge_split(split)
    factors = FactorTimeline([FactorPair(U=U, V=truth.item_factors) for U in truth.positions])
    _, weighted = evaluate_rmse(factors, merged)
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
    # A negative or non-finite scale is named, not silently read as 0; with
    # no trust edges no stability check sees eta at all.
    scales = dict(eta=0.0, noise_std=0.1, process_std=0.02)
    for name, value in [("eta", -1.0), ("eta", np.nan), ("eta", np.inf), ("noise_std", -1.0),
                        ("noise_std", np.nan), ("noise_std", np.inf), ("process_std", -1.0),
                        ("process_std", np.nan), ("process_std", np.inf)]:
        with pytest.raises(ValueError, match=name):
            synth_generate(10, 5, 2, 2, 10, 0, seed=0, **{**scales, name: value})


def _lambda_max(trust) -> float:
    """Largest eigenvalue of the final cumulative Laplacian, densely."""
    op = trust.laplacians[trust.N - 1]
    L = np.diag(op.degrees) - op.adjacency.toarray()
    return float(np.linalg.eigvalsh(L).max()) if op.edge_count else 0.0


def _accepts(m, trust_edges, eta, seed):
    try:
        synth_generate(m, 6, 2, 3, 20, trust_edges, eta=eta, noise_std=0.1, seed=seed)
    except ValueError as exc:
        assert "eta" in str(exc)
        return False
    return True


@pytest.mark.parametrize("m, trust_edges, seed", [(30, 60, 0), (120, 200, 1), (450, 900, 2), (450, 0, 3)])
def test_synth_eta_check_decides_as_the_exact_spectral_check(m, trust_edges, seed, monkeypatch):
    # The edges and the eta check draw on the generator before anything
    # that reads eta, so an eta of 0 yields the same final graph.
    _, trust, _ = synth_generate(m, 6, 2, 3, 20, trust_edges, eta=0.0, noise_std=0.1, seed=seed)
    op = trust.laplacians[trust.N - 1]
    lam = _lambda_max(trust)
    if trust_edges == 0:
        # An edgeless graph has lambda_max 0: every eta is stable.
        assert _accepts(m, trust_edges, 1e6, seed)
        return
    bound = float((op.degrees[op.rows] + op.degrees[op.cols]).max())
    assert lam <= bound
    etas = [2.0 / bound, 2.0 / lam * (1 - 1e-6), 2.0 / lam * (1 + 1e-6), 2.0 / bound * (1 + 1e-6), 10.0]
    for eta in etas:
        assert _accepts(m, trust_edges, eta, seed) == (eta * lam <= 2.0 + 1e-12), eta
    # Just inside 2 / lambda_max the degree bound fails but lambda_max
    # passes, so the eigenvalue is computed; at 2 / bound it is not.
    assert 2.0 / lam * (1 - 1e-6) * bound > 2.0 + 1e-12

    def no_eigenvalue_solve(op):
        raise AssertionError("the degree bound should have certified eta")

    monkeypatch.setattr("socialdmf.experiment._laplacian_spectral_bound", no_eigenvalue_solve)
    assert _accepts(m, trust_edges, 2.0 / bound, seed)


def _edges_pair_at_a_time(rng, m, count):
    """The reference: one two-value draw and one set insert per pair."""
    edges = set()
    while len(edges) < count:
        a, b = rng.integers(0, m, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)


def _assert_same_edges_and_stream(m, count, seed):
    batched_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    batched = experiment._random_edges(batched_rng, m, count)
    reference = _edges_pair_at_a_time(reference_rng, m, count)
    assert batched.dtype == reference.dtype == np.int64
    assert batched.shape == (count, 2)
    np.testing.assert_array_equal(batched, reference)
    assert batched_rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("m, count", [(1000, 8000), (500, 1500), (22164, 5000), (2, 1)])
def test_random_edges_match_the_pair_at_a_time_draw(m, count):
    for seed in range(40):
        _assert_same_edges_and_stream(m, count, seed)


def test_random_edges_of_a_complete_graph_match_the_pair_at_a_time_draw():
    # The first batch falls short on a complete graph, so these extend it.
    for m in range(2, 41):
        _assert_same_edges_and_stream(m, m * (m - 1) // 2, seed=m)


def test_no_random_edges_draw_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    edges = experiment._random_edges(rng, 10, 0)
    assert edges.shape == (0, 2) and edges.dtype == np.int64
    assert rng.bit_generator.state == before


def test_random_problem_and_synth_match_the_pair_at_a_time_edges(monkeypatch):
    # random_problem clamps the edge count to the complete graph; synth
    # draws its creation bins and factors after the edges, so it also sees
    # where the edges leave the generator.
    problem = random_problem(m=8, n=6, k=2, N=3, p_per_bin=12, trust_edges=100, lam=0.1, seed=3)
    synth = synth_generate(30, 8, 2, 3, 40, 60, eta=0.05, noise_std=0.1, seed=4)
    monkeypatch.setattr(experiment, "_random_edges", _edges_pair_at_a_time)
    reference_problem = random_problem(m=8, n=6, k=2, N=3, p_per_bin=12, trust_edges=100,
                                       lam=0.1, seed=3)
    reference_synth = synth_generate(30, 8, 2, 3, 40, 60, eta=0.05, noise_std=0.1, seed=4)
    for op, ref in zip(problem.laplacians, reference_problem.laplacians):
        assert op.edge_count == 28
        np.testing.assert_array_equal(op.rows, ref.rows)
        np.testing.assert_array_equal(op.cols, ref.cols)
    (split, trust, truth), (ref_split, ref_trust, ref_truth) = synth, reference_synth
    for name in ("rows", "cols", "created"):
        np.testing.assert_array_equal(getattr(trust, name), getattr(ref_trust, name))
    for t in range(3):
        for got, want in zip(split.train.bin(t) + split.test.bin(t),
                             ref_split.train.bin(t) + ref_split.test.bin(t)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(truth.positions[t], ref_truth.positions[t])


def test_synth_rejects_oversampling():
    with pytest.raises(ValueError, match="samples_per_bin"):
        synth_generate(3, 3, 2, 2, 10, 0, eta=0.0, noise_std=0.1, seed=0)
    with pytest.raises(ValueError, match="trust_edges"):
        synth_generate(3, 3, 2, 2, 5, 99, eta=0.0, noise_std=0.1, seed=0)
    # Negative sizes are named, not read as an edge count or a numpy shape.
    for trust_edges in (-1, -7):
        with pytest.raises(ValueError, match="trust_edges"):
            synth_generate(3, 3, 2, 2, 5, trust_edges, eta=0.0, noise_std=0.1, seed=0)
    with pytest.raises(ValueError, match="samples_per_bin"):
        synth_generate(3, 3, 2, 2, -1, 0, eta=0.0, noise_std=0.1, seed=0)
    with pytest.raises(ValueError, match="p_per_bin"):
        random_problem(m=3, n=3, k=2, N=2, p_per_bin=-1, trust_edges=0, lam=0.0, seed=0)


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


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 the caller's stack holds a call's arguments")
def test_run_dynamic_frees_its_warm_start_once_copied(small_synth, monkeypatch):
    split, trust, _ = small_synth
    build = experiment._warm_start
    starts = []
    alive = []

    def warm_start(factors):
        x0 = build(factors)
        starts.append(weakref.ref(x0))
        return x0

    def objective(problem, x):
        alive.append(starts[0]() is not None)
        return objective_and_gradient(problem, x)

    monkeypatch.setattr(experiment, "_warm_start", warm_start)
    monkeypatch.setattr(experiment, "objective_and_gradient", objective)
    result = run_dynamic(split, trust, SmootherConfig(k=2, gamma=0.5, seed=0), lam=0.1)
    assert result.status == "ok" and len(alive) == result.iterations + 1
    assert not any(alive)


def test_run_dynamic_requires_trust_for_social(small_synth):
    split, _, _ = small_synth
    with pytest.raises(ValueError, match="trust"):
        run_dynamic(split, None, SmootherConfig(k=2, seed=0), lam=0.1)


def test_run_dynamic_without_trust_at_zero_lambda(small_synth):
    split, _, _ = small_synth
    config = SmootherConfig(k=2, gamma=0.5, seed=0)
    result = run_dynamic(split, None, config, lam=0.0)
    # At lambda = 0 the preconditioner is the exact Hessian.
    assert result.status == "ok"
    assert 1 <= result.iterations <= 2
    # One step does not reach a tolerance this tight; the status says so.
    tight = dataclasses.replace(config, max_iter=1, grad_tol=1e-12)
    cut_off = run_dynamic(split, None, tight, lam=0.0)
    assert cut_off.status == "max_iter"
    assert cut_off.iterations == 1
    assert cut_off.rel_grad > tight.grad_tol


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
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=1)
    with caplog.at_level(logging.ERROR):
        results = sweep(split, trust, ks=[2], lambdas=[-0.5, 0.01], config=config)
    assert [(r.model, r.lam) for r in results] == [
        ("static", None), ("dynamic", 0.0), ("dynamic_social", -0.5), ("dynamic_social", 0.01),
    ]
    # One step converges at lambda = 0 but not at lambda > 0; only the
    # invalid weight is an error.
    statuses = [r.status for r in results]
    assert statuses[:2] == ["ok", "ok"] and statuses[3] == "max_iter"
    assert results[3].rel_grad > config.grad_tol
    assert statuses[2].startswith("error")


def test_sweep_survives_a_failing_init(small_synth, monkeypatch):
    split, trust, _ = small_synth
    fit = experiment.init_timeline

    def init_timeline(split, config):
        if config.k == 3:
            raise ValueError("no fit at k=3")
        return fit(split, config)

    monkeypatch.setattr(experiment, "init_timeline", init_timeline)
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=30)
    results = sweep(split, trust, ks=[3, 2], lambdas=[0.01], config=config)
    assert [(r.model, r.k) for r in results] == [
        ("static", 3), ("dynamic", 3), ("dynamic_social", 3),
        ("static", 2), ("dynamic", 2), ("dynamic_social", 2),
    ]
    for r in results[:3]:
        assert r.status == "error: no fit at k=3"
        assert np.isnan(r.rmse_weighted) and len(r.rmse_per_bin) == split.train.N
    assert [r.status for r in results[3:]] == ["ok", "ok", "ok"]


def test_sweep_rows_keep_scores_not_fits(small_synth, monkeypatch):
    split, trust, _ = small_synth
    fit = experiment.init_timeline
    fits = []

    def init_timeline(split, config):
        factors = fit(split, config)
        fits.append(weakref.ref(factors))
        return factors

    monkeypatch.setattr(experiment, "init_timeline", init_timeline)
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=30)
    results = sweep(split, trust, ks=[2, 3], lambdas=[0.01], config=config)
    gc.collect()
    assert len(fits) == 2 and all(ref() is None for ref in fits)
    assert all(r.factors is None and r.trace is None for r in results)
    assert all(r.status == "ok" and np.isfinite(r.rmse_weighted) for r in results)


def test_sweep_runs_each_distinct_cell_once(small_synth):
    split, trust, _ = small_synth
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=30)
    results = sweep(split, trust, ks=[2, 2], lambdas=[0.0, 0.01, 0.01], config=config)
    assert [(r.model, r.k, r.lam) for r in results] == [
        ("static", 2, None), ("dynamic", 2, 0.0), ("dynamic_social", 2, 0.01),
    ]


def test_sweep_threads_match_sequential(small_synth):
    split, trust, _ = small_synth
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=25)
    seq = sweep(split, trust, ks=[2], lambdas=[0.01], config=config, n_jobs=1)
    par = sweep(split, trust, ks=[2], lambdas=[0.01], config=config, n_jobs=3)
    assert [r.model for r in seq] == [r.model for r in par]
    for a, b in zip(seq, par):
        np.testing.assert_allclose(a.rmse_weighted, b.rmse_weighted, rtol=1e-12)


def test_sweep_csv_rows_carry_iterations(small_synth, tmp_path):
    split, trust, _ = small_synth
    csv_path = tmp_path / "sweep.csv"
    config = SmootherConfig(k=2, gamma=0.5, seed=0, max_iter=30)
    results = sweep(split, trust, ks=[2], lambdas=[0.01], config=config, csv_path=csv_path)
    with open(csv_path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    column = header.index("iterations")
    assert header[column - 1] == "wall_seconds" and header[column + 1] == "seed"
    assert [int(row[column]) for row in rows] == [r.iterations for r in results]
    assert any(r.iterations > 0 for r in results)


def test_write_results_csv_handles_nan(tmp_path):
    from socialdmf import ExperimentResult

    r = ExperimentResult(
        model="static", k=2, lam=None, rmse_per_bin=[float("nan")],
        rmse_weighted=float("nan"), wall_seconds=0.0, seed=0,
        status="error: boom",
    )
    path = tmp_path / "res.csv"
    write_results_csv(path, [r], N=1)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "static"
    assert rows[1][3] == "nan"
    assert rows[0][-1] == "rel_grad"
    assert rows[1][-2:] == ["error: boom", "nan"]


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
