import numpy as np
import pytest
import scipy.sparse as sp

from socialdmf import (
    FactorPair,
    FactorTimeline,
    NumericalError,
    RatingsTimeline,
    SmootherConfig,
    SmootherProblem,
    SmootherState,
    TrustTimeline,
    build_timeline_laplacians,
    apply_measurement,
    apply_measurement_adjoint,
    apply_process,
    apply_process_adjoint,
    apply_qinv,
    gradient,
    laplacian_quadratic,
    objective,
    objective_and_gradient,
    objective_terms,
    random_problem,
)

import oracles


def tiny_problem(seed=0, lam=0.01, sigma=1.0, dt=1.0, m=5, n=4, k=2, N=3, p=6):
    return random_problem(
        m=m, n=n, k=k, N=N, p_per_bin=p, trust_edges=4, lam=lam,
        seed=seed, sigma=sigma, dt=dt,
    )


def _edge_case_problem(case, seed, lam, sigma, dt):
    """A tiny problem, optionally edited into one of the edge cases."""
    problem = tiny_problem(seed=seed, lam=lam, sigma=sigma, dt=dt, N=1 if case == "N=1" else 3)
    bins = [problem.train.bin(t) for t in range(problem.N)]
    laplacians = problem.laplacians
    if case == "empty bin":
        bins[1] = ([], [], [])
    elif case == "unrated user":
        bins = [tuple(a[users != 0] for a in (users, items, values)) for users, items, values in bins]
    elif case == "edgeless bin":
        later = [op.adjacency for op in laplacians[1:]]
        laplacians = build_timeline_laplacians(
            TrustTimeline(problem.m, [sp.csr_matrix((problem.m, problem.m))] + later)
        )
    train = RatingsTimeline(problem.m, problem.n, bins)
    return SmootherProblem(train, problem.factors, laplacians, problem.config)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "lam,sigma,dt,case",
    [
        pytest.param(0.0, 1.0, 1.0, None, id="0.0-1.0-1.0"),
        pytest.param(0.05, 0.7, 1.0, None, id="0.05-0.7-1.0"),
        pytest.param(1.0, 1.0, 2.0, None, id="1.0-1.0-2.0"),
        pytest.param(0.05, 0.7, 1.0, "N=1", id="N=1"),
        pytest.param(0.05, 0.7, 1.0, "empty bin", id="empty-bin"),
        pytest.param(0.05, 0.7, 1.0, "unrated user", id="unrated-user"),
        pytest.param(0.3, 1.0, 1.0, "edgeless bin", id="edgeless-bin"),
    ],
)
def test_objective_and_gradient_match_dense(seed, lam, sigma, dt, case):
    problem = _edge_case_problem(case, seed, lam, sigma, dt)
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal(problem.state_size)
    f = objective(problem, x)
    g = gradient(problem, x)
    f_dense = oracles.dense_objective(problem, x)
    g_dense = oracles.dense_gradient(problem, x)
    np.testing.assert_allclose(f, f_dense, rtol=1e-10)
    np.testing.assert_allclose(g, g_dense, rtol=1e-10, atol=1e-10 * max(1.0, np.abs(g_dense).max()))
    r = apply_measurement(problem, x) - oracles.dense_z(problem)
    assert objective_terms(problem, x)[0] == 0.5 / sigma**2 * float(r @ r)


def test_fused_call_is_bit_identical_to_separate_calls():
    problem = tiny_problem(seed=3, lam=0.2)
    x = np.random.default_rng(5).standard_normal(problem.state_size)
    f, g = objective_and_gradient(problem, x)
    assert f == objective(problem, x)
    np.testing.assert_array_equal(g, gradient(problem, x))


@pytest.mark.parametrize("seed", range(3))
def test_measurement_matches_dense(seed):
    problem = tiny_problem(seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(problem.state_size)
    H = oracles.dense_measurement(problem)
    np.testing.assert_allclose(apply_measurement(problem, x), H @ x, rtol=1e-12, atol=1e-12)
    r = rng.standard_normal(H.shape[0])
    np.testing.assert_allclose(apply_measurement_adjoint(problem, r), H.T @ r, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dt", [1.0, 0.5])
def test_process_matches_dense(seed, dt):
    problem = tiny_problem(seed=seed, dt=dt)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(problem.state_size)
    G = oracles.dense_process(problem)
    np.testing.assert_allclose(apply_process(problem, x), G @ x, rtol=1e-12, atol=1e-12)
    r = rng.standard_normal(problem.state_size)
    np.testing.assert_allclose(apply_process_adjoint(problem, r), G.T @ r, rtol=1e-12, atol=1e-12)
    Qi = oracles.dense_qinv(problem)
    np.testing.assert_allclose(apply_qinv(problem, r), Qi @ r, rtol=1e-12, atol=1e-12)


def test_measurement_never_builds_the_dense_grid():
    # Complexity contract probed indirectly: a bin with one observation
    # should touch only that row pair, so a huge grid stays cheap.
    problem = random_problem(m=500, n=400, k=3, N=2, p_per_bin=5, trust_edges=0, lam=0.0, seed=1)
    x = np.random.default_rng(2).standard_normal(problem.state_size)
    out = apply_measurement(problem, x)
    assert out.shape == (10,)


@pytest.mark.parametrize("seed", range(10))
def test_adjoint_identities(seed):
    """<H x, y> == <x, H* y> and <G x, y> == <x, G' y> on random vectors."""
    problem = tiny_problem(seed=seed, lam=0.3)
    rng = np.random.default_rng(1000 + seed)
    x = rng.standard_normal(problem.state_size)
    y_obs = rng.standard_normal(problem.total_observations())
    lhs = float(apply_measurement(problem, x) @ y_obs)
    rhs = float(x @ apply_measurement_adjoint(problem, y_obs))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    y = rng.standard_normal(problem.state_size)
    lhs = float(apply_process(problem, x) @ y)
    rhs = float(x @ apply_process_adjoint(problem, y))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_objective_terms_nonnegative_and_named():
    problem = tiny_problem(seed=2, lam=0.5)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.standard_normal(problem.state_size) * rng.uniform(0.1, 10)
        meas, proc, social = objective_terms(problem, x)
        assert meas >= 0.0 and proc >= 0.0 and social >= 0.0
        assert objective(problem, x) == meas + proc + social


def test_social_term_scales_exactly_with_lambda():
    base = tiny_problem(seed=4, lam=0.0)
    lam = 0.37
    trust = _trust_from_problem(base)
    laplacians = build_timeline_laplacians(trust)
    # The timeline owns its operators: every call hands out the same objects.
    assert len(laplacians) == trust.N
    assert all(a is b for a, b in zip(laplacians, trust.laplacians))
    assert all(a is b for a, b in zip(laplacians, build_timeline_laplacians(trust)))
    social_problem = SmootherProblem(
        base.train, base.factors, laplacians,
        SmootherConfig(k=base.k, lam=lam, sigma=base.config.sigma, seed=0),
        x0_position=base.x0_position,
    )
    x = np.random.default_rng(8).standard_normal(base.state_size)
    state = SmootherState(x=x, N=base.N, m=base.m, k=base.k)
    quad = sum(
        laplacian_quadratic(op, state.position(t))
        for t, op in enumerate(social_problem.laplacians)
    )
    _, _, social = objective_terms(social_problem, x)
    assert social == 0.5 * lam * quad
    # Composite difference agrees to rounding: the two problems share every
    # other term bit for bit.
    f_lam = objective(social_problem, x)
    f_zero = objective(base, x)
    np.testing.assert_allclose(f_lam - f_zero, social, rtol=1e-12, atol=1e-12)


def _trust_from_problem(problem):
    """Rebuild a trust timeline matching the problem's user count."""
    rng = np.random.default_rng(77)
    m = problem.m
    W = np.zeros((m, m))
    for _ in range(6):
        a, b = rng.integers(0, m, 2)
        if a != b:
            W[a, b] = W[b, a] = 1.0
    return TrustTimeline(m, [sp.csr_matrix(W)] * problem.N)


def test_empty_train_bin_contributes_nothing_to_measurement():
    rng = np.random.default_rng(0)
    m, n, k = 4, 3, 2
    train = RatingsTimeline(m, n, [
        ([0, 1], [0, 2], [3.0, 4.0]),
        ([], [], []),
        ([2], [1], [2.0]),
    ])
    factors = FactorTimeline([
        FactorPair(U=rng.standard_normal((m, k)), V=rng.standard_normal((n, k)))
        for _ in range(3)
    ])
    problem = SmootherProblem(train, factors, None, SmootherConfig(k=k))
    x = rng.standard_normal(problem.state_size)
    assert apply_measurement(problem, x).shape == (3,)
    meas, proc, social = objective_terms(problem, x)
    assert social == 0.0
    assert meas > 0.0 and proc > 0.0


def test_anchor_defaults_to_first_bin_static_positions():
    problem = tiny_problem(seed=6)
    np.testing.assert_array_equal(problem.x0_position, problem.factors[0].U)
    # At x = (zero velocities, static positions), bin 0's process residual
    # vanishes, so the process term only sees later transitions.
    layout = dict(N=problem.N, m=problem.m, k=problem.k)
    x = SmootherState(x=np.zeros(problem.state_size), **layout)
    x.blocks[:, 1] = [pair.U for pair in problem.factors]
    rp = SmootherState(x=apply_process(problem, x.x), **layout)
    rp.blocks[0, 1] -= problem.x0_position
    np.testing.assert_allclose(rp.blocks[0], 0.0, atol=1e-14)


def test_non_finite_state_raises_named_error():
    problem = tiny_problem(seed=1)
    x = np.zeros(problem.state_size)
    x[0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="process term"):
            objective(problem, x)


def test_dimension_mismatches_rejected():
    problem = tiny_problem(seed=0)
    with pytest.raises(ValueError):
        objective(problem, np.zeros(problem.state_size + 1))
    with pytest.raises(ValueError):
        apply_measurement_adjoint(problem, np.zeros(problem.total_observations() + 2))


def test_lam_without_laplacians_rejected():
    base = tiny_problem(seed=0, lam=0.0)
    with pytest.raises(ValueError, match="Laplacians"):
        SmootherProblem(base.train, base.factors, None, SmootherConfig(k=base.k, lam=0.1))
