import inspect

import numpy as np
import pytest

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
    lbfgs_minimize,
    objective,
    objective_and_gradient,
    objective_terms,
    random_problem,
)
from socialdmf import smoother
from socialdmf.smoother import block_preconditioner

import oracles


def tiny_problem(seed=0, lam=0.01, sigma=1.0, m=5, n=4, k=2, N=3, p=6):
    return random_problem(
        m=m, n=n, k=k, N=N, p_per_bin=p, trust_edges=4, lam=lam,
        seed=seed, sigma=sigma,
    )


def _edge_case_problem(case, seed, lam, sigma, dt=1.0):
    """A tiny problem, optionally edited into one of the edge cases.

    Bins ``dt`` apart are taken as the unit-spacing problem at
    ``sigma * dt**-1.5`` and ``lam * dt**3``, which has the same positions
    (``test_a_spacing_is_a_rescaling_of_sigma_and_lambda``).
    """
    problem = tiny_problem(seed=seed, lam=lam * dt**3, sigma=sigma * dt**-1.5, N=1 if case == "N=1" else 3)
    bins = [problem.train.bin(t) for t in range(problem.N)]
    laplacians = problem.laplacians
    if case == "empty bin":
        bins[1] = ([], [], [])
    elif case == "unrated user":
        bins = [tuple(a[users != 0] for a in (users, items, values)) for users, items, values in bins]
    elif case == "edgeless bin":
        # The same edges, created in bin 1 instead of bin 0.
        last = laplacians[-1]
        laplacians = build_timeline_laplacians(
            TrustTimeline(problem.m, problem.N, last.rows, last.cols, np.ones_like(last.rows))
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
    assert objective_terms(problem, x)[0] == 0.5 / problem.config.sigma**2 * float(r @ r)
    np.testing.assert_array_equal(problem.H.toarray(), oracles.dense_measurement(problem))


PRECONDITIONER_CASES = [
    pytest.param(0.0, 1.0, None, id="lam0-dt1"),
    pytest.param(0.0, 2.0, None, id="lam0-dt2"),
    pytest.param(0.3, 1.0, None, id="lam0.3-dt1"),
    pytest.param(0.3, 2.0, None, id="lam0.3-dt2"),
    pytest.param(0.3, 1.0, "N=1", id="N=1"),
    pytest.param(0.3, 1.0, "empty bin", id="empty-bin"),
    pytest.param(0.3, 1.0, "unrated user", id="unrated-user"),
    pytest.param(0.0, 2.0, "unrated user", id="unrated-user-lam0"),
]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("lam,dt,case", PRECONDITIONER_CASES)
def test_preconditioner_inverts_the_hessian_without_adjacency(seed, lam, dt, case):
    problem = _edge_case_problem(case, seed, lam, 0.7, dt)
    sigma, lam = problem.config.sigma, problem.config.lam
    H = oracles.dense_measurement(problem)
    G = oracles.dense_process(problem)
    S = oracles.dense_social(problem)
    A = H.T @ H / sigma**2 + G.T @ oracles.dense_qinv(problem) @ G + lam * S
    # The social matrix is kron(D - W, I_k) on positions; keep only its diagonal D.
    P = A - lam * S + lam * np.diag(np.diag(S))
    # The coarse term reads only Z' r, the per-(bin, velocity/position,
    # coordinate) sum over users, so on residuals with Z' r = 0 the operator
    # is inv(P) alone. Q projects onto them (Z' Z = m I).
    Z = np.kron(np.eye(2 * problem.N), np.kron(np.ones((problem.m, 1)), np.eye(problem.k)))
    Q = np.eye(problem.state_size) - Z @ Z.T / problem.m
    apply = block_preconditioner(problem)
    P_inv_Q = np.column_stack([apply(q) for q in Q.T])
    expected = np.linalg.inv(P) @ Q
    # The inverse blocks are stored in float32.
    np.testing.assert_allclose(P_inv_Q, expected, rtol=1e-5, atol=1e-5 * np.abs(expected).max())


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_spd_inverse_matches_a_general_inverse(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((2, 3, n, n))
    S = A @ np.swapaxes(A, -1, -2) + n * np.eye(n)
    expected = np.linalg.inv(S)
    np.testing.assert_allclose(smoother._spd_inverse(S), expected, rtol=0, atol=1e-14 * np.abs(expected).max())


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "lam,dt,case",
    [*PRECONDITIONER_CASES, pytest.param(0.3, 1.0, "edgeless bin", id="edgeless-bin")],
)
def test_coarse_correction_adds_the_all_users_mode(seed, lam, dt, case):
    problem = _edge_case_problem(case, seed, lam, 0.7, dt)
    sigma, lam = problem.config.sigma, problem.config.lam
    H = oracles.dense_measurement(problem)
    G = oracles.dense_process(problem)
    S = oracles.dense_social(problem)
    A = H.T @ H / sigma**2 + G.T @ oracles.dense_qinv(problem) @ G + lam * S
    # The social matrix is kron(D - W, I_k) on positions; P keeps only its diagonal D.
    P = A - lam * S + lam * np.diag(np.diag(S))
    # One column per (bin, velocity/position, coordinate), equal for every
    # user. At lam = 0, P = A and E = E_P, so the operator must be inv(P).
    Z = np.kron(np.eye(2 * problem.N), np.kron(np.ones((problem.m, 1)), np.eye(problem.k)))
    E, E_P = Z.T @ A @ Z, Z.T @ P @ Z
    expected = np.linalg.inv(P) + Z @ (np.linalg.inv(E) - np.linalg.inv(E_P)) @ Z.T
    apply = block_preconditioner(problem)
    M = np.column_stack([apply(e) for e in np.eye(problem.state_size)])
    # P's inverse blocks are stored in float32.
    atol = 1e-5 * np.abs(expected).max()
    np.testing.assert_allclose(M, expected, rtol=1e-5, atol=atol)
    np.testing.assert_allclose(M, M.T, rtol=0, atol=atol)
    assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0


def _inverse_stack(apply):
    """The (N, m, 2k, 2k) float32 stack a preconditioner apply reads."""
    solve = inspect.getclosurevars(apply).nonlocals["solve"]
    return inspect.getclosurevars(solve).nonlocals["inverses"]


def _build_in_chunks(monkeypatch, problem, chunk):
    monkeypatch.setattr(smoother, "PRECONDITIONER_CHUNK", chunk)
    return block_preconditioner(problem)


def _assert_same_operator(apply, reference, vectors):
    np.testing.assert_array_equal(_inverse_stack(apply), _inverse_stack(reference))
    for v in vectors:
        np.testing.assert_array_equal(apply(v), reference(v))


@pytest.mark.parametrize(
    "lam,dt,case",
    [*PRECONDITIONER_CASES, pytest.param(0.3, 1.0, "edgeless bin", id="edgeless-bin")],
)
def test_chunked_preconditioner_is_bit_identical_to_one_chunk(three_cpus, monkeypatch, lam, dt, case):
    problem = _edge_case_problem(case, 0, lam, 0.7, dt)
    whole = _build_in_chunks(monkeypatch, problem, problem.m)
    # m = 5 users in chunks of at most 3: one of 2 users and one of 3.
    chunked = _build_in_chunks(monkeypatch, problem, 3)
    _assert_same_operator(chunked, whole, np.eye(problem.state_size))


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("m", [100, 300], ids=["m-below-chunk", "m-not-a-multiple"])
def test_default_chunks_are_bit_identical_to_one_chunk(three_cpus, monkeypatch, lam, m):
    base = random_problem(m=m, n=40, k=3, N=4, p_per_bin=4 * m, trust_edges=3 * m, lam=lam, seed=m)
    # Ratings given in no particular order: the timeline stores each bin in
    # (user, item) order, so the build reads one slice per chunk.
    rng = np.random.default_rng(m)
    bins = []
    for t in range(base.N):
        order = rng.permutation(base.train.p(t))
        bins.append(tuple(a[order] for a in base.train.bin(t)))
    train = RatingsTimeline(base.m, base.n, bins)
    problem = SmootherProblem(train, base.factors, base.laplacians, base.config)
    assert smoother.PRECONDITIONER_CHUNK == 128
    default = block_preconditioner(problem)
    whole = _build_in_chunks(monkeypatch, problem, m)
    odd = _build_in_chunks(monkeypatch, problem, 7)
    vectors = np.random.default_rng(7).standard_normal((3, problem.state_size))
    _assert_same_operator(default, whole, vectors)
    _assert_same_operator(odd, whole, vectors)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("lam,dt,case", PRECONDITIONER_CASES)
def test_preconditioned_lbfgs_reaches_normal_equations_solution(seed, lam, dt, case):
    problem = _edge_case_problem(case, seed, lam, 0.7, dt)
    x_star = oracles.normal_equations_solution(problem)
    f_star = oracles.dense_objective(problem, x_star)
    # 1e-10 is far below what the objective gap needs; the solve must still
    # report convergence.
    precondition = block_preconditioner(problem)
    for grad_tol in (1e-6, 1e-10):
        result = lbfgs_minimize(
            lambda x: objective_and_gradient(problem, x),
            np.zeros(problem.state_size),
            grad_tol=grad_tol,
            precondition=precondition,
        )
        assert result.status == "converged", grad_tol
        assert abs(objective(problem, result.x) - f_star) <= 1e-8
        # The solver updates the gradient recursively; a fresh one must agree.
        fresh = np.linalg.norm(objective_and_gradient(problem, result.x)[1])
        assert fresh / max(1.0, np.linalg.norm(result.x)) <= grad_tol
        if lam == 0 and grad_tol == 1e-6:
            assert result.iterations <= 2


@pytest.mark.parametrize("dt", [0.5, 2.0, 3.7])
def test_a_spacing_is_a_rescaling_of_sigma_and_lambda(dt):
    # Bins dt apart scale the process covariance to dt**3 D q D, D =
    # diag(1/dt, 1), so with velocities counted per bin (times dt) the prior
    # is the unit-spacing one over dt**3: the same positions as
    # sigma * dt**-1.5 and lam * dt**3 at unit spacing.
    sigma, lam = 0.7, 0.3
    spaced = tiny_problem(seed=0, lam=lam, sigma=sigma)
    expected = oracles.normal_equations_solution(spaced, dt)
    problem = tiny_problem(seed=0, lam=lam * dt**3, sigma=sigma * dt**-1.5)
    result = lbfgs_minimize(
        lambda x: objective_and_gradient(problem, x),
        np.zeros(problem.state_size),
        grad_tol=1e-10,
        precondition=block_preconditioner(problem),
    )
    assert result.status == "converged"
    velocities, positions = result.x.reshape(problem.N, 2, -1).transpose(1, 0, 2)
    expected_velocities, expected_positions = expected.reshape(problem.N, 2, -1).transpose(1, 0, 2)
    np.testing.assert_allclose(positions, expected_positions, rtol=0, atol=1e-9)
    np.testing.assert_allclose(velocities, dt * expected_velocities, rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "lam,dt,case",
    [*PRECONDITIONER_CASES, pytest.param(0.3, 1.0, "edgeless bin", id="edgeless-bin")],
)
def test_preconditioned_solve_is_pcg(seed, lam, dt, case):
    # With a fixed preconditioner and exact steps, one-pair L-BFGS is
    # preconditioned CG: run the textbook recurrence on the dense normal
    # equations for as many iterations and compare the iterates.
    problem = _edge_case_problem(case, seed, lam, 0.7, dt)
    precondition = block_preconditioner(problem)
    A, b = oracles.normal_equations(problem)
    for grad_tol in (1e-6, 1e-10):
        result = lbfgs_minimize(
            lambda x: objective_and_gradient(problem, x),
            np.zeros(problem.state_size),
            grad_tol=grad_tol,
            precondition=precondition,
        )
        x = np.zeros(problem.state_size)
        r = b.copy()
        z = precondition(r)
        p = z
        rz = r @ z
        for _ in range(result.iterations):
            Ap = A @ p
            alpha = rz / (p @ Ap)
            x += alpha * p
            r -= alpha * Ap
            z = precondition(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        assert np.linalg.norm(result.x - x) <= 1e-12 * np.linalg.norm(x), grad_tol


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
    # For bins dt apart the oracle counts velocities per time unit; scaling
    # them by dt (D below) gives the unit-spacing operators: D G D^-1 and
    # dt**3 D^-1 Qi D^-1.
    problem = tiny_problem(seed=seed)
    mk = problem.m * problem.k
    d = np.tile(np.r_[np.full(mk, dt), np.ones(mk)], problem.N)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(problem.state_size)
    G = oracles.dense_process(problem, dt)
    np.testing.assert_allclose(apply_process(problem, d * x), d * (G @ x), rtol=1e-12, atol=1e-12)
    r = rng.standard_normal(problem.state_size)
    np.testing.assert_allclose(apply_process_adjoint(problem, r), (G.T @ (d * r)) / d, rtol=1e-12, atol=1e-12)
    Qi = oracles.dense_qinv(problem, dt)
    np.testing.assert_allclose(apply_qinv(problem, r), dt**3 * (Qi @ (r / d)) / d, rtol=1e-12, atol=1e-12)


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
    a, b = rng.integers(0, problem.m, (2, 6))
    keep = a != b
    return TrustTimeline(problem.m, problem.N, a[keep], b[keep], np.zeros(keep.sum(), np.int64))


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
