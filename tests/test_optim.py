import csv
import weakref

import numpy as np
import pytest

from socialdmf import (
    NumericalError,
    finite_diff_check,
    lbfgs_minimize,
    write_trace,
)
from socialdmf.optim import FD_DIRECTIONS


def quadratic_problem(d, seed, cond=50.0):
    """A positive definite quadratic 1/2 x'Ax - b'x with known minimizer."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d))
    Q, _ = np.linalg.qr(M)
    eigs = np.linspace(1.0, cond, d)
    A = (Q * eigs) @ Q.T
    b = rng.standard_normal(d)
    x_star = np.linalg.solve(A, b)

    def evaluate(x):
        Ax = A @ x
        return 0.5 * float(x @ Ax) - float(b @ x), Ax - b

    return evaluate, x_star, A, b


@pytest.mark.parametrize("d", [2, 5, 20])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quadratic_converges_to_solver_solution(d, seed):
    evaluate, x_star, _, _ = quadratic_problem(d, seed)
    result = lbfgs_minimize(evaluate, np.zeros(d), max_iter=4 * d + 10, grad_tol=1e-6)
    assert result.converged
    np.testing.assert_allclose(result.x, x_star, rtol=1e-4, atol=1e-5)


def test_matches_normal_equations_tightly():
    evaluate, x_star, A, b = quadratic_problem(30, seed=7, cond=200.0)
    result = lbfgs_minimize(evaluate, np.zeros(30), max_iter=500, grad_tol=1e-9)
    assert result.converged
    assert result.n_evaluations == result.iterations + 1
    f_opt = 0.5 * float(result.x @ (A @ result.x)) - float(b @ result.x)
    f_star = 0.5 * float(x_star @ (A @ x_star)) - float(b @ x_star)
    assert f_opt - f_star <= 1e-8 * max(1.0, abs(f_star))


def test_trace_objective_strictly_decreases():
    evaluate, _, _, _ = quadratic_problem(10, seed=3)
    result = lbfgs_minimize(evaluate, np.ones(10), max_iter=100, grad_tol=1e-10)
    values = [row[1] for row in result.trace]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert result.trace[0][0] == 0 and result.trace[0][3] == 0.0
    assert result.trace[-1][0] == result.iterations


def test_exact_inverse_hessian_preconditioner_converges_in_one_iteration():
    evaluate, x_star, A, _ = quadratic_problem(20, seed=5, cond=1e4)
    result = lbfgs_minimize(
        evaluate, np.zeros(20), precondition=lambda v: np.linalg.solve(A, v)
    )
    assert result.converged
    assert result.iterations == 1
    assert result.trace[1][3] == pytest.approx(1.0, abs=1e-12)  # the exact step is 1
    np.testing.assert_allclose(result.x, x_star, rtol=1e-8, atol=1e-10)


def test_diagonal_preconditioner_cuts_iterations_on_a_badly_scaled_quadratic():
    _, _, C, b = quadratic_problem(40, seed=6, cond=4.0)
    scale = np.logspace(0, 1.5, 40)
    A = scale[:, None] * C * scale[None, :]  # badly conditioned only through the scaling

    def evaluate(x):
        Ax = A @ x
        return 0.5 * float(x @ Ax) - float(b @ x), Ax - b

    diagonal = np.diag(A).copy()
    plain = lbfgs_minimize(evaluate, np.zeros(40), max_iter=2000)
    jacobi = lbfgs_minimize(
        evaluate, np.zeros(40), max_iter=2000,
        precondition=lambda v: v / diagonal,
    )
    assert plain.converged and jacobi.converged
    assert jacobi.iterations < plain.iterations
    np.testing.assert_allclose(jacobi.x, np.linalg.solve(A, b), rtol=1e-4, atol=1e-6)


def test_evaluation_sees_no_curvature_pair():
    # The preconditioner's output becomes the iteration's direction and then
    # the step s of its curvature pair, so a weak reference to it shows
    # whether that pair is still held when a later evaluation runs.
    evaluate, x_star, A, _ = quadratic_problem(30, seed=8, cond=1e3)
    diagonal = np.diag(A).copy()
    steps = []
    held = []

    def precondition(v):
        out = v / diagonal
        steps.append(weakref.ref(out))
        return out

    def counting(x):
        held.append(sum(ref() is not None for ref in steps[:-1]))
        return evaluate(x)

    result = lbfgs_minimize(counting, np.zeros(30), max_iter=200,
                            grad_tol=1e-10, precondition=precondition)
    assert result.converged and result.iterations > 2
    assert max(held) == 0
    np.testing.assert_allclose(result.x, x_star, rtol=1e-6, atol=1e-8)


def test_zero_curvature_raises():
    def evaluate(x):
        return float(x[0]), np.array([1.0])

    with pytest.raises(NumericalError):
        lbfgs_minimize(evaluate, np.zeros(1), max_iter=50)


def test_starting_at_minimum_returns_immediately():
    evaluate, x_star, _, _ = quadratic_problem(6, seed=4)
    result = lbfgs_minimize(evaluate, x_star, max_iter=10, grad_tol=1e-8)
    assert result.converged
    assert result.iterations == 0
    assert result.n_evaluations == 1


def test_non_finite_objective_raises():
    def evaluate(x):
        return np.nan, np.zeros_like(x)

    with pytest.raises(NumericalError):
        lbfgs_minimize(evaluate, np.zeros(3))


def test_parameter_validation():
    evaluate = lambda x: (float(x @ x), 2 * x)
    with pytest.raises(ValueError):
        lbfgs_minimize(evaluate, np.zeros(2), grad_tol=np.inf)
    with pytest.raises(ValueError):
        lbfgs_minimize(evaluate, np.zeros(2), max_iter=0)
    with pytest.raises(ValueError):
        lbfgs_minimize(evaluate, np.zeros(2), grad_tol=0.0)
    with pytest.raises(ValueError):
        lbfgs_minimize(evaluate, np.zeros((2, 2)))


def test_trace_csv_round_trip(tmp_path):
    evaluate, _, _, _ = quadratic_problem(5, seed=9)
    path = tmp_path / "trace.csv"
    result = lbfgs_minimize(evaluate, np.ones(5), grad_tol=1e-9)
    write_trace(path, result.trace)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "f", "grad_norm", "step"]
    assert len(rows) == len(result.trace) + 1
    for row, (it, f, gn, step) in zip(rows[1:], result.trace):
        assert int(row[0]) == it
        assert float(row[1]) == f
        assert float(row[2]) == gn
        assert float(row[3]) == step


def test_write_trace_standalone(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(path, [(0, 1.5, 0.25, 0.0), (1, 0.75, 0.125, 1.0)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert float(rows[2][1]) == 0.75


# ---------------------------------------------------------------------------
# finite_diff_check


def test_gradient_check_accepts_exact_quadratic():
    evaluate, _, _, _ = quadratic_problem(12, seed=5)
    x = np.random.default_rng(6).standard_normal(12)
    # Central differences are exact on a quadratic up to roundoff, which
    # scales like eps * |f| / step.
    err = finite_diff_check(evaluate, x, step=1e-4)
    assert err <= 1e-9


def test_gradient_check_flags_corrupted_coordinate():
    evaluate, _, _, _ = quadratic_problem(8, seed=2)

    def corrupted(x):
        f, g = evaluate(x)
        g = g.copy()
        j = int(np.argmax(np.abs(g)))
        g[j] *= 2.0
        return f, g

    x = np.random.default_rng(3).standard_normal(8)
    err = finite_diff_check(corrupted, x, step=1e-5)
    assert err > 1e-2


@pytest.mark.parametrize("n_directions", [FD_DIRECTIONS])
def test_gradient_check_uses_directions_for_large_states(n_directions):
    d = 10_001
    calls = {"n": 0}

    def evaluate(x):
        calls["n"] += 1
        return 0.5 * float(x @ x), x

    x = np.random.default_rng(1).standard_normal(d)
    err = finite_diff_check(evaluate, x, step=1e-4, seed=0)
    assert err <= 1e-6
    # 1 analytic call plus two per direction: far fewer than 2d.
    assert calls["n"] == 1 + 2 * n_directions


def test_gradient_check_rejects_bad_step():
    evaluate = lambda x: (float(x @ x), 2 * x)
    with pytest.raises(ValueError):
        finite_diff_check(evaluate, np.zeros(3), step=0.0)
