"""Dense reference implementations used to cross-check the matrix-free code.

Everything here is assembled as explicit (dense) matrices straight from the
block structure definitions, independently of the production operators, and
is only usable at tiny sizes.
"""

import numpy as np

from socialdmf import SmootherProblem


def dense_measurement(problem: SmootherProblem) -> np.ndarray:
    """The full measurement matrix H, one row per training observation.

    Built from the Kronecker identity: with row-major flattening of U,
    the prediction map of bin t is A_t (I_m (x) V_t') restricted to the
    position block.
    """
    m, n, k, N = problem.m, problem.n, problem.k, problem.N
    mk = m * k
    D = N * 2 * mk
    rows = []
    for t in range(N):
        users, items, _ = problem.train.bin(t)
        V = problem.factors[t].V
        full_map = np.kron(np.eye(m), V)  # (m*n, m*k) row-major cell order
        for u, i in zip(users, items):
            row = np.zeros(D)
            row[t * 2 * mk + mk : t * 2 * mk + 2 * mk] = full_map[u * n + i]
            rows.append(row)
    return np.asarray(rows)


def dense_transition(problem: SmootherProblem, dt: float = 1.0) -> np.ndarray:
    """One bin-to-bin transition block G (2mk x 2mk) for bins ``dt`` apart."""
    mk = problem.m * problem.k
    I = np.eye(mk)
    Z = np.zeros((mk, mk))
    return np.block([[I, Z], [dt * I, I]])


def dense_process(problem: SmootherProblem, dt: float = 1.0) -> np.ndarray:
    """The block lower-bidiagonal process matrix: identity diagonal, -G below."""
    mk = problem.m * problem.k
    D = problem.N * 2 * mk
    G = dense_transition(problem, dt)
    out = np.eye(D)
    for t in range(1, problem.N):
        r = t * 2 * mk
        c = (t - 1) * 2 * mk
        out[r : r + 2 * mk, c : c + 2 * mk] = -G
    return out


def process_noise_covariance(dt: float = 1.0) -> np.ndarray:
    """One bin's constant-velocity noise covariance q over (velocity, position)."""
    return np.array([[dt, dt**2 / 2.0], [dt**2 / 2.0, dt**3 / 3.0]])


def dense_qinv(problem: SmootherProblem, dt: float = 1.0) -> np.ndarray:
    """Block-diagonal inverse process covariance: q^-1 (x) I_mk per bin.

    q is inverted numerically, not taken from the production constant.
    """
    mk = problem.m * problem.k
    block = np.kron(np.linalg.inv(process_noise_covariance(dt)), np.eye(mk))
    out = np.zeros((problem.N * 2 * mk, problem.N * 2 * mk))
    for t in range(problem.N):
        out[t * 2 * mk : (t + 1) * 2 * mk, t * 2 * mk : (t + 1) * 2 * mk] = block
    return out


def dense_social(problem: SmootherProblem) -> np.ndarray:
    """Block-diagonal social matrix: zero on velocities, L_t (x) I_k on positions."""
    m, k, N = problem.m, problem.k, problem.N
    mk = m * k
    D = N * 2 * mk
    out = np.zeros((D, D))
    if problem.laplacians is None:
        return out
    for t, op in enumerate(problem.laplacians):
        L = np.diag(op.degrees) - op.adjacency.toarray()
        base = t * 2 * mk + mk
        out[base : base + mk, base : base + mk] = np.kron(L, np.eye(k))
    return out


def dense_anchor(problem: SmootherProblem) -> np.ndarray:
    """The anchor vector w: zero except bin 0's position block."""
    mk = problem.m * problem.k
    w = np.zeros(problem.N * 2 * mk)
    w[mk : 2 * mk] = problem.factors[0].U.ravel()
    return w


def dense_z(problem: SmootherProblem) -> np.ndarray:
    return np.concatenate([problem.train.bin(t)[2] for t in range(problem.N)])


def dense_objective(problem: SmootherProblem, x: np.ndarray) -> float:
    H = dense_measurement(problem)
    z = dense_z(problem)
    G = dense_process(problem)
    Qi = dense_qinv(problem)
    S = dense_social(problem)
    w = dense_anchor(problem)
    sigma2 = problem.config.sigma**2
    rm = H @ x - z
    rp = G @ x - w
    lam = problem.config.lam
    return (
        0.5 / sigma2 * float(rm @ rm)
        + 0.5 * float(rp @ (Qi @ rp))
        + 0.5 * lam * float(x @ (S @ x))
    )


def dense_gradient(problem: SmootherProblem, x: np.ndarray) -> np.ndarray:
    H = dense_measurement(problem)
    z = dense_z(problem)
    G = dense_process(problem)
    Qi = dense_qinv(problem)
    S = dense_social(problem)
    w = dense_anchor(problem)
    sigma2 = problem.config.sigma**2
    lam = problem.config.lam
    return (
        (1.0 / sigma2) * (H.T @ (H @ x - z))
        + G.T @ (Qi @ (G @ x - w))
        + lam * (S @ x)
    )


def normal_equations(problem: SmootherProblem, dt: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The dense Hessian ``A`` and right-hand side ``b``, for bins ``dt`` apart.

    The objective is ``x'Ax / 2 - b'x`` plus a constant.
    """
    H = dense_measurement(problem)
    z = dense_z(problem)
    G = dense_process(problem, dt)
    Qi = dense_qinv(problem, dt)
    S = dense_social(problem)
    w = dense_anchor(problem)
    sigma2 = problem.config.sigma**2
    lam = problem.config.lam
    A = (1.0 / sigma2) * (H.T @ H) + G.T @ Qi @ G + lam * S
    b = (1.0 / sigma2) * (H.T @ z) + G.T @ (Qi @ w)
    return A, b


def normal_equations_solution(problem: SmootherProblem, dt: float = 1.0) -> np.ndarray:
    """The exact minimizer from the dense normal equations, for bins ``dt`` apart."""
    return np.linalg.solve(*normal_equations(problem, dt))


def edge_sum_quadratic(W_dense: np.ndarray, U: np.ndarray) -> float:
    """tr(U' L U) accumulated over explicit edge pairs, for cross-checking."""
    m = W_dense.shape[0]
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            if W_dense[i, j]:
                d = U[i] - U[j]
                total += W_dense[i, j] * float(d @ d)
    return total
