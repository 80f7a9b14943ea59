"""Tour of the matrix-free smoothing operators on a tiny random instance.

Shows that the measurement and transition operators satisfy their adjoint
identities, that the analytic gradient agrees with central differences, and
that L-BFGS with exact steps drives the quadratic objective to its minimum
from a cold start, with and without the preconditioner that ``run_dynamic``
uses: per-user block-tridiagonal, plus a coarse all-users correction.
"""

import argparse

import numpy as np

from socialdmf import (
    apply_measurement,
    apply_measurement_adjoint,
    apply_process,
    apply_process_adjoint,
    finite_diff_check,
    lbfgs_minimize,
    objective_and_gradient,
    objective_terms,
    random_problem,
)
from socialdmf.smoother import block_preconditioner


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    problem = random_problem(
        m=12, n=9, k=2, N=4, p_per_bin=30, trust_edges=14, lam=0.05, seed=args.seed
    )
    rng = np.random.default_rng(args.seed)
    print(f"state size {problem.state_size}, observations {problem.total_observations()}")

    # <Hx, y> must equal <x, H'y>, and the same for the transition stack.
    x = rng.standard_normal(problem.state_size)
    y = rng.standard_normal(problem.total_observations())
    lhs = apply_measurement(problem, x) @ y
    rhs = x @ apply_measurement_adjoint(problem, y)
    print(f"measurement adjoint defect {abs(lhs - rhs) / abs(lhs):.2e}")
    z = rng.standard_normal(problem.state_size)
    lhs = apply_process(problem, x) @ z
    rhs = x @ apply_process_adjoint(problem, z)
    print(f"transition adjoint defect  {abs(lhs - rhs) / abs(lhs):.2e}")

    err = finite_diff_check(
        lambda v: objective_and_gradient(problem, v), x, step=1e-3, seed=args.seed
    )
    print(f"gradient vs central differences: {err:.2e}")

    def solve(memory, precondition=None):
        return lbfgs_minimize(
            lambda v: objective_and_gradient(problem, v),
            np.zeros(problem.state_size),
            memory=memory,
            max_iter=500,
            grad_tol=1e-7,
            precondition=precondition,
        )

    plain = solve(memory=15)
    # As run_dynamic solves: preconditioned, with one curvature pair (more
    # would not change a preconditioned exact-step solve).
    result = solve(memory=1, precondition=block_preconditioner(problem))
    print(f"optimizer: {result.status} after {result.iterations} iterations "
          f"preconditioned, {plain.iterations} without ({plain.status}), "
          f"f {result.trace[0][1]:.4f} -> {result.f:.6f}")
    meas, proc, social = objective_terms(problem, result.x)
    print(f"terms at the minimum: measurement {meas:.4f}, process {proc:.4f}, "
          f"social {social:.4f}")


if __name__ == "__main__":
    main()
