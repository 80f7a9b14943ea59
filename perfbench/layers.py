"""Per-module metrics: span aggregates, operator microtimings, computed costs.

Each per-module metric is derived from the spans of one traced pass, from
microtimings of single operator calls on the workload's own
``SmootherProblem``, or computed from the problem's shape. Computed values
carry ``computed`` in their name: they are counts of arithmetic and memory
traffic the operators must do, not measurements.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from socialdmf import domain, laplacian, smoother

from .tracing import Tracer

OPERATOR_REPS = 7


def _total(tracer: Tracer, run_id: str, *names: str) -> float:
    return sum(s.duration for name in names for s in tracer.select(run_id, name))


def _calls(tracer: Tracer, run_id: str, name: str) -> int:
    return len(tracer.select(run_id, name))


def _attr_sum(tracer: Tracer, run_id: str, name: str, attr: str) -> int:
    return sum(s.attrs[attr] for s in tracer.select(run_id, name))


def span_metrics(tracer: Tracer, run_id: str, setup_run_ids: list[str]) -> dict[str, float]:
    """Per-module totals over one traced pass (``run_id``)."""
    fg = tracer.select(run_id, "smoother.fg")
    lbfgs = tracer.select(run_id, "optim.lbfgs")
    iterations = sum(s.attrs["iterations"] for s in lbfgs)
    evaluations = sum(s.attrs["evaluations"] for s in lbfgs)
    synth = [s.duration for rid in setup_run_ids for s in tracer.select(rid, "experiment.synth")]
    return {
        "factorize.bin_s": _total(tracer, run_id, "factorize.bin"),
        "factorize.halfsteps": _attr_sum(tracer, run_id, "factorize.bin", "halfsteps"),
        "factorize.align_s": _total(tracer, run_id, "factorize.align"),
        "factorize.save_s": _total(tracer, run_id, "factorize.save"),
        "factorize.load_s": _total(tracer, run_id, "factorize.load"),
        "smoother.problem_build_s": _total(tracer, run_id, "smoother.problem_build"),
        "smoother.fg_calls": len(fg),
        "smoother.fg_s": sum(s.duration for s in fg),
        "smoother.fg_self_s": sum(s.self_time for s in fg),
        "smoother.process_s": _total(
            tracer, run_id, "smoother.process", "smoother.process_adjoint", "smoother.qinv"
        ),
        "laplacian.build_s": _total(tracer, run_id, "laplacian.build"),
        "laplacian.apply_calls": _calls(tracer, run_id, "laplacian.apply"),
        "laplacian.apply_s": _total(tracer, run_id, "laplacian.apply"),
        "laplacian.quadratic_calls": _calls(tracer, run_id, "laplacian.quadratic"),
        "laplacian.quadratic_s": _total(tracer, run_id, "laplacian.quadratic"),
        "optim.iterations": iterations,
        "optim.evaluations": evaluations,
        "optim.evals_per_iteration": evaluations / iterations if iterations else 0.0,
        "optim.self_s": sum(s.self_time for s in lbfgs),
        "optim.max_iter_hits": sum(s.attrs["status"] == "max_iter" for s in lbfgs),
        # The two-loop recursion keeps `memory` (s, y) pairs of state vectors.
        "optim.memory_bytes_computed": max(
            (2 * s.attrs["memory"] * s.attrs["state_size"] * 8 for s in lbfgs), default=0
        ),
        "ingest.parse_ratings_s": _total(tracer, run_id, "ingest.parse_ratings"),
        "ingest.parse_trust_s": _total(tracer, run_id, "ingest.parse_trust"),
        "ingest.filter_s": _total(tracer, run_id, "ingest.filter"),
        "ingest.bin_s": _total(tracer, run_id, "ingest.bin"),
        "ingest.save_dataset_s": _total(tracer, run_id, "ingest.save_dataset"),
        "ingest.load_dataset_s": _total(tracer, run_id, "ingest.load_dataset"),
        "ingest.split_s": _total(tracer, run_id, "ingest.split"),
        "experiment.synth_s": statistics.median(synth) if synth else 0.0,
        "experiment.evaluate_rmse_s": _total(tracer, run_id, "experiment.evaluate_rmse"),
    }


def probe_problem(train, factors, trust, lam: float, seed: int) -> smoother.SmootherProblem:
    config = domain.SmootherConfig(k=factors.k, lam=lam, seed=seed)
    return smoother.SmootherProblem(train, factors, laplacian.build_timeline_laplacians(trust), config)


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def operator_metrics(problem: smoother.SmootherProblem, seed: int, reps: int = OPERATOR_REPS) -> dict[str, float]:
    """Median single-call time of each smoother operator, in milliseconds.

    ``laplacian.op.apply_ms`` applies every bin's Laplacian once, as one
    gradient evaluation does. ``smoother.op.measurement_ms`` and
    ``smoother.op.measurement_adjoint_ms`` time the standalone operators:
    ``objective_and_gradient`` does not call them but runs its own inlined
    measurement loops, whose time is in ``smoother.fg_self_s``.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(problem.state_size)
    r = rng.standard_normal(problem.total_observations())
    state = domain.SmootherState(x=x, N=problem.N, m=problem.m, k=problem.k)

    def social():
        for t, op in enumerate(problem.laplacians):
            laplacian.apply_laplacian(op, state.position(t))

    ops = {
        "smoother.op.fg_ms": lambda: smoother.objective_and_gradient(problem, x),
        "smoother.op.measurement_ms": lambda: smoother.apply_measurement(problem, x),
        "smoother.op.measurement_adjoint_ms": lambda: smoother.apply_measurement_adjoint(problem, r),
        "smoother.op.process_ms": lambda: smoother.apply_process(problem, x),
        "smoother.op.process_adjoint_ms": lambda: smoother.apply_process_adjoint(problem, x),
        "smoother.op.qinv_ms": lambda: smoother.apply_qinv(problem, x),
        "laplacian.op.apply_ms": social,
    }
    return {name: _median_ms(fn, reps) for name, fn in ops.items()}


def computed_costs(problem: smoother.SmootherProblem) -> dict[str, float]:
    """Flops and bytes one fused objective-and-gradient call must spend.

    Counted per operator from N m k, p k and E k (p training ratings, E
    trust edges summed over bins), one flop per multiply or add and 8 bytes
    per float64 read or written once:

    - measurement, forward and adjoint: gather two p x k row sets, a p x k
      product and sum, then scale and scatter p x k back: 5 p k + 3 p flops,
      8 (6 p k + 5 p) bytes.
    - process prior: G, Qinv, the inner product, G' and the gradient update,
      about 22 N m k flops over 14 sweeps of the 2 N m k state.
    - social, when lam > 0: the edge-wise quadratic form and L U, about
      7 E k + 2 E + 4 N m k flops and 8 (8 E k + 3 E + 4 N m k) bytes.
    """
    N, m, k = problem.N, problem.m, problem.k
    p = problem.total_observations()
    flops = 5 * p * k + 3 * p + 22 * N * m * k
    moved = 8 * (6 * p * k + 5 * p) + 8 * 14 * 2 * N * m * k
    if problem.config.lam > 0 and problem.laplacians is not None:
        E = sum(op.edge_count for op in problem.laplacians)
        flops += 7 * E * k + 2 * E + 4 * N * m * k
        moved += 8 * (8 * E * k + 3 * E + 4 * N * m * k)
    return {"smoother.fg_flops_computed": float(flops), "smoother.fg_bytes_computed": float(moved)}
