"""End-to-end pipelines: evaluation, model runs, sweeps, and synthetic data.

Three models share one protocol. "static" evaluates the per-bin factorizer
directly. "dynamic" smooths the user trajectories with the process prior
only (lam = 0). "dynamic_social" adds the per-bin graph penalty. All are
scored by RMSE on the held-out half, with bins weighted by their test
counts:

    rmse_weighted = sqrt( sum_t p_t * mse_t / sum_t p_t )

over non-empty test bins.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .domain import (
    FactorPair,
    FactorTimeline,
    RatingsTimeline,
    SmootherConfig,
    SmootherState,
    TrustTimeline,
)
from .factorize import init_timeline
from .ingest import SplitTimeline, split_train_test
from .laplacian import apply_laplacian, build_timeline_laplacians
from .optim import finite_diff_check, lbfgs_minimize
from .smoother import SmootherProblem, objective_and_gradient

logger = logging.getLogger(__name__)

SWEEP_KS = (5, 10, 15, 20)
SWEEP_LAMBDAS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


@dataclass
class ExperimentResult:
    """One model run: scores, timing, and the configuration that produced it.

    ``rel_grad`` is the smoother's final ``||grad|| / max(1, ||x||)``, the
    quantity compared with ``grad_tol``; NaN for static and failed runs.
    """

    model: str
    k: int
    lam: Optional[float]
    rmse_per_bin: list[float]
    rmse_weighted: float
    wall_seconds: float
    config: dict
    seed: int
    status: str = "ok"
    iterations: int = 0
    rel_grad: float = float("nan")
    trace: Optional[list] = field(default=None, repr=False)
    factors: Optional[FactorTimeline] = field(default=None, repr=False)


def evaluate_rmse(factors: FactorTimeline, test: RatingsTimeline) -> tuple[list[float], float]:
    """Per-bin and count-weighted RMSE of factor predictions on test data.

    Empty test bins score NaN and are excluded from the weighted aggregate.
    """
    if factors.N != test.N or factors.m != test.m or factors.n != test.n:
        raise ValueError("factor timeline and test timeline disagree on shape")
    per_bin = []
    weighted_sum = 0.0
    total = 0
    for t in range(test.N):
        users, items, values = test.bin(t)
        if users.size == 0:
            per_bin.append(float("nan"))
            continue
        pred = np.einsum("lk,lk->l", factors[t].U[users], factors[t].V[items])
        mse = float(np.mean((pred - values) ** 2))
        per_bin.append(float(np.sqrt(mse)))
        weighted_sum += users.size * mse
        total += users.size
    if total == 0:
        logger.warning("every test bin is empty; weighted RMSE undefined")
        return per_bin, float("nan")
    return per_bin, float(np.sqrt(weighted_sum / total))


def _model_name(lam: Optional[float]) -> str:
    """Model name for a social weight: none is static, zero is dynamic."""
    if lam is None:
        return "static"
    return "dynamic" if lam == 0 else "dynamic_social"


def _failed_run(
    lam: Optional[float], config: SmootherConfig, N: int, exc: Exception
) -> ExperimentResult:
    """The row a sweep records for a cell whose run raised ``exc``."""
    return ExperimentResult(
        model=_model_name(lam), k=config.k, lam=lam, rmse_per_bin=[float("nan")] * N,
        rmse_weighted=float("nan"), wall_seconds=0.0,
        config=dataclasses.asdict(config), seed=config.seed,
        status=f"error: {exc}",
    )


def run_static(
    split: SplitTimeline,
    config: SmootherConfig,
    factors: Optional[FactorTimeline] = None,
) -> ExperimentResult:
    """Fit per-bin factors and evaluate them, with no smoothing at all."""
    start = time.perf_counter()
    if factors is None:
        factors = init_timeline(split, config)
    per_bin, weighted = evaluate_rmse(factors, split.test)
    return ExperimentResult(
        model="static",
        k=config.k,
        lam=None,
        rmse_per_bin=per_bin,
        rmse_weighted=weighted,
        wall_seconds=time.perf_counter() - start,
        config=dataclasses.asdict(config),
        seed=config.seed,
        factors=factors,
    )


def run_dynamic(
    split: SplitTimeline,
    trust: Optional[TrustTimeline],
    config: SmootherConfig,
    lam: float,
    factors: Optional[FactorTimeline] = None,
) -> ExperimentResult:
    """Smooth user trajectories and evaluate; ``lam > 0`` adds the social term.

    The optimizer warm-starts from the static factors (positions) with zero
    velocities. Item factors stay fixed at their per-bin static estimates.
    The result's status is "ok" only when the optimizer converged; otherwise
    it is the optimizer's own status, e.g. "max_iter".
    """
    start = time.perf_counter()
    effective = dataclasses.replace(config, lam=lam)
    if factors is None:
        factors = init_timeline(split, effective)
    laplacians = None
    if lam > 0:
        if trust is None:
            raise ValueError("lam > 0 requires a trust timeline")
        laplacians = build_timeline_laplacians(trust)
    problem = SmootherProblem(split.train, factors, laplacians, effective)

    x0 = SmootherState(x=np.zeros(problem.state_size), N=factors.N, m=factors.m, k=config.k)
    x0.blocks[:, 1] = [pair.U for pair in factors]
    result = lbfgs_minimize(
        lambda x: objective_and_gradient(problem, x),
        x0.x,
        max_iter=config.max_iter,
        grad_tol=config.grad_tol,
    )
    final = SmootherState(x=result.x, N=factors.N, m=factors.m, k=config.k)
    smoothed = FactorTimeline(
        [
            FactorPair(U=final.position(t).copy(), V=factors[t].V)
            for t in range(factors.N)
        ]
    )
    per_bin, weighted = evaluate_rmse(smoothed, split.test)
    status = "ok" if result.converged else result.status
    return ExperimentResult(
        model=_model_name(lam),
        k=config.k,
        lam=lam,
        rmse_per_bin=per_bin,
        rmse_weighted=weighted,
        wall_seconds=time.perf_counter() - start,
        config=dataclasses.asdict(effective),
        seed=config.seed,
        status=status,
        iterations=result.iterations,
        rel_grad=result.grad_norm / max(1.0, float(np.linalg.norm(result.x))),
        trace=result.trace,
        factors=smoothed,
    )


def sweep(
    split: SplitTimeline,
    trust: Optional[TrustTimeline],
    ks: Sequence[int],
    lambdas: Sequence[float],
    config: SmootherConfig,
    csv_path=None,
    n_jobs: int = 1,
) -> list[ExperimentResult]:
    """Run static, dynamic, and dynamic_social over a (k, lambda) grid.

    Static factors are computed once per k and shared by every run at that
    rank. A failing run is recorded with an error status and the sweep
    continues. Row order is deterministic regardless of ``n_jobs``.
    """
    cells: list[Optional[float]] = [None, 0.0] + [float(l) for l in lambdas]
    results: list[ExperimentResult] = []
    for k in ks:
        config_k = dataclasses.replace(config, k=int(k))
        try:
            factors = init_timeline(split, config_k, n_jobs=n_jobs)
        except Exception as exc:  # noqa: BLE001 - a sweep must survive one bad cell
            logger.error("init failed for k=%d: %s", k, exc)
            results.extend(_failed_run(lam, config_k, split.train.N, exc) for lam in cells)
            continue

        def one_run(lam: Optional[float]) -> ExperimentResult:
            try:
                if lam is None:
                    return run_static(split, config_k, factors=factors)
                return run_dynamic(split, trust, config_k, lam, factors=factors)
            except Exception as exc:  # noqa: BLE001
                logger.error("run failed for k=%d lam=%s: %s", k, lam, exc)
                return _failed_run(lam, config_k, split.train.N, exc)

        if n_jobs > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=n_jobs) as pool:
                results.extend(pool.map(one_run, cells))
        else:
            results.extend(one_run(lam) for lam in cells)
    if csv_path is not None:
        write_results_csv(csv_path, results, split.train.N)
    return results


def write_results_csv(path, results: Sequence[ExperimentResult], N: int) -> None:
    """Write sweep results with one row per run.

    Columns: model, k, lambda, rmse_weighted, rmse_bin_0..rmse_bin_{N-1},
    wall_seconds, seed, status, rel_grad. The lambda cell is empty for
    static rows.
    """
    header = ["model", "k", "lambda", "rmse_weighted"]
    header += [f"rmse_bin_{t}" for t in range(N)]
    header += ["wall_seconds", "seed", "status", "rel_grad"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in results:
            row = [r.model, r.k, "" if r.lam is None else repr(float(r.lam)), repr(r.rmse_weighted)]
            row += [repr(v) for v in r.rmse_per_bin]
            row += [f"{r.wall_seconds:.3f}", r.seed, r.status, repr(r.rel_grad)]
            writer.writerow(row)


# Synthetic data --------------------------------------------------------------

@dataclass(frozen=True)
class SynthTruth:
    """Ground truth behind a synthetic dataset."""

    positions: list[np.ndarray]
    velocities: list[np.ndarray]
    item_factors: np.ndarray

    def factors(self) -> FactorTimeline:
        return FactorTimeline(
            [FactorPair(U=U, V=self.item_factors) for U in self.positions]
        )


def _laplacian_spectral_bound(W: sp.csr_matrix) -> float:
    """Largest eigenvalue of L = D - W (dense for small m, Lanczos above)."""
    m = W.shape[0]
    if W.nnz == 0:
        return 0.0
    degrees = np.asarray(W.sum(axis=1)).ravel()
    L = sp.diags(degrees) - W
    if m <= 400:
        return float(np.linalg.eigvalsh(L.toarray()).max())
    val = scipy.sparse.linalg.eigsh(L, k=1, which="LA", return_eigenvectors=False)
    return float(val[0])


def _random_edges(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    """``count`` distinct random edges (i < j) among ``m`` users, sorted, as a (count, 2) array."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < count:
        a, b = rng.integers(0, m, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)


def synth_generate(
    m: int,
    n: int,
    k: int,
    N: int,
    samples_per_bin: int,
    trust_edges: int,
    eta: float,
    noise_std: float,
    seed: int,
    dt: float = 1.0,
    velocity_std: float = 0.1,
    process_std: float = 0.02,
    fraction: float = 0.5,
) -> tuple[SplitTimeline, TrustTimeline, SynthTruth]:
    """Generate a rating timeline whose users genuinely drift and consense.

    Item factors V are drawn once (Gaussian, std 1/sqrt(k)) and shared by
    every bin. User positions start Gaussian with small Gaussian velocities
    and evolve by

        U_{t+1} = (I - eta L_t)(U_t + dt * Udot_t) + noise
        Udot_{t+1} = Udot_t + noise

    where L_t is the cumulative trust Laplacian of bin t, so trusted users
    are pulled toward agreement over time. Each bin observes
    ``samples_per_bin`` distinct cells with additive Gaussian rating noise
    of scale ``noise_std``. The final timeline is split per bin with
    ``fraction`` going to train.

    ``eta`` must keep the spectral radius of (I - eta L_t) at or below one;
    this is checked on the final (largest) graph.
    """
    if min(m, n, k, N) < 1:
        raise ValueError("m, n, k, N must all be >= 1")
    if samples_per_bin > m * n:
        raise ValueError(f"samples_per_bin={samples_per_bin} exceeds the {m}x{n} grid")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    max_pairs = m * (m - 1) // 2
    if trust_edges > max_pairs:
        raise ValueError(f"trust_edges={trust_edges} exceeds {max_pairs} possible pairs")
    rng = np.random.default_rng(seed)

    # Random undirected edges with uniformly random creation bins.
    pairs = _random_edges(rng, m, trust_edges)
    creation = rng.integers(0, N, size=len(pairs))
    trust = TrustTimeline.from_edges(
        m, [(pairs[creation <= t, 0], pairs[creation <= t, 1]) for t in range(N)]
    )

    if eta > 0:
        lam_max = _laplacian_spectral_bound(trust.graph(N - 1))
        if eta * lam_max > 2.0 + 1e-12:
            raise ValueError(
                f"eta={eta} is too large: eta * lambda_max = {eta * lam_max:.3f} > 2, "
                "the consensus map would amplify"
            )

    V = rng.normal(0.0, 1.0 / np.sqrt(k), size=(n, k))
    U = rng.normal(0.0, 1.0, size=(m, k))
    Udot = rng.normal(0.0, velocity_std, size=(m, k))

    laplacians = build_timeline_laplacians(trust)
    positions = []
    velocities = []
    bins = []
    for t in range(N):
        positions.append(U.copy())
        velocities.append(Udot.copy())
        cells = rng.choice(m * n, size=samples_per_bin, replace=False)
        users = (cells // n).astype(np.int64)
        items = (cells % n).astype(np.int64)
        values = np.einsum("lk,lk->l", U[users], V[items])
        if noise_std > 0:
            values = values + rng.normal(0.0, noise_std, size=samples_per_bin)
        order = np.lexsort((items, users))
        bins.append((users[order], items[order], values[order]))
        if t < N - 1:
            pulled = U + dt * Udot
            if eta > 0:
                pulled = pulled - eta * apply_laplacian(laplacians[t], pulled)
            U = pulled
            if process_std > 0:
                U = U + rng.normal(0.0, process_std, size=(m, k))
                Udot = Udot + rng.normal(0.0, process_std, size=(m, k))

    timeline = RatingsTimeline(m, n, bins)
    split = split_train_test(timeline, fraction, seed)
    truth = SynthTruth(positions=positions, velocities=velocities, item_factors=V)
    return split, trust, truth


def random_problem(
    m: int,
    n: int,
    k: int,
    N: int,
    p_per_bin: int,
    trust_edges: int,
    lam: float,
    seed: int,
    sigma: float = 1.0,
    dt: float = 1.0,
) -> SmootherProblem:
    """A seeded random smoothing instance for gradient and adjoint checks.

    Ratings are uniform on [1, 5], item factors Gaussian, the trust graph a
    fixed random edge set shared by all bins. Useful as a diagnostic
    fixture; not meant to resemble real data.
    """
    rng = np.random.default_rng(seed)
    if p_per_bin > m * n:
        raise ValueError(f"p_per_bin={p_per_bin} exceeds the {m}x{n} grid")
    bins = []
    for _ in range(N):
        cells = rng.choice(m * n, size=p_per_bin, replace=False)
        users = (cells // n).astype(np.int64)
        items = (cells % n).astype(np.int64)
        values = rng.uniform(1.0, 5.0, size=p_per_bin)
        order = np.lexsort((items, users))
        bins.append((users[order], items[order], values[order]))
    train = RatingsTimeline(m, n, bins)

    pairs = []
    scale = 1.0 / np.sqrt(k)
    for _ in range(N):
        pairs.append(
            FactorPair(
                U=rng.normal(0.0, scale, size=(m, k)),
                V=rng.normal(0.0, scale, size=(n, k)),
            )
        )
    factors = FactorTimeline(pairs)

    pairs = _random_edges(rng, m, min(trust_edges, m * (m - 1) // 2))
    trust = TrustTimeline.from_edges(m, [(pairs[:, 0], pairs[:, 1])] * N)

    config = SmootherConfig(k=k, sigma=sigma, dt=dt, lam=lam, seed=seed)
    laplacians = build_timeline_laplacians(trust) if lam > 0 else None
    return SmootherProblem(train, factors, laplacians, config)


def check_gradient(problem: SmootherProblem, step: float = 1e-3, seed: int = 0) -> float:
    """Finite-difference error of the smoother gradient at a random state.

    The objective is quadratic in the state, so central differences carry no
    truncation error and a fairly large step minimizes rounding loss.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(problem.state_size)
    return finite_diff_check(lambda v: objective_and_gradient(problem, v), x, step=step)
