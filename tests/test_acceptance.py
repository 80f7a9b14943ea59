"""Release gates for the whole package.

Each test checks one gate and prints a single PASS/FAIL line with the
measured numbers (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). The model-comparison study behind the two synthetic gates runs once
as a module fixture; everything together stays well inside ten minutes on
one core.
"""

import os
import time

import numpy as np
import pytest

import oracles
from socialdmf import (
    SWEEP_LAMBDAS,
    SmootherConfig,
    check_gradient,
    factorize_bin,
    init_timeline,
    lbfgs_minimize,
    objective_and_gradient,
    apply_measurement,
    apply_measurement_adjoint,
    apply_process,
    apply_process_adjoint,
    random_problem,
    run_dynamic,
    run_static,
    synth_generate,
)
from socialdmf.cli import main as cli_main


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness on seeded random problems.


def test_gradient_matches_finite_differences():
    lambdas = (0.0, 0.01, 1.0)
    sizes = [(12, 10, 2, 3, 40), (30, 20, 3, 5, 90), (18, 12, 3, 4, 55), (25, 16, 2, 5, 70)]
    worst = 0.0
    for seed in range(20):
        m, n, k, N, p = sizes[seed % len(sizes)]
        lam = lambdas[seed % len(lambdas)]
        problem = random_problem(
            m=m, n=n, k=k, N=N, p_per_bin=p, trust_edges=3 * m // 2,
            lam=lam, seed=seed,
        )
        err = check_gradient(problem, step=1e-3, seed=seed)
        worst = max(worst, err)
    _report(
        1, "gradient matches central differences", worst <= 1e-6,
        f"max relative error {worst:.3e} over 20 seeded problems, tol 1e-6",
    )


# ---------------------------------------------------------------------------
# 2. Matrix-free operators against dense assemblies.


def test_operators_match_dense_assembly():
    worst = 0.0
    for seed in range(4):
        for lam in (0.0, 0.3, 1.0):
            problem = random_problem(
                m=6, n=5, k=2, N=4, p_per_bin=10, trust_edges=5, lam=lam, seed=seed,
            )
            rng = np.random.default_rng(900 + seed)
            x = rng.standard_normal(problem.state_size)
            f, g = objective_and_gradient(problem, x)
            f_dense = oracles.dense_objective(problem, x)
            g_dense = oracles.dense_gradient(problem, x)
            worst = max(worst, abs(f - f_dense) / max(1.0, abs(f_dense)))
            scale = max(1.0, float(np.abs(g_dense).max()))
            worst = max(worst, float(np.abs(g - g_dense).max()) / scale)
    _report(
        2, "matrix-free objective and gradient match dense assembly",
        worst <= 1e-10,
        f"max relative discrepancy {worst:.3e}, tol 1e-10",
    )


# ---------------------------------------------------------------------------
# 3. Optimizer reaches the dense normal-equations solution.


def test_optimizer_reaches_normal_equations_solution():
    worst = 0.0
    for seed in range(3):
        for lam in (0.0, 0.05, 0.7):
            problem = random_problem(
                m=6, n=5, k=2, N=4, p_per_bin=12, trust_edges=6, lam=lam, seed=seed,
            )
            x_star = oracles.normal_equations_solution(problem)
            f_star = oracles.dense_objective(problem, x_star)
            result = lbfgs_minimize(
                lambda x: objective_and_gradient(problem, x),
                np.zeros(problem.state_size),
                max_iter=2000, grad_tol=1e-10,
            )
            worst = max(worst, abs(objective_and_gradient(problem, result.x)[0] - f_star))
    _report(
        3, "optimizer objective matches the normal equations",
        worst <= 1e-8,
        f"max |objective gap| {worst:.3e} over 9 instances, tol 1e-8",
    )


# ---------------------------------------------------------------------------
# 4. Adjoint identities.


def test_adjoint_identities_hold():
    worst = 0.0
    trials = 0
    for block in range(5):
        problem = random_problem(
            m=10, n=8, k=2, N=4, p_per_bin=20, trust_edges=8, lam=0.2, seed=50 + block,
        )
        rng = np.random.default_rng(block)
        for _ in range(20):
            x = rng.standard_normal(problem.state_size)
            y_obs = rng.standard_normal(problem.total_observations())
            lhs = float(apply_measurement(problem, x) @ y_obs)
            rhs = float(x @ apply_measurement_adjoint(problem, y_obs))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
            y = rng.standard_normal(problem.state_size)
            lhs = float(apply_process(problem, x) @ y)
            rhs = float(x @ apply_process_adjoint(problem, y))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
            trials += 1
    _report(
        4, "measurement and transition adjoint identities",
        worst <= 1e-10 and trials == 100,
        f"max relative defect {worst:.3e} over {trials} trials, tol 1e-10",
    )


# ---------------------------------------------------------------------------
# 5. The social term switched off leaves no trace at all.


def test_zero_social_weight_is_bitwise_inert():
    split, trust, _ = synth_generate(
        m=40, n=30, k=3, N=4, samples_per_bin=240, trust_edges=60,
        eta=0.05, noise_std=0.5, seed=11,
    )
    config = SmootherConfig(k=3, sigma=1.0, gamma=2.0, seed=11, max_iter=120)
    factors = init_timeline(split, config)
    with_graphs = run_dynamic(split, trust, config, lam=0.0, factors=factors)
    without_graphs = run_dynamic(split, None, config, lam=0.0, factors=factors)
    traces_equal = with_graphs.trace == without_graphs.trace
    scores_equal = with_graphs.rmse_weighted == without_graphs.rmse_weighted
    _report(
        5, "zero social weight equals a social-free build bit for bit",
        traces_equal and scores_equal,
        f"{len(with_graphs.trace)} trace rows identical: {traces_equal}; "
        f"scores identical: {scores_equal}",
    )


# ---------------------------------------------------------------------------
# 6. Alternating initializer: monotone descent and balanced factors.


def test_initializer_descends_and_balances():
    worst_balance = 0.0
    monotone = True
    rng_master = np.random.default_rng(77)
    for seed in range(10):
        m, n, p = 15, 12, 70
        rng = np.random.default_rng(seed)
        cells = rng.choice(m * n, size=p, replace=False)
        users = (cells // n).astype(np.int64)
        items = (cells % n).astype(np.int64)
        order = np.lexsort((items, users))
        obs = (users[order], items[order], rng.uniform(1, 5, size=p))
        pair, trace = factorize_bin(obs, m, n, k=3, gamma=1.0, iters=500,
                                    seed=int(rng_master.integers(2**32)), tol=1e-13)
        slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        monotone = monotone and bool(np.all(np.diff(trace) <= slack))
        nu, nv = np.linalg.norm(pair.U), np.linalg.norm(pair.V)
        worst_balance = max(worst_balance, abs(nu - nv) / nu)
    _report(
        6, "alternating solver descends and balances factor norms",
        monotone and worst_balance <= 1e-3,
        f"all traces non-increasing: {monotone}; "
        f"max |norm gap|/norm {worst_balance:.2e}, tol 1e-3",
    )


# ---------------------------------------------------------------------------
# 7 and 8 share one study: ten seeded synthetic comparisons.


INTERIOR_LAMBDAS = SWEEP_LAMBDAS[1:-1]


@pytest.fixture(scope="module")
def comparison_study():
    """Static vs dynamic vs social over ten seeds of drifting consensus data.

    gamma was tuned once for the static baseline's own held-out score (its
    best setting, so the baseline is as strong as this family allows), and
    sigma once for the smoother; both are then shared by every model.
    """
    runs = []
    for seed in range(10):
        split, trust, _ = synth_generate(
            m=200, n=300, k=5, N=8, samples_per_bin=6000, trust_edges=600,
            eta=0.05, noise_std=0.5, seed=seed, fraction=0.5,
        )
        config = SmootherConfig(k=5, sigma=1.0, gamma=4.0, seed=seed,
                                max_iter=400, grad_tol=1e-6)
        factors = init_timeline(split, config)
        static = run_static(split, config, factors=factors).rmse_weighted
        dynamic = run_dynamic(split, trust, config, lam=0.0, factors=factors).rmse_weighted
        grid = {
            lam: run_dynamic(split, trust, config, lam=lam, factors=factors).rmse_weighted
            for lam in SWEEP_LAMBDAS
        }
        runs.append({"static": static, "dynamic": dynamic, "grid": grid})
    return runs


def test_model_ordering_on_drifting_consensus_data(comparison_study):
    static = float(np.median([r["static"] for r in comparison_study]))
    dynamic = float(np.median([r["dynamic"] for r in comparison_study]))
    social = float(np.median([min(r["grid"].values()) for r in comparison_study]))
    gap_sd = (static - dynamic) / static
    gap_ds = (dynamic - social) / dynamic
    _report(
        7, "median scores order social < dynamic < static with 1% gaps",
        gap_sd >= 0.01 and gap_ds >= 0.01,
        f"medians static {static:.4f} > dynamic {dynamic:.4f} > social {social:.4f}; "
        f"gaps {gap_sd * 100:.2f}% and {gap_ds * 100:.2f}%, need >= 1%",
    )


def test_heavy_social_weight_overshoots(comparison_study):
    hits = 0
    for r in comparison_study:
        interior_best = min(r["grid"][lam] for lam in INTERIOR_LAMBDAS)
        if r["grid"][1.0] > interior_best:
            hits += 1
    _report(
        8, "weight 1 scores worse than the best interior weight",
        hits >= 8,
        f"{hits}/10 seeds show the overshoot, need >= 8",
    )


# ---------------------------------------------------------------------------
# 9. Evaluation cost is affine in the bin count and in the rank.


def _median_eval_seconds(m, n, k, N, p, edges, reps=50):
    problem = random_problem(m=m, n=n, k=k, N=N, p_per_bin=p,
                             trust_edges=edges, lam=0.05, seed=0)
    x = np.random.default_rng(1).standard_normal(problem.state_size)
    objective_and_gradient(problem, x)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        objective_and_gradient(problem, x)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def _affine_fit(xs, ts):
    A = np.vstack([np.ones(len(xs)), np.asarray(xs, dtype=np.float64)]).T
    coef, *_ = np.linalg.lstsq(A, ts, rcond=None)
    fitted = A @ coef
    rel_resid = float(np.max(np.abs(ts - fitted) / fitted))
    return float(coef[1]), rel_resid


def test_evaluation_cost_scales_affinely():
    bins = [10, 20, 40]
    t_bins = [_median_eval_seconds(400, 300, 10, N, 5000, 1000) for N in bins]
    slope_n, resid_n = _affine_fit(bins, t_bins)
    ranks = [5, 10, 20]
    t_ranks = [_median_eval_seconds(400, 300, k, 12, 5000, 1000) for k in ranks]
    slope_k, resid_k = _affine_fit(ranks, t_ranks)
    ok = slope_n > 0 and slope_k > 0 and resid_n <= 0.30 and resid_k <= 0.30
    _report(
        9, "gradient evaluation time is affine in bins and rank",
        ok,
        f"bins {['%.1fms' % (t * 1e3) for t in t_bins]} resid {resid_n:.3f}; "
        f"rank {['%.1fms' % (t * 1e3) for t in t_ranks]} resid {resid_k:.3f}; "
        f"slopes positive, residuals <= 0.30",
    )


# ---------------------------------------------------------------------------
# 10. Full-corpus ingest, only when the original dumps are supplied.


_EPINIONS_VARS = (
    "SOCIALDMF_EPINIONS_RATINGS",
    "SOCIALDMF_EPINIONS_TRUST",
    "SOCIALDMF_EPINIONS_CUTOFFS",
)


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in _EPINIONS_VARS),
    reason="set SOCIALDMF_EPINIONS_RATINGS, _TRUST, and _CUTOFFS to run the "
    "full-corpus ingest check",
)
def test_ingests_reference_corpus_exactly(tmp_path, capsys):
    argv = [
        "ingest",
        "--ratings", os.environ["SOCIALDMF_EPINIONS_RATINGS"],
        "--trust", os.environ["SOCIALDMF_EPINIONS_TRUST"],
        "--cutoffs", os.environ["SOCIALDMF_EPINIONS_CUTOFFS"],
        "--out", str(tmp_path / "epinions"),
    ]
    delimiter = os.environ.get("SOCIALDMF_EPINIONS_DELIMITER")
    if delimiter:
        argv += ["--delimiter", delimiter]
    date_format = os.environ.get("SOCIALDMF_EPINIONS_DATE_FORMAT")
    if date_format:
        argv += ["--date-format", date_format]
    rc = cli_main(argv)
    out = capsys.readouterr().out
    values = dict(
        line.split("=", 1) for line in out.strip().splitlines() if "=" in line
    )
    expected = {"m": "22164", "n": "305301", "ratings": "975449",
                "edges": "264022", "N": "11"}
    ok = rc == 0 and all(values.get(key) == val for key, val in expected.items())
    got = {key: values.get(key) for key in expected}
    _report(
        10, "reference corpus ingest reproduces the published counts",
        ok,
        f"exit {rc}, got {got}, expected {expected}",
    )
