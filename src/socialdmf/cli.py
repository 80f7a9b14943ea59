"""Command-line front end.

Subcommands: ingest, synth, factorize, smooth, evaluate, sweep, checkgrad.
Every numeric option can also come from a ``--config`` file of flat
``key=value`` lines; explicit flags win over the file, the file wins over
built-in defaults. One ``--seed`` governs all randomness of a command.

Exit codes: 0 on success, 1 on numerical failure (non-finite values or a
flagged optimizer), 2 on input errors (unreadable or malformed files, bad
parameters).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .domain import NumericalError, SmootherConfig
from .experiment import (
    SWEEP_KS,
    SWEEP_LAMBDAS,
    check_gradient,
    evaluate_rmse,
    random_problem,
    run_dynamic,
    sweep,
    synth_generate,
)
from .factorize import init_timeline, load_factors, save_factors, write_matrix
from .ingest import (
    DataFormatError,
    TableFormat,
    bin_timelines,
    filter_min_ratings,
    load_dataset,
    merge_split,
    parse_ratings,
    parse_trust,
    save_dataset,
    split_train_test,
    _parse_date,
)
from .optim import write_trace

logger = logging.getLogger(__name__)


def _load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class _Resolver:
    """Implements the CLI > config-file > default precedence."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, dest: str, default, cast=float, key: str | None = None):
        value = getattr(self.args, dest, None)
        if value is not None:
            return value
        key = key or dest
        if key in self.file_values:
            raw = self.file_values[key]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            return cast(raw)
        return default


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None, help="latent rank (default 5)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="social penalty weight (default 0)")
    p.add_argument("--sigma", type=float, default=None, help="measurement noise scale (default 1)")
    p.add_argument("--dt", type=float, default=None, help="bin spacing (default 1)")
    p.add_argument("--gamma", type=float, default=None, help="ridge weight of the initializer (default 1)")
    p.add_argument("--max-iter", type=int, default=None, help="optimizer iteration cap (default 500)")
    p.add_argument("--lbfgs-memory", type=int, default=None, help="curvature pairs kept (default 10)")
    p.add_argument("--grad-tol", type=float, default=None, help="gradient stopping tolerance (default 1e-6)")
    p.add_argument("--no-align", action="store_true", help="skip rotating bins into a common frame")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="seed for all randomness (default 0)")
    p.add_argument("--config", default=None, help="key=value file; flags override it")
    p.add_argument("--threads", type=int, default=None, help="worker threads for per-bin loops (default 1)")


def _smoother_config(res: _Resolver) -> SmootherConfig:
    if getattr(res.args, "no_align", False):
        align = False
    else:
        align = res.get("align_factors", True, bool)
    return SmootherConfig(
        k=res.get("k", 5, int),
        dt=res.get("dt", 1.0),
        sigma=res.get("sigma", 1.0),
        lam=res.get("lam", 0.0, key="lambda"),
        gamma=res.get("gamma", 1.0),
        max_iter=res.get("max_iter", 500, int),
        lbfgs_memory=res.get("lbfgs_memory", 10, int),
        grad_tol=res.get("grad_tol", 1e-6),
        align_factors=align,
        seed=res.get("seed", 0, int),
    )


def _parse_cutoffs(spec: str, date_format: str) -> list[int]:
    path = Path(spec)
    if path.exists():
        tokens = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    else:
        tokens = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not tokens:
        raise DataFormatError(f"no cutoffs found in {spec!r}")
    return [_parse_date(tok, date_format) for tok in tokens]


def _print_rmse(per_bin, weighted) -> None:
    for t, r in enumerate(per_bin):
        print(f"rmse_bin_{t}={r:.6f}")
    print(f"rmse_weighted={weighted:.6f}")


def _print_dataset(ratings, trust, out) -> None:
    print(f"m={ratings.m}")
    print(f"n={ratings.n}")
    print(f"N={ratings.N}")
    print(f"ratings={ratings.total()}")
    print(f"edges={trust.edge_count(trust.N - 1)}")
    print(f"wrote {out}")


def cmd_ingest(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    fmt = TableFormat(delimiter=args.delimiter, date_format=args.date_format)
    ratings = parse_ratings(args.ratings, fmt)
    edges = parse_trust(args.trust, fmt)
    threshold = res.get("min_ratings", 10, int)
    kept = filter_min_ratings(ratings, threshold)
    cutoffs = _parse_cutoffs(args.cutoffs, args.date_format)
    timeline, trust, user_map, item_map = bin_timelines(kept, edges, cutoffs)
    save_dataset(args.out, timeline, trust, user_map, item_map)
    _print_dataset(timeline, trust, args.out)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    seed = res.get("seed", 0, int)
    split, trust, truth = synth_generate(
        m=args.m, n=args.n, k=res.get("k", 5, int), N=args.bins,
        samples_per_bin=args.samples_per_bin, trust_edges=args.trust_edges,
        eta=args.eta, noise_std=args.noise_std, seed=seed,
    )
    merged = merge_split(split)
    out = Path(args.out)
    user_map = {str(i): i for i in range(merged.m)}
    item_map = {str(j): j for j in range(merged.n)}
    save_dataset(out, merged, trust, user_map, item_map)
    for t, U in enumerate(truth.positions):
        write_matrix(out / f"truth_U_{t}.mat", U)
    write_matrix(out / "truth_V.mat", truth.item_factors)
    _print_dataset(merged, trust, out)
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    ratings, _, _, _ = load_dataset(args.data)
    config = _smoother_config(res)
    split = split_train_test(ratings, res.get("split_fraction", 0.5), config.seed)
    factors = init_timeline(
        split, config,
        iters=res.get("iters", 30, int),
        n_jobs=res.get("threads", 1, int),
    )
    save_factors(args.out, factors)
    per_bin, weighted = evaluate_rmse(factors, split.test)
    _print_rmse(per_bin, weighted)
    print(f"wrote {args.out}")
    return 0


def cmd_smooth(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    ratings, trust, _, _ = load_dataset(args.data)
    config = _smoother_config(res)
    split = split_train_test(ratings, res.get("split_fraction", 0.5), config.seed)
    factors = None
    if args.factors:
        factors = load_factors(args.factors)
        if factors.k != config.k:
            raise DataFormatError(
                f"checkpoint rank k={factors.k} does not match requested k={config.k}"
            )
    result = run_dynamic(split, trust, config, config.lam, factors=factors)
    out = Path(args.out)
    save_factors(out, result.factors)
    trace_path = args.trace_out or (out / "trace.csv")
    write_trace(trace_path, result.trace)
    _print_rmse(result.rmse_per_bin, result.rmse_weighted)
    print(f"model={result.model}")
    print(f"iterations={result.iterations}")
    print(f"status={result.status}")
    print(f"rel_grad={result.rel_grad:.3e}")
    print(f"wrote {out}")
    if result.status != "ok":
        logger.error("optimizer flagged: %s", result.status)
        return 1
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    ratings, _, _, _ = load_dataset(args.data)
    factors = load_factors(args.factors)
    split = split_train_test(ratings, res.get("split_fraction", 0.5), res.get("seed", 0, int))
    per_bin, weighted = evaluate_rmse(factors, split.test)
    _print_rmse(per_bin, weighted)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    ratings, trust, _, _ = load_dataset(args.data)
    config = _smoother_config(res)
    split = split_train_test(ratings, res.get("split_fraction", 0.5), config.seed)
    ks = [int(v) for v in args.ks.split(",")] if args.ks else list(SWEEP_KS)
    lambdas = [float(v) for v in args.lambdas.split(",")] if args.lambdas else list(SWEEP_LAMBDAS)
    results = sweep(
        split, trust, ks, lambdas, config,
        csv_path=args.out, n_jobs=res.get("threads", 1, int),
    )
    failures = [r for r in results if r.status != "ok"]
    best = min(
        (r for r in results if r.status == "ok" and np.isfinite(r.rmse_weighted)),
        key=lambda r: r.rmse_weighted,
        default=None,
    )
    for r in results:
        lam_text = "" if r.lam is None else f" lambda={r.lam:g}"
        print(f"{r.model} k={r.k}{lam_text}: rmse_weighted={r.rmse_weighted:.6f} [{r.status}]")
    if best is not None:
        print(f"best: {best.model} k={best.k} lambda={'' if best.lam is None else best.lam} "
              f"rmse_weighted={best.rmse_weighted:.6f}")
    print(f"wrote {args.out}")
    if failures:
        logger.error("%d of %d runs failed or did not converge", len(failures), len(results))
        return 1
    return 0


def cmd_checkgrad(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    problem = random_problem(
        m=args.m, n=args.n, k=res.get("k", 3, int), N=args.bins,
        p_per_bin=args.p_per_bin, trust_edges=args.trust_edges,
        lam=res.get("lam", 0.01, key="lambda"),
        seed=res.get("seed", 0, int),
        sigma=res.get("sigma", 1.0), dt=res.get("dt", 1.0),
    )
    err = check_gradient(problem, step=args.step, seed=res.get("seed", 0, int))
    print(f"max_relative_error={err:.3e}")
    if not err <= args.tol:
        logger.error("gradient check failed: %.3e > %.3e", err, args.tol)
        return 1
    print(f"gradient matches finite differences within {args.tol:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialdmf",
        description="Trust-aware dynamic matrix factorization via trajectory smoothing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw dumps into a binned dataset directory")
    p.add_argument("--ratings", required=True, help="ratings file (user, item, value, date)")
    p.add_argument("--trust", required=True, help="trust file (user_a, user_b, date)")
    p.add_argument("--cutoffs", required=True,
                   help="bin boundaries: a file with one date per line, or a comma list")
    p.add_argument("--min-ratings", type=int, default=None,
                   help="drop users with at most this many ratings (default 10)")
    p.add_argument("--delimiter", default="\t")
    p.add_argument("--date-format", default="iso", help='"iso", "days", or a strptime pattern')
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic dataset with known ground truth")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--samples-per-bin", type=int, required=True)
    p.add_argument("--trust-edges", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.05, help="consensus pull per bin")
    p.add_argument("--noise-std", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("factorize", help="fit per-bin static factors and write a checkpoint")
    p.add_argument("--data", required=True, help="dataset directory from ingest or synth")
    p.add_argument("--iters", type=int, default=None, help="alternating iterations (default 30)")
    p.add_argument("--split-fraction", type=float, default=None, help="train share per bin (default 0.5)")
    p.add_argument("--out", required=True, help="output checkpoint directory")
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("smooth", help="smooth user trajectories and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--factors", default=None, help="optional static checkpoint to warm-start from")
    p.add_argument("--split-fraction", type=float, default=None)
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.add_argument("--trace-out", default=None, help="trace CSV path (default <out>/trace.csv)")
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("evaluate", help="score a factor checkpoint on the held-out half")
    p.add_argument("--data", required=True)
    p.add_argument("--factors", required=True, help="checkpoint directory")
    p.add_argument("--split-fraction", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid over ranks and social weights; write results CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--ks", default=None, help="comma list of ranks (default 5,10,15,20)")
    p.add_argument("--lambdas", default=None,
                   help="comma list of social weights (default 1e-5,...,1)")
    p.add_argument("--split-fraction", type=float, default=None)
    p.add_argument("--out", required=True, help="results CSV path")
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("checkgrad", help="verify the smoother gradient on a random instance")
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--n", type=int, default=15)
    p.add_argument("--bins", type=int, default=4)
    p.add_argument("--p-per-bin", type=int, default=60)
    p.add_argument("--trust-edges", type=int, default=30)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_checkgrad)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
