"""Command-line front end.

Subcommands: ingest, synth, factorize, smooth, evaluate, sweep, checkgrad.
Any option of a command can also come from a ``--config`` file of flat
``key=value`` lines keyed by dest name (``lambda``, ``max_iter``, ``eta``);
each value converts by its option's ``type``, keys that name no option of
the command are ignored, flags win over the file, and the file over the
defaults that ``--help`` shows.
Each command registers only the options it reads. One ``--seed`` governs
all randomness of every command but ``ingest``, which draws none.

Exit codes: 0 on success, 1 on numerical failure (non-finite values or a
flagged optimizer), 2 on input errors (unreadable or malformed files, bad
parameters).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from itertools import product
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
from .factorize import init_timeline, load_factors, save_factors
from .ingest import (
    DataFormatError,
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
_K = 5  # the default latent rank of synth, factorize and smooth


def _set_config_defaults(args: argparse.Namespace) -> None:
    """Make the ``key=value`` lines of ``--config`` the defaults of ``args.command``.

    Keys are option dest names (``lambda`` for ``lam``); keys that name no
    option of the command are ignored. Parsing again then converts each
    value with its option's ``type``, and explicit flags still win.
    """
    values: dict[str, str] = {}
    with open(args.config, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{args.config}:{line_no}: expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            values["lam" if key == "lambda" else key] = value
    options = vars(args).keys() - {"func", "command", "commands", "config"}
    args.commands[args.command].set_defaults(**{key: values[key] for key in values.keys() & options})


def _add_model_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Register the named ``SmootherConfig`` fields as options of ``p``, each with its default."""
    flags = {
        "k": ("--k", dict(type=int, default=_K, help="latent rank (default %(default)s)")),
        "lam": ("--lambda", dict(type=float, default=SmootherConfig.lam,
                                 help="social penalty weight (default %(default)s)")),
        "sigma": ("--sigma", dict(type=float, default=SmootherConfig.sigma,
                                  help="measurement noise scale (default %(default)s)")),
        "gamma": ("--gamma", dict(type=float, default=SmootherConfig.gamma,
                                  help="ridge weight of the initializer (default %(default)s)")),
        "max_iter": ("--max-iter", dict(type=int, default=SmootherConfig.max_iter,
                                        help="optimizer iteration cap (default %(default)s)")),
        "grad_tol": ("--grad-tol", dict(type=float, default=SmootherConfig.grad_tol,
                                        help="gradient stopping tolerance (default %(default)s)")),
        "seed": ("--seed", dict(type=int, default=SmootherConfig.seed,
                                help="seed for all randomness (default %(default)s)")),
    }
    for name in names:
        flag, options = flags[name]
        p.add_argument(flag, dest=name, **options)


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset directory from ingest or synth")
    p.add_argument("--split-fraction", type=float, default=0.5,
                   help="train share per bin (default %(default)s)")


def _smoother_config(args: argparse.Namespace) -> SmootherConfig:
    """The ``SmootherConfig`` of the fields the command registered; the rest keep their defaults."""
    given = vars(args)
    return SmootherConfig(**{f.name: given[f.name] for f in fields(SmootherConfig) if f.name in given})


def _load_split(args: argparse.Namespace):
    """The ``--data`` ratings split by ``--split-fraction`` and ``--seed``, and the trust timeline."""
    ratings, trust, _, _ = load_dataset(args.data)
    return split_train_test(ratings, args.split_fraction, args.seed), trust


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
    ratings = parse_ratings(args.ratings, delimiter=args.delimiter, date_format=args.date_format)
    edges = parse_trust(args.trust, delimiter=args.delimiter, date_format=args.date_format)
    kept = filter_min_ratings(ratings, args.min_ratings)
    cutoffs = _parse_cutoffs(args.cutoffs, args.date_format)
    timeline, trust, user_map, item_map = bin_timelines(kept, edges, cutoffs)
    save_dataset(args.out, timeline, trust, user_map, item_map)
    _print_dataset(timeline, trust, args.out)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    split, trust, truth = synth_generate(
        m=args.m, n=args.n, k=args.k, N=args.bins,
        samples_per_bin=args.samples_per_bin, trust_edges=args.trust_edges,
        eta=args.eta, noise_std=args.noise_std, seed=args.seed,
    )
    merged = merge_split(split)
    out = Path(args.out)
    user_map = {str(i): i for i in range(merged.m)}
    item_map = {str(j): j for j in range(merged.n)}
    save_dataset(out, merged, trust, user_map, item_map)
    np.save(out / "truth_U.npy", np.stack(truth.positions))
    np.save(out / "truth_V.npy", truth.item_factors)
    _print_dataset(merged, trust, out)
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    split, _ = _load_split(args)
    factors = init_timeline(split, _smoother_config(args), iters=args.iters)
    save_factors(args.out, factors)
    _print_rmse(*evaluate_rmse(factors, split.test))
    print(f"wrote {args.out}")
    return 0


def cmd_smooth(args: argparse.Namespace) -> int:
    split, trust = _load_split(args)
    config = _smoother_config(args)
    factors = load_factors(args.factors) if args.factors else None
    if factors is not None and factors.k != config.k:
        raise DataFormatError(f"checkpoint rank k={factors.k} does not match requested k={config.k}")
    result = run_dynamic(split, trust, config, config.lam, factors=factors)
    out = Path(args.out)
    save_factors(out, result.factors)
    write_trace(args.trace_out or out / "trace.csv", result.trace)
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
    split, _ = _load_split(args)
    _print_rmse(*evaluate_rmse(load_factors(args.factors), split.test))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    split, trust = _load_split(args)
    ks = [int(v) for v in args.ks.split(",")]
    lambdas = [float(v) for v in args.lambdas.split(",")]
    # One config per cell, so an out-of-range cell exits 2 before any solve.
    configs = [_smoother_config(argparse.Namespace(**vars(args), k=k, lam=lam))
               for k, lam in product(ks, lambdas)]
    results = sweep(split, trust, ks, lambdas, configs[0], csv_path=args.out, n_jobs=args.threads)
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
    if not 0 < args.tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {args.tol}")
    problem = random_problem(
        m=args.m, n=args.n, k=args.k, N=args.bins,
        p_per_bin=args.p_per_bin, trust_edges=args.trust_edges,
        lam=args.lam, seed=args.seed, sigma=args.sigma,
    )
    err = check_gradient(problem, step=args.step, seed=args.seed)
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
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="key=value file of option defaults; flags override it")
    commands: dict[str, argparse.ArgumentParser] = {}
    parser.set_defaults(commands=commands)  # how --config finds the command's own parser

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        # No abbreviations: sweep would read a dropped --lambda or --k as --lambdas or --ks.
        commands[name] = sub.add_parser(name, help=help, parents=[config], allow_abbrev=False)
        return commands[name]

    p = add_command("ingest", help="parse raw dumps into a binned dataset directory")
    p.add_argument("--ratings", required=True, help="ratings file (user, item, value, date)")
    p.add_argument("--trust", required=True, help="trust file (user_a, user_b, date)")
    p.add_argument("--cutoffs", required=True,
                   help="bin boundaries: a file with one date per line, or a comma list")
    p.add_argument("--min-ratings", type=int, default=10,
                   help="drop users with at most this many ratings (default %(default)s)")
    p.add_argument("--delimiter", default="\t", help="field separator (default: tab)")
    p.add_argument("--date-format", default="iso",
                   help='"iso", "days", or a strptime pattern (default %(default)s)')
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_ingest)

    p = add_command("synth", help="generate a synthetic dataset with known ground truth")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_model_flags(p, "k", "seed")
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--samples-per-bin", type=int, required=True)
    p.add_argument("--trust-edges", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.05, help="consensus pull per bin (default %(default)s)")
    p.add_argument("--noise-std", type=float, default=0.5, help="rating noise (default %(default)s)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = add_command("factorize", help="fit per-bin static factors and write a checkpoint")
    _add_split_flags(p)
    p.add_argument("--iters", type=int, default=30, help="alternating iterations (default %(default)s)")
    p.add_argument("--out", required=True, help="output checkpoint directory")
    _add_model_flags(p, "k", "gamma", "seed")
    p.set_defaults(func=cmd_factorize)

    p = add_command("smooth", help="smooth user trajectories and write a checkpoint")
    _add_split_flags(p)
    p.add_argument("--factors", default=None, help="optional static checkpoint to warm-start from")
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.add_argument("--trace-out", default=None, help="trace CSV path (default <out>/trace.csv)")
    _add_model_flags(p, *(f.name for f in fields(SmootherConfig)))
    p.set_defaults(func=cmd_smooth)

    p = add_command("evaluate", help="score a factor checkpoint on the held-out half")
    _add_split_flags(p)
    p.add_argument("--factors", required=True, help="checkpoint directory")
    _add_model_flags(p, "seed")
    p.set_defaults(func=cmd_evaluate)

    p = add_command("sweep", help="grid over ranks and social weights; write results CSV")
    _add_split_flags(p)
    p.add_argument("--ks", default=",".join(map(str, SWEEP_KS)),
                   help="comma list of ranks (default %(default)s)")
    p.add_argument("--lambdas", default=",".join(map(str, SWEEP_LAMBDAS)),
                   help="comma list of social weights (default %(default)s)")
    p.add_argument("--out", required=True, help="results CSV path")
    _add_model_flags(p, "sigma", "gamma", "max_iter", "grad_tol", "seed")
    p.add_argument("--threads", type=int, default=1, help="cells run at once (default %(default)s)")
    p.set_defaults(func=cmd_sweep)

    p = add_command("checkgrad", help="verify the smoother gradient on a random instance")
    p.add_argument("--m", type=int, default=20, help="users (default %(default)s)")
    p.add_argument("--n", type=int, default=15, help="items (default %(default)s)")
    p.add_argument("--bins", type=int, default=4, help="time bins (default %(default)s)")
    p.add_argument("--p-per-bin", type=int, default=60, help="ratings per bin (default %(default)s)")
    p.add_argument("--trust-edges", type=int, default=30, help="trust edges (default %(default)s)")
    p.add_argument("--step", type=float, default=1.0, help="finite-difference step (default %(default)s)")
    p.add_argument("--tol", type=float, default=1e-6, help="largest relative error (default %(default)s)")
    _add_model_flags(p, "k", "lam", "sigma", "seed")
    p.set_defaults(func=cmd_checkgrad, k=3, lam=0.01)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.config:
            _set_config_defaults(args)
            args = parser.parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
