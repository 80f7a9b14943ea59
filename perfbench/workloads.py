"""The two benchmark workloads: their seeded inputs, one pass each, and checks.

Every call into the package goes through a module attribute at call time
(``factorize.save_factors``, not a name imported once), so the rebinding in
:mod:`perfbench.tracing` reaches it. The package only ever receives the
generated inputs; nothing in it knows which workload is running.

A pass runs the workload once. Its timed parts are the harness spans named
``phase.<name>``; correctness checks and input generation sit outside them.

``fit_drift`` starts from raw text: its synthetic ratings and trust edges are
written as Epinions-style dumps, which each pass ingests before fitting.
"""

from __future__ import annotations

import datetime
import logging
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse as sp

from socialdmf import domain, experiment, factorize, ingest

from .tracing import Tracer

K = 10
GAMMA = 4.0
MIN_RATINGS = 10  # the ingest CLI's default --min-ratings
TRAIN_FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is recorded in BENCHMARK.json.

    ``reports`` lists the end-to-end metrics it exercises, which every
    untraced run prints.
    """

    name: str
    reports: tuple[str, ...]
    synth: dict
    lambdas: tuple[float, ...]
    ingest: bool = False  # fit the data as ingested from raw text dumps
    checkpoint: bool = False
    rmse_ordered: bool = False  # require rmse_static > rmse_dynamic > rmse_social
    probe_lam: float = 0.01  # lambda of the problem the operator microtimings use


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit_drift",
            reports=("setup_s", "total_s", "ingest_s", "init_s", "solve_dynamic_s", "solve_social_s",
                     "ckpt_write_s", "ckpt_read_s", "peak_rss_mb",
                     "rmse_static", "rmse_dynamic", "rmse_social", "solves_failed_ratio"),
            synth=dict(m=500, n=300, k=K, N=6, samples_per_bin=20000, trust_edges=1500,
                       eta=0.05, noise_std=0.5),
            lambdas=(0.0, 0.01),
            ingest=True,
            checkpoint=True,
            rmse_ordered=True,
        ),
        Workload(
            name="trust_dense",
            reports=("setup_s", "total_s", "init_s", "solve_social_s", "peak_rss_mb",
                     "rmse_static", "rmse_social", "solves_failed_ratio"),
            synth=dict(m=1000, n=200, k=K, N=6, samples_per_bin=12000, trust_edges=8000,
                       eta=0.03, noise_std=0.5),
            lambdas=(0.1, 1.0),
            probe_lam=1.0,
        ),
    )
}


def config_for(seed: int) -> domain.SmootherConfig:
    return domain.SmootherConfig(k=K, gamma=GAMMA, seed=seed)


# Raw text dumps -----------------------------------------------------------------

_EPOCH = datetime.date(1970, 1, 1)

# Lines the dumps hold beyond the synthetic data itself. Light users rate at
# most MIN_RATINGS items, so the filter drops them and the fit sees exactly
# the synthetic users.
DEFECTS = dict(
    light_users=40,
    duplicates=200,
    self_loops=50,
    malformed_ratings=160,
    malformed_trust=40,
)


def half_year_starts(count: int) -> list[int]:
    """Days since 1970 of the first ``count`` half-year starts from 2000-01-01."""
    return [(datetime.date(2000 + i // 2, 7 if i % 2 else 1, 1) - _EPOCH).days for i in range(count)]


@dataclass(frozen=True)
class RawDumps:
    ratings_path: Path
    trust_path: Path
    rating_lines: int
    trust_lines: int
    malformed: int
    cutoffs: list[int]


def _bad_rating(user: str, item: str, date: str, kind: int) -> str:
    return (
        f"{user}\t{item}\t4",  # missing field
        f"{user}\t{item}\tfive\t{date}",  # non-numeric value
        f"{user}\t{item}\t3\t2003-02-30",  # impossible date
        f"{user}\t{item}\tnan\t{date}",  # non-finite value
    )[kind % 4]


def _bad_trust(user_a: str, user_b: str, date: str, kind: int) -> str:
    return (f"{user_a}\t{user_b}", f"{user_a}\t{user_b}\t2004-13-01")[kind % 2]


def _interleave(rng, good: list[str], bad: list[str]) -> list[str]:
    lines = good + bad
    order = rng.permutation(len(lines))
    return [lines[i] for i in order]


def _iso(day: int) -> str:
    return (_EPOCH + datetime.timedelta(days=day)).isoformat()


def write_raw_dumps(directory: Path, seed: int, split, trust) -> RawDumps:
    """Write the synthetic timeline as Epinions-style dumps (ISO dates, tabs).

    Bin t becomes the t-th half-year from 2000-01-01: every observation of
    the split (train and test) is one rating line, and every trust edge one
    line dated in the bin it appears in. The dumps also hold exact counts
    of light users' ratings, duplicate trust pairs (some reversed, dated no
    earlier than the original), self-loops and malformed lines.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A6E]))
    directory.mkdir(parents=True, exist_ok=True)
    N = split.train.N
    starts = half_year_starts(N + 1)

    def day_in(t, size=None):
        return rng.integers(starts[t], starts[t + 1], size=size)

    good, observed = [], []
    for t in range(N):
        for half in (split.train, split.test):
            users, items, values = half.bin(t)
            days = day_in(t, users.size)
            good += [
                f"u{u:05d}\ti{j:05d}\t{v!r}\t{_iso(d)}"
                for u, j, v, d in zip(users.tolist(), items.tolist(), values.tolist(), days.tolist())
            ]
            observed += list(zip(users.tolist(), items.tolist(), days.tolist()))
    for u in range(DEFECTS["light_users"]):
        for _ in range(int(rng.integers(1, MIN_RATINGS + 1))):
            good.append(f"v{u:05d}\ti{int(rng.integers(split.train.n)):05d}\t"
                        f"{float(rng.normal())!r}\t{_iso(int(day_in(0)))}")
    picks = rng.integers(0, len(observed), size=DEFECTS["malformed_ratings"])
    bad = []
    for kind, i in enumerate(picks.tolist()):
        u, j, d = observed[i]
        bad.append(_bad_rating(f"u{u:05d}", f"i{j:05d}", _iso(d), kind))
    rating_lines = _interleave(rng, good, bad)
    ratings_path = directory / "ratings.tsv"
    ratings_path.write_text("\n".join(rating_lines) + "\n")

    edges, created = [], []
    seen = sp.csr_matrix((trust.m, trust.m))
    for t in range(N):
        new = sp.triu(trust.graph(t) - seen).tocoo()
        edges += list(zip(new.row.tolist(), new.col.tolist()))
        created += [t] * new.nnz
        seen = trust.graph(t)
    ends = [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, (rng.random(len(edges)) < 0.5).tolist())]
    dated = [int(day_in(t)) for t in created]
    good = [f"u{a:05d}\tu{b:05d}\t{_iso(d)}" for (a, b), d in zip(ends, dated)]
    for i in rng.choice(len(edges), size=DEFECTS["duplicates"], replace=False).tolist():
        a, b = edges[i] if rng.random() < 0.5 else edges[i][::-1]
        good.append(f"u{a:05d}\tu{b:05d}\t{_iso(int(rng.integers(dated[i], starts[N])))}")
    for u in rng.choice(trust.m, size=DEFECTS["self_loops"], replace=False).tolist():
        good.append(f"u{u:05d}\tu{u:05d}\t{_iso(int(day_in(0)))}")
    bad = [
        _bad_trust(f"u{a:05d}", f"u{b:05d}", _iso(starts[0]), kind)
        for kind, (a, b) in enumerate(edges[: DEFECTS["malformed_trust"]])
    ]
    trust_lines = _interleave(rng, good, bad)
    trust_path = directory / "trust.tsv"
    trust_path.write_text("\n".join(trust_lines) + "\n")

    return RawDumps(
        ratings_path=ratings_path,
        trust_path=trust_path,
        rating_lines=len(rating_lines),
        trust_lines=len(trust_lines),
        malformed=DEFECTS["malformed_ratings"] + DEFECTS["malformed_trust"],
        cutoffs=starts[1:N],
    )


def build_inputs(workload: Workload, seed: int, workdir: Path):
    """Everything the workload's passes take as input, built from ``seed``.

    Returns ``(split, trust, dumps)``; ``dumps`` is None unless the workload
    ingests.
    """
    split, trust, _ = experiment.synth_generate(seed=seed, **workload.synth)
    dumps = write_raw_dumps(workdir / "raw", seed, split, trust) if workload.ingest else None
    return split, trust, dumps


# One pass ---------------------------------------------------------------------

@dataclass
class PassResult:
    run_id: str
    values: dict = field(default_factory=dict)  # exact outputs: RMSEs, counts
    checks: list = field(default_factory=list)  # (name, ok, detail)
    solves: int = 0
    solves_failed: int = 0
    operations: int = 0
    probe: Optional[tuple] = None  # (train, factors, trust) for operator microtimings

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _same_bits(a: domain.FactorTimeline, b: domain.FactorTimeline) -> bool:
    return a.N == b.N and all(
        p.U.shape == q.U.shape and p.V.shape == q.V.shape
        and p.U.tobytes() == q.U.tobytes() and p.V.tobytes() == q.V.tobytes()
        for p, q in zip(a, b)
    )


def _checkpoint(tracer: Tracer, result: PassResult, factors, directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    with tracer.span("phase.ckpt_write"):
        factorize.save_factors(directory, factors)
    result.values["ckpt_bytes"] = sum(p.stat().st_size for p in directory.iterdir())
    with tracer.span("phase.ckpt_read"):
        loaded = factorize.load_factors(directory)
    result.check("load_factors returns the saved factors bit for bit", _same_bits(factors, loaded))
    result.operations += 2


class _ParseCounter(logging.Handler):
    """Sums the malformed and total row counts the parsers log while attached.

    The parsers log both counts only for a file with malformed rows, which
    both dumps always have.
    """

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.malformed = 0
        self.rows = 0

    def emit(self, record) -> None:
        if record.msg.startswith("%s: skipped %d malformed rows of %d"):
            self.malformed += int(record.args[1])
            self.rows += int(record.args[2])

    def __enter__(self):
        ingest.logger.addHandler(self)
        return self

    def __exit__(self, *exc) -> None:
        ingest.logger.removeHandler(self)


def _same_timelines(built, loaded) -> bool:
    ratings_a, trust_a, users_a, items_a = built
    ratings_b, trust_b, users_b, items_b = loaded
    if (ratings_a.m, ratings_a.n, ratings_a.N) != (ratings_b.m, ratings_b.n, ratings_b.N):
        return False
    for t in range(ratings_a.N):
        for a, b in zip(ratings_a.bin(t), ratings_b.bin(t)):
            if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                return False
        if (trust_a.graph(t) != trust_b.graph(t)).nnz:
            return False
    return users_a == users_b and items_a == items_b


def _same_as_generated(built, split, trust) -> bool:
    """The binned dumps hold exactly the synthetic observations and trust."""
    timeline, ingested_trust, _, _ = built
    if (timeline.m, timeline.n, timeline.N) != (split.train.m, split.train.n, split.train.N):
        return False
    for t in range(timeline.N):
        halves = [split.train.bin(t), split.test.bin(t)]
        users, items, values = (np.concatenate([h[i] for h in halves]) for i in range(3))
        order = np.lexsort((items, users))
        got = timeline.bin(t)
        if not all(np.array_equal(a, b[order]) for a, b in zip(got, (users, items, values))):
            return False
        if (ingested_trust.graph(t) != trust.graph(t)).nnz:
            return False
    return True


def _ingest(dumps: RawDumps, generated, seed: int, tracer: Tracer, workdir: Path, result: PassResult):
    """Ingest the dumps as the package's CLI does; return the split and trust to fit."""
    dataset_dir = workdir / "dataset"
    shutil.rmtree(dataset_dir, ignore_errors=True)
    with _ParseCounter() as parsed, tracer.span("phase.ingest"):
        ratings = ingest.parse_ratings(dumps.ratings_path)
        edges = ingest.parse_trust(dumps.trust_path)
        kept = ingest.filter_min_ratings(ratings, MIN_RATINGS)
        built = ingest.bin_timelines(kept, edges, dumps.cutoffs)
        ingest.save_dataset(dataset_dir, *built)
        loaded = ingest.load_dataset(dataset_dir)
        split = ingest.split_train_test(loaded[0], TRAIN_FRACTION, seed)
    result.operations += 7
    result.values.update(
        rows_read=parsed.rows,
        rows_malformed=parsed.malformed,
        ratings_parsed=len(ratings),
        ratings_kept=len(kept),
    )
    result.check("ingested timeline equals the generated one", _same_as_generated(built, *generated))
    result.check("load_dataset returns what bin_timelines built", _same_timelines(built, loaded))
    result.check(
        "ingest.rows_malformed equals the malformed lines written",
        parsed.malformed == dumps.malformed,
        f"{parsed.malformed} logged, {dumps.malformed} written",
    )
    written = dumps.rating_lines + dumps.trust_lines
    result.check(
        "ingest.rows_read equals the lines written",
        parsed.rows == written,
        f"{parsed.rows} logged, {written} written",
    )
    return split, loaded[1]


def run_pass(workload: Workload, inputs, seed: int, tracer: Tracer, workdir: Path, run_id: str) -> PassResult:
    tracer.run_id = run_id
    result = PassResult(run_id)
    split, trust, dumps = inputs
    if workload.ingest:
        split, trust = _ingest(dumps, (split, trust), seed, tracer, workdir, result)
    config = config_for(seed)
    with tracer.span("phase.init"):
        factors = factorize.init_timeline(split, config)
        static = experiment.run_static(split, config, factors=factors)
    result.operations += 2
    rmse = {"rmse_static": static.rmse_weighted}
    social = {}
    for lam in workload.lambdas:
        with tracer.span("phase.solve_dynamic" if lam == 0 else "phase.solve_social", lam=lam):
            run = experiment.run_dynamic(split, trust, config, lam, factors=factors)
        result.operations += 1
        result.solves += 1
        # run_dynamic reports a solve that hit max_iter as "ok", so the
        # iteration count is checked here as well.
        if run.status != "ok" or run.iterations >= config.max_iter:
            result.solves_failed += 1
        result.values[f"status[lam={lam}]"] = run.status
        result.values[f"iterations[lam={lam}]"] = run.iterations
        if lam == 0:
            rmse["rmse_dynamic"] = run.rmse_weighted
        else:
            social[lam] = run
    if social:
        best = min(social.values(), key=lambda r: r.rmse_weighted)
        rmse["rmse_social"] = best.rmse_weighted
        checkpointed = best.factors
    else:
        checkpointed = factors
    result.values.update(rmse)
    result.check("RMSEs are finite", all(np.isfinite(v) for v in rmse.values()), repr(rmse))
    if workload.rmse_ordered:
        result.check(
            "rmse_static > rmse_dynamic > rmse_social",
            rmse["rmse_static"] > rmse["rmse_dynamic"] > rmse["rmse_social"],
            repr(rmse),
        )
    if workload.checkpoint:
        _checkpoint(tracer, result, checkpointed, workdir / "ckpt")
    result.probe = (split.train, factors, trust)
    return result
