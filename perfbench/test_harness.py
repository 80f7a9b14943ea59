"""Tests of the benchmark harness itself (not of the socialdmf package).

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import datetime
import importlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from perfbench import tracing, workloads
from perfbench.bench import MIN_PASSES, Bench
from perfbench.workloads import K, Workload

ROOT = Path(__file__).resolve().parent.parent

TINY = Workload(
    name="tiny",
    reports=("setup_s", "total_s", "ingest_s", "init_s", "solve_dynamic_s", "solve_social_s", "peak_rss_mb"),
    synth=dict(m=60, n=30, k=K, N=3, samples_per_bin=900, trust_edges=250, eta=0.01, noise_std=0.5),
    lambdas=(0.0, 0.1),
    ingest=True,
    checkpoint=True,
)


def _bench(tmp_path, workload=TINY, seed=3):
    bench = Bench(workload, seed, ROOT)
    bench.workdir = tmp_path / "work"
    bench.out_dir = tmp_path / "out"
    return bench


def _same_split(a, b):
    for half in ("train", "test"):
        x, y = getattr(a, half), getattr(b, half)
        for t in range(x.N):
            for u, v in zip(x.bin(t), y.bin(t)):
                if not np.array_equal(u, v):
                    return False
    return True


@pytest.mark.parametrize("name", ["fit_drift", "trust_dense"])
def test_fit_inputs_are_deterministic_under_a_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    split_a, trust_a, _ = workloads.build_inputs(workload, 5, tmp_path / "a")
    split_b, trust_b, _ = workloads.build_inputs(workload, 5, tmp_path / "b")
    split_c, _, _ = workloads.build_inputs(workload, 6, tmp_path / "c")
    assert _same_split(split_a, split_b)
    assert all((trust_a.graph(t) != trust_b.graph(t)).nnz == 0 for t in range(trust_a.N))
    assert not _same_split(split_a, split_c)


def test_raw_dumps_are_deterministic_under_a_seed(tmp_path):
    _, _, a = workloads.build_inputs(TINY, 5, tmp_path / "a")
    _, _, b = workloads.build_inputs(TINY, 5, tmp_path / "b")
    _, _, c = workloads.build_inputs(TINY, 6, tmp_path / "c")
    assert a.ratings_path.read_bytes() == b.ratings_path.read_bytes()
    assert a.trust_path.read_bytes() == b.trust_path.read_bytes()
    assert a.ratings_path.read_bytes() != c.ratings_path.read_bytes()


def _well_formed(fields, n_fields):
    if len(fields) != n_fields:
        return False
    try:
        datetime.date.fromisoformat(fields[-1])
        if n_fields == 4 and not np.isfinite(float(fields[2])):
            return False
    except ValueError:
        return False
    return True


def test_raw_dumps_hold_the_intended_defect_counts(tmp_path):
    split, trust, dumps = workloads.build_inputs(TINY, 2, tmp_path)
    defects = workloads.DEFECTS

    rating_lines = dumps.ratings_path.read_text().splitlines()
    good = [line.split("\t") for line in rating_lines if _well_formed(line.split("\t"), 4)]
    assert len(rating_lines) == dumps.rating_lines
    assert len(rating_lines) - len(good) == defects["malformed_ratings"]
    light = Counter(f[0] for f in good if f[0].startswith("v"))
    assert len(light) == defects["light_users"]
    assert max(light.values()) <= workloads.MIN_RATINGS
    assert len(good) - sum(light.values()) == split.train.total() + split.test.total()

    trust_lines = dumps.trust_path.read_text().splitlines()
    good = [line.split("\t") for line in trust_lines if _well_formed(line.split("\t"), 3)]
    assert len(trust_lines) - len(good) == defects["malformed_trust"]
    assert dumps.malformed == defects["malformed_ratings"] + defects["malformed_trust"]
    assert sum(f[0] == f[1] for f in good) == defects["self_loops"]
    pairs = Counter(tuple(sorted(f[:2])) for f in good if f[0] != f[1])
    assert sum(c - 1 for c in pairs.values()) == defects["duplicates"]
    assert len(pairs) == trust.graph(trust.N - 1).nnz // 2


def test_pass_ingests_exactly_the_generated_data(tmp_path):
    inputs = workloads.build_inputs(TINY, 4, tmp_path)
    dumps = inputs[2]
    result = workloads.run_pass(TINY, inputs, 4, tracing.Tracer(), tmp_path, "p")
    assert all(ok for _, ok, _ in result.checks), result.checks
    assert ("ingested timeline equals the generated one", True, "") in result.checks
    assert result.values["rows_read"] == dumps.rating_lines + dumps.trust_lines
    assert result.values["rows_malformed"] == dumps.malformed


def test_spans_nest_and_report_self_time():
    tracer = tracing.Tracer()
    tracer.run_id = "r"
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)
    assert tracer.select("r", "inner") == [inner]


def _originals():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.TARGETS
    }


def test_rebound_restores_every_attribute_even_on_error():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.rebound(tracer):
            assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
            raise RuntimeError("boom")
    assert _originals() == before


def test_traced_run_restores_attributes_so_the_untraced_pass_is_unmodified(tmp_path):
    before = _originals()
    bench = _bench(tmp_path)
    try:
        report = bench.traced()
    finally:
        bench.close()
    assert all(after is before[key] for key, after in _originals().items())
    traced_names = {s.name for s in bench.tracer.spans if s.run_id == "traced"}
    untraced_names = {s.name for s in bench.tracer.spans if s.run_id == "untraced"}
    assert {"smoother.fg", "optim.lbfgs", "factorize.bin", "laplacian.apply", "ingest.parse_ratings"} <= traced_names
    # The untraced pass saw only the harness's own phase spans.
    assert untraced_names and all(name.startswith("phase.") for name in untraced_names)
    assert all(ok for _, ok, _ in report.checks)
    assert report.metrics["optim.iterations"] > 0
    assert report.metrics["factorize.halfsteps"] > 0
    assert report.metrics["smoother.fg_calls"] == report.metrics["optim.evaluations"]
    assert (tmp_path / "out" / "trace-tiny-seed3.jsonl").exists()


def test_every_declared_metric_is_produced(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = _bench(tmp_path)
    try:
        untraced = bench.untraced(seconds=0)
    finally:
        bench.close()
    assert {m["name"] for m in spec["end_to_end"]} <= set(untraced.metrics)
    assert untraced.notes[0].startswith(f"passes {MIN_PASSES},")
    assert ("every pass gives the same exact outputs", True, "") in untraced.checks
    assert all(untraced.metrics[m["name"]] > 0 for m in spec["end_to_end"])
    bench = _bench(tmp_path)
    try:
        traced = bench.traced()
    finally:
        bench.close()
    assert {m["name"] for m in spec["per_layer"]} <= set(traced.metrics)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
