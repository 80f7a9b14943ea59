"""One benchmark run of one workload: set-up, passes, metrics and checks."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import layers
from .tracing import Tracer, rebound
from .workloads import PassResult, Workload, build_inputs, run_pass

SETUP_REPS = 5
# Every untraced run takes the median of at least this many passes.
MIN_PASSES = 3
_IMPORT_PROBE = "import time; t = time.perf_counter(); import socialdmf; print(time.perf_counter() - t)"

# End-to-end phase metrics and the harness spans each one sums.
PHASES = {
    "init_s": "phase.init",
    "solve_dynamic_s": "phase.solve_dynamic",
    "solve_social_s": "phase.solve_social",
    "ingest_s": "phase.ingest",
    "ckpt_write_s": "phase.ckpt_write",
    "ckpt_read_s": "phase.ckpt_read",
}

UNITS = {"peak_rss_mb": "MB", "solves_failed_ratio": "ratio"}

# Per-module figures fixed by the seed's input, so they have no better
# direction: every traced run prints them, BENCHMARK.json does not declare them.
INPUT_FIGURES = {"laplacian.edges": "count", "ingest.rows_read": "count", "ingest.kept_ratio": "ratio"}


def _unit(name: str) -> str:
    if name.startswith("rmse_"):
        return "rmse"
    return UNITS.get(name, "s")


@dataclass
class Report:
    metrics: dict
    printed: list  # (name, value, unit) for every metric the workload exercises
    checks: list  # (name, ok, detail)
    notes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Bench:
    def __init__(self, workload: Workload, seed: int, root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.workdir = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
        self.out_dir = root / ".perfbench_out"
        self.tracer = Tracer()
        self.inputs = None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _import_seconds(self) -> float:
        """Time to import the package in a fresh interpreter."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=self.root,
            capture_output=True, text=True, check=True, timeout=120,
        )
        return float(child.stdout)

    def _setup(self) -> tuple[list[float], list[str]]:
        """Import and build the inputs SETUP_REPS times; return each time."""
        times, run_ids = [], []
        for rep in range(SETUP_REPS):
            self.tracer.run_id = f"setup-{rep}"
            run_ids.append(self.tracer.run_id)
            self.inputs = None
            import_s = self._import_seconds()
            start = time.perf_counter()
            self.inputs = build_inputs(self.workload, self.seed, self.workdir)
            times.append(import_s + time.perf_counter() - start)
        return times, run_ids

    def _pass(self, run_id: str) -> PassResult:
        return run_pass(self.workload, self.inputs, self.seed, self.tracer, self.workdir, run_id)

    def _phases(self, run_id: str) -> dict[str, float]:
        out = {}
        for metric, span in PHASES.items():
            times = [s.duration for s in self.tracer.select(run_id, span)]
            if times:
                out[metric] = sum(times)
        out["total_s"] = sum(out.values())
        return out

    def untraced(self, seconds: float) -> Report:
        setup_times, _ = self._setup()
        passes: list[PassResult] = []
        start = time.perf_counter()
        while True:
            result = self._pass(f"pass-{len(passes)}")
            result.probe = None  # keep only exact outputs, so peak RSS is one pass's
            passes.append(result)
            elapsed = time.perf_counter() - start
            # Past the minimum, start another pass only if it should end within the budget.
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        per_pass = [self._phases(p.run_id) for p in passes]
        metrics = {name: statistics.median(pp[name] for pp in per_pass) for name in per_pass[0]}
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics.update({k: v for k, v in passes[0].values.items() if k.startswith("rmse_")})
        solves = sum(p.solves for p in passes)
        failed = sum(p.solves_failed for p in passes)
        if solves:
            metrics["solves_failed_ratio"] = failed / solves
        checks = [c for p in passes for c in p.checks]
        checks.append((
            "every pass gives the same exact outputs",
            all(p.values == passes[0].values for p in passes),
            "",
        ))
        report = Report(
            metrics=metrics,
            printed=[(n, metrics[n], _unit(n)) for n in self.workload.reports],
            checks=checks,
            attempted=sum(p.operations for p in passes),
            failed=failed,
        )
        report.notes.append(
            f"passes {len(passes)}, total_s each {[pp['total_s'] for pp in per_pass]!r}; "
            "end-to-end times are medians over passes"
        )
        report.notes.append(f"setup_s each {setup_times!r}")
        report.notes += _exact_lines(passes[0])
        return report

    def traced(self) -> Report:
        with rebound(self.tracer):
            _, setup_ids = self._setup()
            traced = self._pass("traced")
        untraced = self._pass("untraced")

        metrics = layers.span_metrics(self.tracer, "traced", setup_ids)
        train, factors, trust = traced.probe
        problem = layers.probe_problem(train, factors, trust, self.workload.probe_lam, self.seed)
        metrics.update(layers.operator_metrics(problem, self.seed))
        metrics.update(layers.computed_costs(problem))
        metrics["laplacian.edges"] = sum(op.edge_count for op in problem.laplacians)
        metrics["factorize.ckpt_bytes"] = traced.values.get("ckpt_bytes", 0)
        values = traced.values
        metrics["ingest.rows_read"] = values.get("rows_read", 0)
        metrics["ingest.rows_malformed"] = values.get("rows_malformed", 0)
        parsed = values.get("ratings_parsed", 0)
        metrics["ingest.kept_ratio"] = values["ratings_kept"] / parsed if parsed else 0.0
        metrics["experiment.solves_failed_ratio"] = (
            traced.solves_failed / traced.solves if traced.solves else 0.0
        )
        traced_total = self._phases("traced")["total_s"]
        untraced_total = self._phases("untraced")["total_s"]
        metrics["trace.overhead_ratio"] = traced_total / untraced_total

        self.out_dir.mkdir(exist_ok=True)
        trace_path = self.out_dir / f"trace-{self.workload.name}-seed{self.seed}.jsonl"
        self.tracer.write(trace_path)

        checks = traced.checks + untraced.checks
        checks.append((
            "traced and untraced passes give the same exact outputs",
            traced.values == untraced.values,
            "",
        ))
        report = Report(
            metrics=metrics,
            printed=[(n, v, INPUT_FIGURES.get(n, "")) for n, v in metrics.items()],
            checks=checks,
            attempted=traced.operations + untraced.operations,
            failed=traced.solves_failed + untraced.solves_failed,
        )
        report.notes.append(
            f"tracing overhead: traced total_s {traced_total!r} vs untraced {untraced_total!r}"
        )
        for span in self.tracer.select("traced", "optim.lbfgs"):
            report.notes.append(
                "solve raw MinimizeResult.status={status} iterations={iterations} "
                "evaluations={evaluations}".format(**span.attrs)
            )
        report.notes += _exact_lines(traced)
        report.notes.append(f"spans written to {trace_path}")
        return report


def _exact_lines(result: PassResult) -> list[str]:
    """Outputs that must repeat exactly at a fixed seed, one per line."""
    return [f"exact {name} {value!r}" for name, value in sorted(result.values.items())]
