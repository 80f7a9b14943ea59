"""Check that the benchmark is steady: spreads within bounds, exact counts repeat.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workloads fit_drift --seeds 1-5

For each workload it runs ``run.py --trace 0`` once per seed, one run at a
time, and reports for every end-to-end metric the median and the distance
between the first and third quartile as a share of the median (the spread),
against the metric's bound in BENCHMARK.json. It then runs ``--trace 1``
twice at the first seed and requires the outputs that must not vary (RMSEs,
iterations, evaluations, ALS half-steps, malformed-row counts) to be
identical. Exits 1 if a run fails, a spread exceeds its bound, or an exact
output differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
EXACT_PER_LAYER = (
    "optim.iterations", "optim.evaluations", "factorize.halfsteps", "ingest.rows_malformed",
    "smoother.fg_calls", "laplacian.apply_calls", "factorize.ckpt_bytes",
)


def _seeds(spec: str) -> list[int]:
    """Seeds ``lo..hi`` from ``"lo-hi"``."""
    lo, hi = spec.split("-")
    return list(range(int(lo), int(hi) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return None, []
    result = json.loads(lines[-1])
    exact = [line for line in lines if line.startswith("exact ")]
    return result, exact


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            result, _ = _run(workload, seed, spec["run_seconds"], 0)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed or incorrect: {result}")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            s = spread(vals)
            verdict = "ok" if s <= metric["bound"] / 3 else ("within bound" if s <= metric["bound"] else "TOO WIDE")
            if s > metric["bound"]:
                ok = False
            print(f"{workload} {metric['name']}: median {statistics.median(vals):.4g} {metric['unit']}, "
                  f"spread {s:.3f} (bound {metric['bound']}) {verdict}")
        runs = [_run(workload, seeds[0], spec["run_seconds"], 1) for _ in range(2)]
        if any(r is None for r, _ in runs):
            ok = False
            print(f"{workload}: a traced run failed")
            continue
        (a, exact_a), (b, exact_b) = runs
        counts_a = {n: a["metrics"][n]["value"] for n in EXACT_PER_LAYER}
        counts_b = {n: b["metrics"][n]["value"] for n in EXACT_PER_LAYER}
        same = exact_a == exact_b and counts_a == counts_b
        ok = ok and same
        print(f"{workload} seed {seeds[0]} traced twice: exact outputs "
              f"{'repeat' if same else 'DIFFER'}: {counts_a}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
