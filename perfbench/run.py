"""Benchmark harness for socialdmf: one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit_drift --seed 1 --seconds 36 --trace 0

``--trace 0`` measures end to end: it imports the package in a fresh
interpreter and builds the workload's inputs from the seed, five times
(``setup_s`` is the median), then runs at least three whole passes, and
more while another would end within ``--seconds``, and reports medians over
passes.
``--trace 1`` runs one pass with the package's
public functions rebound to record spans, then one untraced pass to give the
tracing overhead, and reports the per-module metrics. Spans are written to
``.perfbench_out/``.

Every run prints ``metric <name> <value> <unit>`` lines, the machine context
and each correctness check, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` holding exactly the
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics declared in
``BENCHMARK.json``. It exits 1 when a correctness check fails and 2 when the
package or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# The BLAS calls work on k = 10 blocks, too small to gain from a second thread;
# on a shared 2-core host one thread made passes faster and less variable.
BLAS_THREADS = 1
# Pinned before numpy loads, so every BLAS pool starts with this many threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "socialdmf" / "__init__.py").is_file():
        _fail(f"no socialdmf package under {ROOT / 'src'}; run from a full checkout")
    if not spec_path.is_file():
        _fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy
    import scipy

    from perfbench.bench import Bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(
        f"context workload={args.workload} seed={args.seed} trace={args.trace} nproc={NPROC} "
        f"blas_threads={BLAS_THREADS} numpy={numpy.__version__} scipy={scipy.__version__} "
        f"python={sys.version.split()[0]}"
    )
    bench = Bench(WORKLOADS[args.workload], args.seed, ROOT)
    try:
        if args.trace:
            report = bench.traced()
            declared = spec["per_layer"]
        else:
            report = bench.untraced(args.seconds)
            declared = spec["end_to_end"]
    finally:
        bench.close()

    units = {m["name"]: m["unit"] for m in declared}
    for name, value, unit in report.printed:
        print(f"metric {name} {value!r} {unit or units[name]}")
    for name, ok, detail in report.checks:
        print(f"check {'ok' if ok else 'FAILED'}: {name}" + (f" ({detail})" if detail and not ok else ""))
    for line in report.notes:
        print(line)
    correct = all(ok for _, ok, _ in report.checks)
    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            m["name"]: {"value": report.metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
