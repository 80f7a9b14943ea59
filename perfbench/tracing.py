"""In-memory spans, and rebinding of package functions to record them.

A span is one timed interval: name, start, end, parent span and run id,
plus optional attributes taken from the call's arguments or result. The
harness opens spans around its own calls into the package. In a traced
run it also rebinds public functions on their modules (``rebound``), so
each call made inside the package opens a child span. Every rebound
attribute is restored when the ``with`` block exits, so an untraced pass
that follows in the same process runs the unmodified code.

The harness is single-threaded (``init_timeline`` runs with ``n_jobs=1``),
so one stack of open spans is enough to assign parents.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    run_id: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time its direct children cover."""
        return self.duration - self.child_time


class Tracer:
    """Collects spans in memory; ``write`` dumps them as JSON lines."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), name, self.run_id, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_time += record.duration

    def wrap(self, name: str, fn: Callable, inspect: Optional[Callable] = None) -> Callable:
        """``fn`` with every call recorded as a span named ``name``.

        ``inspect(result, args, kwargs)`` may return attributes for the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if inspect is not None:
                    record.attrs.update(inspect(result, args, kwargs))
                return result

        return traced

    def select(self, run_id: str, name: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id and s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _halfsteps(result, args, kwargs):
    _, trace = result
    return {"halfsteps": len(trace) - 1}


def _lbfgs(result, args, kwargs):
    return {
        "status": result.status,
        "iterations": result.iterations,
        "evaluations": result.n_evaluations,
        "state_size": int(result.x.size),
        "memory": int(kwargs.get("memory", 10)),
    }


# (module, attribute, span name, inspect). Attributes are rebound on the
# module whose code looks them up, e.g. ``experiment.objective_and_gradient``
# rather than ``smoother.objective_and_gradient``, because ``experiment``
# imports the name directly.
TARGETS = (
    ("socialdmf.experiment", "synth_generate", "experiment.synth", None),
    ("socialdmf.experiment", "evaluate_rmse", "experiment.evaluate_rmse", None),
    ("socialdmf.factorize", "factorize_bin", "factorize.bin", _halfsteps),
    ("socialdmf.factorize", "align_factor_pair", "factorize.align", None),
    ("socialdmf.factorize", "save_factors", "factorize.save", None),
    ("socialdmf.factorize", "load_factors", "factorize.load", None),
    ("socialdmf.experiment", "SmootherProblem", "smoother.problem_build", None),
    ("socialdmf.experiment", "objective_and_gradient", "smoother.fg", None),
    ("socialdmf.smoother", "apply_process", "smoother.process", None),
    ("socialdmf.smoother", "apply_process_adjoint", "smoother.process_adjoint", None),
    ("socialdmf.smoother", "apply_qinv", "smoother.qinv", None),
    ("socialdmf.experiment", "build_timeline_laplacians", "laplacian.build", None),
    ("socialdmf.smoother", "apply_laplacian", "laplacian.apply", None),
    ("socialdmf.smoother", "laplacian_quadratic", "laplacian.quadratic", None),
    ("socialdmf.experiment", "lbfgs_minimize", "optim.lbfgs", _lbfgs),
    ("socialdmf.ingest", "parse_ratings", "ingest.parse_ratings", None),
    ("socialdmf.ingest", "parse_trust", "ingest.parse_trust", None),
    ("socialdmf.ingest", "filter_min_ratings", "ingest.filter", None),
    ("socialdmf.ingest", "bin_timelines", "ingest.bin", None),
    ("socialdmf.ingest", "save_dataset", "ingest.save_dataset", None),
    ("socialdmf.ingest", "load_dataset", "ingest.load_dataset", None),
    ("socialdmf.ingest", "split_train_test", "ingest.split", None),
)


@contextmanager
def rebound(tracer: Tracer, targets=TARGETS):
    """Rebind each target to a span-recording wrapper; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name, inspect in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, inspect))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
