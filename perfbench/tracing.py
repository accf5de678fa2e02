"""Spans and counts at the layer boundaries of sidshrink, for the traced run.

Each wrapper is installed on the name a caller looks up at call time (the
module global that `from .x import f` created), so the production call path
runs unchanged with the wrapper in place. Spans are kept in memory and
written out when the run ends.
"""
from __future__ import annotations

import collections
import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass

from sidshrink.shrinkage import METHODS

BENCH, CLI, EST = "sidshrink.bench", "sidshrink.cli", "sidshrink.estimation"
BAYES, SHRINK = "sidshrink.bayes", "sidshrink.shrinkage"

# span name -> modules whose binding of the function's name is wrapped; the
# attribute is the last part of the span name. The linalg functions are
# wrapped only where bayes looks them up, so they count calls from the chain.
FUNCTIONS = {
    "bench.single_run": (BENCH,),
    "systems.sample_system": (BENCH,),
    "systems.simulate": (BENCH,),
    "systems.true_decomposition": (BENCH,),
    "estimation.assemble": (BENCH, CLI),
    "estimation.ls_estimate": (BENCH, CLI),
    # the estimation bindings are the ones rank_star calls once per iteration
    "estimation.estimate_noise": (BENCH, CLI, EST),
    "estimation.build_weights": (BENCH, CLI),
    "estimation.rank_star": (BENCH, CLI),
    "estimation.truncate_estimate": (BENCH, CLI, EST),
    "estimation.order_heuristic_neff": (BENCH, CLI),
    "estimation.order_midpoint": (BENCH, CLI),
    "shrinkage.shrink_estimate": (BENCH, CLI),
    "shrinkage.sure_select": (SHRINK,),
    "bayes.run_gibbs": (BENCH, CLI),
    "bayes.init_gibbs": (BAYES,),
    "bayes.step_gf": (BAYES,),
    "linalg.psd_sqrt": (BAYES,),
    "linalg.toeplitz_project": (BAYES,),
    "linalg.build_selectors": (BAYES,),
    "dataio.read_timeseries": (CLI,),
    "dataio.write_matrices": (CLI,),
    "cli.main": (CLI,),
}
LAYERS = ("bench", "systems", "estimation", "shrinkage", "bayes", "linalg", "dataio", "cli")

# shrink_estimate(h_fp_hat, weights, sigma_level, method) gets a span per method
SPLIT = {"shrinkage.shrink_estimate": lambda args, kwargs: kwargs.get("method", args[3])}
SPAN_NAMES = [
    span for name in FUNCTIONS
    for span in ([f"{name}.{m}" for m in METHODS] if name in SPLIT else [name])
]


def _count_iterations(result, counts):
    counts["bayes.iterations"] += result.chain_diagnostics.size - 1


def _count_selector_bytes(result, counts):
    counts["linalg.build_selectors.bytes"] += result.b_t.nbytes + result.b_w.nbytes


def _count_attempts(result, counts):
    record = result[0] if isinstance(result, tuple) else result
    counts["bench.attempts"] += record.attempts
    counts["bench.realizations"] += 1


HOOKS = {
    "bayes.run_gibbs": _count_iterations,
    "linalg.build_selectors": _count_selector_bytes,
    "bench.single_run": _count_attempts,
}

# metric name -> (unit, better), in the order BENCHMARK.json lists them
PER_LAYER = {}
for _span in SPAN_NAMES:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_span}.errors"] = ("count", "lower")
PER_LAYER.update({
    "bayes.iterations": ("count", "lower"),
    "linalg.build_selectors.bytes": ("B", "lower"),
    "estimation.rank_star.iterations": ("count", "lower"),
    "bench.attempts": ("count", "lower"),
    "bench.useful_attempt_ratio": ("ratio", "higher"),
    "trace.overhead_op_per_s": ("1/s", "lower"),
})


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: bool = False


class Tracer:
    """Wraps the functions in FUNCTIONS while installed; op_id tags the spans
    of the operation in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = collections.Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches = []

    def install(self) -> None:
        for name, modules in FUNCTIONS.items():
            attr = name.rsplit(".", 1)[1]
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(name, original))
                self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        split = SPLIT.get(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{split(args, kwargs)}" if split else name
            span = Span(span_name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(result, self.counts)
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s and errors per span name. Self time is a span's
        duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in SPAN_NAMES}
        for span, covered in zip(self.spans, child_time):
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += span.end - span.start - covered
            entry["errors"] += span.error
        return out

    def metrics(self, overhead_op_per_s: float) -> dict[str, float]:
        values = {}
        for name, entry in self.totals().items():
            for key, value in entry.items():
                values[f"{name}.{key}"] = value
        values["bayes.iterations"] = self.counts["bayes.iterations"]
        values["linalg.build_selectors.bytes"] = self.counts["linalg.build_selectors.bytes"]
        values["estimation.rank_star.iterations"] = sum(
            1 for s in self.spans
            if s.name == "estimation.estimate_noise" and s.parent is not None
            and self.spans[s.parent].name == "estimation.rank_star")
        attempts = self.counts["bench.attempts"]
        values["bench.attempts"] = attempts
        # no realizations were drawn when attempts is 0 (identify_long)
        values["bench.useful_attempt_ratio"] = (
            self.counts["bench.realizations"] / attempts if attempts else 0.0)
        values["trace.overhead_op_per_s"] = overhead_op_per_s
        return values

    def coverage_problems(self, expected_layers) -> list[str]:
        """A function of an expected layer that was never called, or one of
        another layer that was, means a call site moved: fail loudly rather
        than drop out of the trace."""
        problems = []
        for name, entry in self.totals().items():
            expected = name.split(".", 1)[0] in expected_layers
            if expected and entry["calls"] == 0:
                problems.append(f"trace: {name} recorded no calls")
            elif not expected and entry["calls"]:
                problems.append(f"trace: {name} recorded {entry['calls']} unexpected calls")
        return problems

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
