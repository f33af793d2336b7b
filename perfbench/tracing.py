"""Spans and counters recorded from outside the program.

Each layer's public function is replaced, under every name a `permclass`
module looks it up by, with a wrapper that records a span (name, start,
end, parent span, run id) or updates a counter.  Wrappers are removed
again by `patched`'s exit, and layers whose function no longer exists are
skipped.  Spans are kept in memory; self time is a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import sys
import tracemalloc
from time import perf_counter

import numpy as np

ROOT = "cli"

# span name -> (defining module, function name)
LAYERS = {
    "experiments.run_chequerboard": ("permclass.experiments", "run_chequerboard"),
    "datasets.load_features_csv": ("permclass.datasets", "load_features_csv"),
    "model_select.cross_validate": ("permclass.model_select", "cross_validate"),
    "classify.fit": ("permclass.classify", "fit"),
    "classify.predict": ("permclass.classify", "predict"),
    "classify.sequential_partition": ("permclass.classify", "sequential_partition"),
    "cyclic.build_ratio_table": ("permclass.cyclic", "build_ratio_table"),
    "cyclic.ratio_from_kt": ("permclass.cyclic", "ratio_from_kt"),
    "cyclic.cyclic_ratio_from_kt": ("permclass.cyclic", "cyclic_ratio_from_kt"),
    "kernels.gram": ("permclass.kernels", "gram"),
    "kernels.kernel_column": ("permclass.kernels", "kernel_column"),
}

# (metric, unit, better); every name here is emitted by a traced run
PER_LAYER = [
    ("cyclic.ratio_from_kt.calls", "count", "lower"),
    ("cyclic.ratio_from_kt.self_s", "s", "lower"),
    ("cyclic.ratio_from_kt.p50_us", "us", "lower"),
    ("cyclic.ratio_from_kt.p99_us", "us", "lower"),
    ("cyclic.ratio_from_kt.negative_frac", "frac", "lower"),
    ("cyclic.build_ratio_table.calls", "count", "lower"),
    ("cyclic.build_ratio_table.self_s", "s", "lower"),
    ("cyclic.build_ratio_table.p50_ms", "ms", "lower"),
    ("cyclic.build_ratio_table.peak_alloc_mb", "MB", "lower"),
    ("cyclic.build_ratio_table.sparse_frac", "frac", "lower"),
    ("kernels.gram.calls", "count", "lower"),
    ("kernels.gram.self_s", "s", "lower"),
    ("kernels.gram.distinct_frac", "frac", "higher"),
    ("kernels.kernel_column.calls", "count", "lower"),
    ("kernels.kernel_column.self_s", "s", "lower"),
    ("cyclic.cyclic_ratio_from_kt.calls", "count", "lower"),
    ("cyclic.cyclic_ratio_from_kt.self_s", "s", "lower"),
    ("cyclic.cyclic_ratio_from_kt.p50_ms", "ms", "lower"),
    ("cyclic.cyclic_ratio_from_kt.repeat_block_frac", "frac", "lower"),
    ("classify.fit.calls", "count", "lower"),
    ("classify.fit.self_s", "s", "lower"),
    ("classify.predict.rows", "count", "higher"),
    ("classify.predict.self_s", "s", "lower"),
    ("classify.sequential_partition.self_s", "s", "lower"),
    ("model_select.cross_validate.candidates", "count", "higher"),
    ("model_select.cross_validate.self_s", "s", "lower"),
    ("model_select.cross_validate.invalid_frac", "frac", "lower"),
    ("cli.self_s", "s", "lower"),
    ("datasets.load_features_csv.self_s", "s", "lower"),
    ("experiments.run_chequerboard.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
]

# the program's sparse-path threshold, read at run time when it still exists
_HISTORIC_SPARSE_DENSITY = 0.25


@contextlib.contextmanager
def patched(make_wrapper):
    """Replace each layer function with `make_wrapper(span, fn)` everywhere.

    Every attribute of a loaded `permclass` module that is the original
    function object is replaced, so callers that imported the name see
    the wrapper too.
    """
    undo = []
    try:
        for span, (modname, fname) in LAYERS.items():
            original = getattr(importlib.import_module(modname), fname, None)
            if original is None:
                continue
            wrapper = make_wrapper(span, original)
            for name, module in list(sys.modules.items()):
                if not (name == "permclass" or name.startswith("permclass.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


class Tracer:
    """Span recorder.  A span is (name, start, end, parent index, run id)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.run_id = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)

        return traced

    def root(self, call):
        """Run `call()` as the root span of a new run id."""
        self.run_id += 1
        return self.wrap(ROOT, call)()

    def to_jsonl(self) -> str:
        keys = ("name", "start", "end", "parent", "run")
        return "".join(json.dumps(dict(zip(keys, s))) + "\n" for s in self.spans)


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def high_percentile(values) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile up to p99 with at least
    ten samples beyond it, or None when no such percentile lies above the
    median."""
    xs = np.sort(np.asarray(values, dtype=float))
    k = min(int(np.ceil(0.99 * xs.size)) - 1, xs.size - 11)
    if k <= (xs.size - 1) / 2:
        return None
    return 100.0 * k / (xs.size - 1), float(xs[k])


def span_metrics(spans: list, walls: dict[int, float], overhead_frac: float) -> dict:
    """Per-layer figures from the spans of traced runs.

    ``walls`` maps each run id to the run's wall time measured around the
    root span.  Counts are per run; self times are medians over runs;
    percentiles pool the inclusive durations of every call in every run.
    """
    out = {}
    n = len(walls)
    totals = {run: {} for run in walls}
    durations: dict[str, list[float]] = {}
    for (name, start, end, _, run), st in zip(spans, self_times(spans)):
        totals[run][name] = totals[run].get(name, 0.0) + st
        durations.setdefault(name, []).append(end - start)
    for name in set(LAYERS) | {ROOT}:
        out[f"{name}.self_s"] = float(np.median([t.get(name, 0.0) for t in totals.values()]))
        out[f"{name}.calls"] = len(durations.get(name, ())) / n
    unattributed = [(walls[run] - sum(t.values())) / walls[run]
                    for run, t in totals.items()]
    for name, scale, stat in (("cyclic.ratio_from_kt", 1e6, "us"),
                              ("cyclic.build_ratio_table", 1e3, "ms"),
                              ("cyclic.cyclic_ratio_from_kt", 1e3, "ms")):
        d = durations.get(name, [])
        out[f"{name}.p50_{stat}"] = float(np.median(d)) * scale if d else 0.0
    high = high_percentile(durations.get("cyclic.ratio_from_kt", []))
    out["cyclic.ratio_from_kt.p99_us"] = high[1] * 1e6 if high else 0.0
    out["trace.unattributed_frac"] = float(np.median(unattributed))
    out["trace.overhead_frac"] = overhead_frac
    return out


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def _digest(array) -> str:
    a = np.ascontiguousarray(array, dtype=float)
    return hashlib.sha1(str(a.shape).encode() + a.tobytes()).hexdigest()


class Counters:
    """Traffic and waste counters, plus peak allocation of each table build.

    Used in a pass of its own: hashing inputs and `tracemalloc` would
    distort the traced times.
    """

    def __init__(self):
        self.builds = self.sparse = 0
        self.peak_alloc = 0
        self.ratios = self.negative = 0
        self.grams = 0
        self.gram_keys: set = set()
        self.block_calls = 0
        self.block_keys: set = set()
        self.block_repeats = 0
        self.candidates = self.invalid = 0
        self.rows = 0

    def wrap(self, name, fn):
        hook = getattr(self, "_" + name.split(".")[1], None)
        return (lambda *a, **k: hook(fn, *a, **k)) if hook else fn

    def _build_ratio_table(self, fn, g, *args, **kwargs):
        tracemalloc.start()
        try:
            table = fn(g, *args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.peak_alloc = max(self.peak_alloc, peak)
        self.builds += 1
        G = np.asarray(g.entries)
        n = G.shape[0]
        order = getattr(table, "order", 0)
        if n > 1 and order >= 2:
            offdiag = np.count_nonzero(G) - np.count_nonzero(G.diagonal())
            cyclic = sys.modules["permclass.cyclic"]
            density = getattr(cyclic, "_SPARSE_DENSITY", _HISTORIC_SPARSE_DENSITY)
            self.sparse += offdiag <= density * n * (n - 1)
        return table

    def _ratio_from_kt(self, fn, table, *args, **kwargs):
        value = fn(table, *args, **kwargs)
        vals = np.asarray(value, dtype=float)
        self.ratios += vals.size
        self.negative += int(np.count_nonzero(vals < 0))
        return value

    def _gram(self, fn, kernel, points, *args, **kwargs):
        self.grams += 1
        to_dict = getattr(kernel, "to_dict", None)
        spec = json.dumps(to_dict(), sort_keys=True, default=str) if to_dict else repr(kernel)
        self.gram_keys.add((spec, _digest(points)))
        return fn(kernel, points, *args, **kwargs)

    def _cyclic_ratio_from_kt(self, fn, g, *args, **kwargs):
        self.block_calls += 1
        key = _digest(g.entries)
        self.block_repeats += key in self.block_keys
        self.block_keys.add(key)
        return fn(g, *args, **kwargs)

    def _cross_validate(self, fn, *args, **kwargs):
        report = fn(*args, **kwargs)
        results = getattr(report, "results", [])
        self.candidates += len(results)
        self.invalid += sum(1 for r in results if not getattr(r, "valid", True))
        return report

    def _predict(self, fn, *args, **kwargs):
        table = fn(*args, **kwargs)
        self.rows += int(np.shape(getattr(table, "probs", []))[0])
        return table

    def metrics(self) -> dict:
        return {
            "cyclic.build_ratio_table.peak_alloc_mb": self.peak_alloc / 2**20,
            "cyclic.build_ratio_table.sparse_frac": _frac(self.sparse, self.builds),
            "cyclic.ratio_from_kt.negative_frac": _frac(self.negative, self.ratios),
            "kernels.gram.distinct_frac": _frac(len(self.gram_keys), self.grams),
            "cyclic.cyclic_ratio_from_kt.repeat_block_frac":
                _frac(self.block_repeats, self.block_calls),
            "model_select.cross_validate.candidates": float(self.candidates),
            "model_select.cross_validate.invalid_frac": _frac(self.invalid, self.candidates),
            "classify.predict.rows": float(self.rows),
        }

    def bases(self) -> dict:
        """The denominators of the ratios above, for the report."""
        return {"tables_built": self.builds, "ratios_computed": self.ratios,
                "gram_calls": self.grams, "block_ratio_calls": self.block_calls,
                "cv_candidates": self.candidates}
