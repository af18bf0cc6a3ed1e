"""Span tracer for the benchmark's per-layer run.

Public spatreg functions are wrapped from outside the package: while the
tracer is active, every spatreg module attribute that names a traced
function is rebound to a wrapper, so each caller (for example
`spatreg.estimators.eval_kernel`, `spatreg.inference.jackknife_residuals`,
`spatreg.dgp.spatial_ma`) resolves the wrapper. Leaving the context restores
the originals.

Each call becomes a span with name, start, end and parent, kept in memory.
A span's self time is its duration minus the durations of its child spans.
A memory tracer also runs tracemalloc while active, and a span's peak is the
highest traced memory above its starting level while it was open; tracemalloc
slows allocation-heavy code, so times are taken from a tracer without it.
Counters are taken at the same boundaries from the call arguments and results.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

TRACED = (
    ("kernels", "eval_kernel"),
    ("estimators", "density_estimate"),
    ("estimators", "nw_mean"),
    ("estimators", "jackknife_mean"),
    ("estimators", "jackknife_residuals"),
    ("estimators", "variance_estimate"),
    ("estimators", "v4_estimate"),
    ("dgp", "simulate_dataset"),
    ("dgp", "sample_locations"),
    ("dgp", "spatial_ma"),
    ("dgp", "gen_regression"),
    ("dgp", "dei_metrics"),
    ("inference", "confidence_band"),
    ("bandwidth", "select_two_stage"),
    ("bandwidth", "adjacent_distances"),
    ("montecarlo", "run_coverage_experiment"),
    ("montecarlo", "run_loss_curves"),
    ("data", "read_dataset_csv"),
    ("data", "write_dataset_csv"),
    ("cli", "main"),
)

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    mem_start: int
    mem_peak: int
    end: float = math.nan
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def peak_mb(self) -> float:
        return (self.mem_peak - self.mem_start) / MIB

    def record(self) -> dict:
        return {"name": self.name, "parent": self.parent, "start": self.start,
                "end": self.end, "self_s": self.self_s, "peak_mb": self.peak_mb}


def _fingerprint(dataset) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for arr in (dataset.locations, dataset.x, dataset.y):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


def _smoothed_values(name: str, args: dict) -> int:
    """Kernel-smoothed values the estimator's definition asks for.

    Counted at the outermost estimator call only, so the count does not
    depend on how one estimator is built from another. Residuals are two
    smoothed means per observation.
    """
    n = args["dataset"].n
    if name == "jackknife_residuals":
        return 2 * n
    residual_values = 2 * n if args.get("residuals", 0) is None else 0
    if name == "v4_estimate":
        lo, hi = args["interval"]
        x = args["dataset"].x
        inside = int(np.count_nonzero((x >= lo) & (x <= hi)))
        return residual_values + (inside if args["variance_at_observations"] is None else 0)
    points = int(np.size(args["design_points"]))
    if name == "jackknife_mean":
        return 2 * points
    return points + residual_values  # density_estimate, nw_mean, variance_estimate


class Tracer:
    """Collects spans and counters while active; see the module docstring."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._estimator_depth = 0
        self._distinct: dict[str, set] = defaultdict(set)
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def active(self):
        if self.memory:
            tracemalloc.start()
        self._install()
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._restore):
                setattr(module, attr, original)
            self._restore.clear()
            if self.memory:
                tracemalloc.stop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                self.spans[parent].mem_peak = max(self.spans[parent].mem_peak, peak)
            tracemalloc.reset_peak()
        self.spans.append(Span(name, parent, time.perf_counter(), current, current))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span.end = end
        if self.memory:
            span.mem_peak = max(span.mem_peak, tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.child_s += end - span.start
            parent.mem_peak = max(parent.mem_peak, span.mem_peak)

    def _install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "spatreg" or key.startswith("spatreg.")]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[f"spatreg.{module_name}"], attr)
            wrapper = self._wrap(module_name, attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def _wrap(self, module_name: str, attr: str, fn):
        name = f"{module_name}.{attr}"
        signature = inspect.signature(fn)
        estimator = module_name == "estimators"
        counted = estimator or attr in ("eval_kernel", "spatial_ma") or module_name == "montecarlo"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(module_name, attr, bound.arguments)
            index = self._open(name)
            self._estimator_depth += estimator
            try:
                result = fn(*args, **kwargs)
            finally:
                self._estimator_depth -= estimator
                self._close(index)
            if module_name == "montecarlo":
                self.counts["montecarlo.degeneracies"] += result.degeneracies
            return result

        return wrapper

    def _count(self, module_name: str, attr: str, args: dict) -> None:
        counts = self.counts
        if attr == "eval_kernel":
            size = int(np.size(args["z"]))
            counts["kernels.eval_kernel.evals"] += size
            if self._estimator_depth:
                counts["estimators.kernel_evals"] += size
        elif module_name == "estimators":
            if not self._estimator_depth:
                counts["estimators.smoothed_values"] += _smoothed_values(attr, args)
            if attr == "jackknife_residuals":
                self._seen("residuals", _fingerprint(args["dataset"]),
                           args["mean_bandwidth"], args["kernel"])
            elif attr == "nw_mean":
                points = np.asarray(args["design_points"], dtype=float).tobytes()
                self._seen("nw_mean", _fingerprint(args["dataset"]), points,
                           args["bandwidth"], args["kernel"])
        elif attr == "spatial_ma" and args["innovations"] is None:
            sites = args["sites"]
            counts["dgp.spatial_ma.cells_used"] += 9 * sites.n
            counts["dgp.spatial_ma.cells_drawn"] += (sites.config.side + 2) ** 2
        elif module_name == "montecarlo":
            counts["montecarlo.replications"] += args["config"].replications

    def _seen(self, what: str, *key) -> None:
        self.counts[f"{what}.calls"] += 1
        self._distinct[what].add(key)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure the spans and counters give, by metric name."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        peak_mb: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
            total_s[span.name] += span.end - span.start
            peak_mb[span.name] = max(peak_mb[span.name], span.peak_mb)
        out: dict[str, float] = {}
        for name in [f"{m}.{a}" for m, a in TRACED] + ["harness"]:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
            out[f"{name}.peak_mb"] = peak_mb[name]
        c = self.counts
        out["kernels.eval_kernel.evals"] = c["kernels.eval_kernel.evals"]
        out["estimators.kernel_evals_per_output"] = _ratio(
            c["estimators.kernel_evals"], c["estimators.smoothed_values"])
        out["estimators.residuals.distinct_ratio"] = _ratio(
            len(self._distinct["residuals"]), c["residuals.calls"])
        out["estimators.nw_mean.distinct_ratio"] = _ratio(
            len(self._distinct["nw_mean"]), c["nw_mean.calls"])
        out["dgp.spatial_ma.draw_use_ratio"] = _ratio(
            c["dgp.spatial_ma.cells_used"], c["dgp.spatial_ma.cells_drawn"])
        out["montecarlo.replications"] = c["montecarlo.replications"]
        out["montecarlo.degeneracies"] = c["montecarlo.degeneracies"]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
