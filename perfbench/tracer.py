"""Spans around the public functions of each parafock module, recorded from outside.

The traced benchmark run wraps the public functions listed in FUNCTIONS and
METHODS without editing the package.  Modules bind imported names at import
time (``verify`` holds its own reference to ``build_generator``, ``cli`` to
``ALL_CHECKS``, and so on), so a wrapper replaces every reference to the
original object in every loaded ``parafock`` module, including references
held inside module-level tuples.  Per-pattern helpers such as
``structure_f`` and ``GZPattern`` are deliberately left alone: one battery
pass calls them about 300k times, and wrapping them would measure the
tracer instead of the engine.

A span records its name, start, end, parent and op id.  A span opened with
no parent starts a new op; every span below it shares that op id.  Spans
stay in memory until the run ends.  Counters that need the call's result
(basis size, nnz, rungs, ...) are computed after the span closes; the time
they take is stored as the span's ``tail`` and charged to the tracer, not
to the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("fockspace", "algebra", "zeromodes", "coherent", "specfun", "resolution", "verify", "cli")

# Ten suite names reported by verify.run_all, in acceptance order.
SUITES = (
    "triple_relations", "adjointness", "zero_modes", "coherent_norms", "eigen_residuals",
    "b2_elements", "bicoherent", "bessel_forms", "stieltjes_moments", "resolution_identity",
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    tail: float = 0.0


class Tracer:
    """In-memory span recorder with per-function counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ops = 0
        self._lens = (None, None)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            op = self._ops
            self._ops += 1
        else:
            op = self.spans[parent].op
        self.spans.append(Span(name, self.clock(), 0.0, parent, op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; a direct re-entry of ``name`` is one call."""

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].name == name:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, idx, args, kwargs, result)
                span = self.spans[idx]
                span.tail = self.clock() - span.end
            return result

        return functools.update_wrapper(traced, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the intervals its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += (s.end - s.start) + s.tail
    return [max(0.0, (s.end - s.start) - c) for s, c in zip(spans, covered)]


# ---------------------------------------------------------------------------
# counters computed from a call's arguments and result


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_basis(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.counts["fockspace.states_enumerated"] += result.size
    tr.distinct["fockspace.enumerate_basis"].add((result.p, result.cutoff))


def _count_generator(tr: Tracer, idx, args, kwargs, result) -> None:
    basis = _arg(args, kwargs, 0, "basis")
    tr.counts["algebra.nnz_built"] += result.nnz
    tr.distinct["algebra.build_generator"].add(
        (basis.p, basis.cutoff, _arg(args, kwargs, 1, "name"))
    )


def _count_touched(tr: Tracer, idx, args, kwargs, result) -> None:
    """Stored entries in the columns an apply multiplies by a nonzero input."""
    op, vec = args[0], _arg(args, kwargs, 1, "vec")
    x = np.asarray(getattr(vec, "coefficients", vec))
    cached_op, lens = tr._lens
    if cached_op is not op:
        lens = np.fromiter((len(op.column(c)) for c in range(op.dim)), dtype=np.int64, count=op.dim)
        tr._lens = (op, lens)
    tr.counts["algebra.apply.nnz_touched"] += int(lens[np.flatnonzero(x)].sum())


def _count_rungs(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.counts["zeromodes.rungs_built"] += len(result)


def _count_terms(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.counts["specfun.bessel_k.terms"] += result.terms_used


def _count_points(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.counts["specfun.besselk_values.points"] += len(result)


def _count_nodes(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.counts["resolution.quadrature_nodes"] += result.node_count


def _count_k_cache(tr: Tracer, idx, args, kwargs, result) -> None:
    # A k_values call served from the grid's cache opens no child span.
    if len(tr.spans) == idx + 1:
        tr.counts["resolution.k_values.hits"] += 1


FUNCTIONS = (
    ("fockspace", "enumerate_basis", _count_basis),
    ("algebra", "build_generator", _count_generator),
    ("algebra", "verify_triple_relations", None),
    ("zeromodes", "ladder_family", _count_rungs),
    ("zeromodes", "kernel_oracle", None),
    ("zeromodes", "zero_mode_vector", None),
    ("coherent", "b2_element_oracle", None),
    ("coherent", "b2_element", None),
    ("coherent", "build_coherent", None),
    ("coherent", "bicoherent", None),
    ("coherent", "coherent_norm", None),
    ("coherent", "coherent_norm_series", None),
    ("specfun", "bessel_k", _count_terms),
    ("specfun", "bessel_k_oracle", None),
    ("specfun", "besselk_values", _count_points),
    ("specfun", "bessel_i", None),
    ("specfun", "besseli_values", None),
    ("specfun", "hyp0f1", None),
    ("specfun", "hyp0f1_complex", None),
    ("resolution", "radial_grid", _count_nodes),
    ("resolution", "stieltjes_moment_check", None),
    ("resolution", "resolution_identity_check", None),
    ("cli", "main", None),
)

# (module, class, attribute, span name, counter)
METHODS = (
    ("algebra", "SparseOperator", "apply", "algebra.apply", _count_touched),
    ("algebra", "SparseOperator", "__matmul__", "algebra.matmul", None),
    ("algebra", "SparseOperator", "__add__", "algebra.combine", None),
    ("algebra", "SparseOperator", "__sub__", "algebra.combine", None),
    ("algebra", "SparseOperator", "__mul__", "algebra.combine", None),
    ("algebra", "SparseOperator", "__rmul__", "algebra.combine", None),
    ("algebra", "SparseOperator", "max_abs", "algebra.max_abs", None),
    ("resolution", "QuadratureGrid", "k_values", "resolution.k_values", _count_k_cache),
)


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "parafock" or n.startswith("parafock.")]


def _rebind(original, replacement, undo: list) -> None:
    """Point every reference to ``original`` in a parafock module at ``replacement``."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)
            elif isinstance(value, tuple) and any(v is original for v in value):
                undo.append((mod, attr, value))
                setattr(mod, attr, tuple(replacement if v is original else v for v in value))


def install(tracer: Tracer):
    """Wrap every traced function and method; returns a callable that undoes it.

    A name that no longer exists in the package is skipped and listed in
    ``tracer.missing``, so the benchmark keeps running against later
    versions whose layers moved.
    """
    undo: list = []
    mods = {layer: importlib.import_module(f"parafock.{layer}") for layer in LAYERS}
    targets = [(layer, name, f"{layer}.{name}", count) for layer, name, count in FUNCTIONS]
    targets += [
        ("verify", fn.__name__, f"verify.{fn.__name__}", None)
        for fn in getattr(mods["verify"], "ALL_CHECKS", ())
    ]
    for layer, name, key, count in targets:
        original = getattr(mods[layer], name, None)
        if original is None:
            tracer.missing.append(key)
            continue
        _rebind(original, tracer.wrap(key, original, count), undo)
    for layer, cls_name, attr, key, count in METHODS:
        cls = getattr(mods[layer], cls_name, None)
        original = None if cls is None else cls.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{layer}.{cls_name}.{attr}")
            continue
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(key, original, count))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        undo.clear()

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics

_CALLS = (
    "fockspace.enumerate_basis", "algebra.build_generator", "algebra.apply", "algebra.matmul",
    "algebra.combine", "zeromodes.ladder_family", "zeromodes.kernel_oracle",
    "coherent.b2_element_oracle", "coherent.build_coherent", "specfun.bessel_k",
    "specfun.bessel_k_oracle", "specfun.besselk_values", "resolution.radial_grid", "cli.main",
)
_SELF = _CALLS + (
    "algebra.max_abs", "algebra.verify_triple_relations", "zeromodes.zero_mode_vector",
    "coherent.b2_element", "coherent.bicoherent", "coherent.coherent_norm",
    "coherent.coherent_norm_series", "specfun.bessel_i", "specfun.besseli_values",
    "specfun.hyp0f1", "specfun.hyp0f1_complex", "resolution.stieltjes_moment_check",
    "resolution.resolution_identity_check",
)
_COUNTERS = (
    "fockspace.states_enumerated", "algebra.nnz_built", "algebra.apply.nnz_touched",
    "zeromodes.rungs_built", "specfun.bessel_k.terms", "specfun.besselk_values.points",
    "resolution.quadrature_nodes",
)
_DISTINCT = ("fockspace.enumerate_basis", "algebra.build_generator")

# (name, unit, better).  Ratios of useful work (distinct builds, cache hits)
# are better higher; every time, count, share and tolerance ratio is better
# lower.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    tuple((f"{f}.calls", "count", "lower") for f in _CALLS)
    + tuple((f"{f}.self_s", "s", "lower") for f in _SELF)
    + tuple((c, "count", "lower") for c in _COUNTERS)
    + tuple((f"{f}.distinct_ratio", "ratio", "higher") for f in _DISTINCT)
    + (("resolution.k_cache_hit_ratio", "ratio", "higher"),)
    + tuple((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS)
    + tuple((f"verify.{s}.s", "s", "lower") for s in SUITES)
    + tuple((f"verify.{s}.tol_ratio", "ratio", "lower") for s in SUITES)
    + (("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower"))
)


def layer_metrics(tracer: Tracer, suites: dict, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``suites`` maps a verify suite name to (seconds, max_deviation /
    tolerance) from the untraced passes; suites that did not run read 0.
    ``<layer>.self_share`` divides the layer's self time by the summed
    duration of the root spans, which is one whole traced pass.
    """
    selfs = self_times(tracer.spans)
    calls: Counter = Counter()
    self_by: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    total = 0.0
    for s, st in zip(tracer.spans, selfs):
        calls[s.name] += 1
        self_by[s.name] += st
        layer_self[s.name.split(".", 1)[0]] += st
        if s.parent < 0:
            total += (s.end - s.start) + s.tail
    values: dict[str, float] = {}
    for f in _CALLS:
        values[f"{f}.calls"] = calls[f]
    for f in _SELF:
        values[f"{f}.self_s"] = self_by[f]
    for c in _COUNTERS:
        values[c] = tracer.counts[c]
    for f in _DISTINCT:
        values[f"{f}.distinct_ratio"] = len(tracer.distinct[f]) / calls[f] if calls[f] else 0.0
    k_calls = calls["resolution.k_values"]
    values["resolution.k_cache_hit_ratio"] = (
        tracer.counts["resolution.k_values.hits"] / k_calls if k_calls else 0.0
    )
    for layer in LAYERS:
        values[f"{layer}.self_share"] = layer_self[layer] / total if total > 0 else 0.0
    for s in SUITES:
        seconds, ratio = suites.get(s, (0.0, 0.0))
        values[f"verify.{s}.s"] = seconds
        values[f"verify.{s}.tol_ratio"] = ratio
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(tracer.spans)
    return {name: {"value": _number(values[name]), "unit": unit} for name, unit, _ in LAYER_METRICS}


def top_self(tracer: Tracer, limit: int = 12) -> list[tuple[str, float]]:
    """Span names with the most self time in the traced pass."""
    by: dict[str, float] = defaultdict(float)
    for s, st in zip(tracer.spans, self_times(tracer.spans)):
        by[s.name] += st
    return sorted(by.items(), key=lambda kv: -kv[1])[:limit]


def _number(value) -> float | int:
    """JSON-safe number; an infinite ratio (a suite that failed outright) reads as the float max."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return value if math.isfinite(value) else sys.float_info.max
