"""Span recorder for the traced benchmark run.

``SpanRecorder.install`` wraps, from outside the package, every public
function of the six multisymp modules, the public methods of
``HomogeneousLagrangian`` and ``GraphSurface.to_grid``.  Each wrapped name is
replaced at every place a caller looks it up: the defining module, every
module that imported it with ``from .x import name``, and the package root.
A wrapper records one span (name, start, end, parent span, job index) in
memory; ``uninstall`` puts the originals back.

Two hot constructors are counted, not timed: ``KVector``/``KCovector``
construction and ``FormField`` evaluation.  Timing them would put a clock
read pair around every fiber element the solvers build (hundreds of
thousands per pass), and that cost would land in the self time of their
callers.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
import types
from collections import Counter

LAYERS = ("exterior", "lagrangian", "legendre", "multisymplectic", "surfaces", "cli")
TRACED_METHODS = {
    ("lagrangian", "HomogeneousLagrangian"): None,  # every public method
    ("surfaces", "GraphSurface"): ("to_grid",),
}
COUNTED = {
    ("exterior", "_FiberElement", "__init__"): "exterior.fiber_elements.created",
    ("multisymplectic", "FormField", "__call__"): "multisymplectic.form_evals",
}


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _tally_rows(counts, name, args, kwargs, result):
    counts[f"{name}.rows"] += len(_arg(args, kwargs, 2, "cs"))


def _tally_grid(counts, name, args, kwargs, result):
    counts["surfaces.cells"] += _arg(args, kwargs, 1, "grid").num_cells


def _tally_graph(counts, name, args, kwargs, result):
    counts["surfaces.cells"] += math.prod(_arg(args, kwargs, 1, "surf").resolution)


def _tally_nodes(counts, name, args, kwargs, result):
    counts["surfaces.grid_nodes"] += result.values.size // result.n


def _tally_certificate(counts, name, args, kwargs, result):
    counts["legendre.certificate.segments"] += result.num_segment_checks
    counts["legendre.certificate.failed_solves"] += result.num_failures


TALLIES = {
    "lagrangian.value_many": _tally_rows,
    "lagrangian.gradient_many": _tally_rows,
    "surfaces.lagrangian_action": _tally_grid,
    "surfaces.multisymplectic_action": _tally_grid,
    "surfaces.graph_action": _tally_graph,
    "surfaces.to_grid": _tally_nodes,
    "legendre.convexity_certificate": _tally_certificate,
}


class SpanRecorder:
    """In-memory spans and counts for one traced pass at a time."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so a parent precedes its children
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.job)
            if tally is not None:
                tally(self.counts, name, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("multisymp")
        modules = {layer: importlib.import_module(f"multisymp.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            public = getattr(module, "__all__", None) or [k for k in vars(module) if not k.startswith("_")]
            for attr in public:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._timed(f"{layer}.{attr}", fn))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for (layer, cls_name), names in TRACED_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            if names is None:
                names = [k for k, v in vars(cls).items()
                         if not k.startswith("_") and isinstance(v, types.FunctionType)]
            for attr in names:
                self._patch(cls, attr, self._timed(f"{layer}.{attr}", vars(cls)[attr]))
        for (layer, cls_name, attr), name in COUNTED.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._counted(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()  # cleared in place: the wrappers hold these containers
        self.counts.clear()
        return spans, counts


def summarize(spans: list, counts: Counter) -> tuple[dict[str, float], dict[str, int]]:
    """Self times per span name, and counts: calls per name, tallies, and
    Hessian evaluations split by the solver they ran under."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = Counter()
    totals = Counter(counts)
    under_inverse = [False] * len(spans)
    under_certificate = [False] * len(spans)
    for index, (name, start, end, parent, job) in enumerate(spans):
        self_s[name] += (end - start) - child[index]
        self_s[name.split(".", 1)[0]] += (end - start) - child[index]
        totals[f"{name}.calls"] += 1
        inverse = name == "legendre.inverse_legendre" or (parent >= 0 and under_inverse[parent])
        certificate = name == "legendre.convexity_certificate" or (parent >= 0 and under_certificate[parent])
        under_inverse[index], under_certificate[index] = inverse, certificate
        if name == "lagrangian.hessian":
            if inverse:
                totals["legendre.inverse_legendre.iterations"] += 1
            elif certificate:
                totals["legendre.radial.iterations"] += 1
    return dict(self_s), dict(totals)


def per_layer_metrics(names: list[str], passes: list[tuple[dict, dict]], overhead: float) -> dict[str, float]:
    """Per-layer metric values: self times as medians over the traced passes,
    counts from the first pass (the caller checks that they repeat)."""
    out = {}
    totals = passes[0][1]
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = overhead
        elif name == "legendre.certificate.solved_ratio":
            segments = totals.get("legendre.certificate.segments", 0)
            failed = totals.get("legendre.certificate.failed_solves", 0)
            out[name] = (segments - failed) / segments if segments else 1.0
        elif name.endswith(".self_s"):
            out[name] = statistics.median(p[0].get(name[: -len(".self_s")], 0.0) for p in passes)
        else:
            out[name] = float(totals.get(name, 0))
    return out
