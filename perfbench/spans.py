"""In-memory spans around the calls that cross heatforms module boundaries.

A traced run rebinds, in its own process only, the names one heatforms module
imports from another, plus the entry points ops call and the benchmark's
field callbacks.  Each call records a span (name, start, end, parent, op id)
in flat arrays; the spans are written out once, after the run, and reduced to
calls and self time (duration minus the time covered by child spans) per op.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import replace

import numpy as np

# (module, imported name, span name): the names one heatforms module takes
# from another.  Metric names write the boundary "a -> b" as "a-b".
BOUNDARIES = (
    ("heatforms.kernels", "_conical_many", "kernels-specfun._conical_many"),
    ("heatforms.kernels", "_composite_gauss", "kernels-specfun._composite_gauss"),
    ("heatforms.kernels", "integrate_adaptive", "kernels-quadrature.integrate_adaptive"),
    ("heatforms.kernels", "gaussian_tail_radius",
     "kernels-quadrature.gaussian_tail_radius"),
    ("heatforms.kernels", "distance", "kernels-geometry.distance"),
    ("heatforms.kernels", "_pair_derivatives", "kernels-geometry._pair_derivatives"),
    ("heatforms.quotient", "_k0_dist", "quotient-kernels._k0_dist"),
    ("heatforms.quotient", "_k1_base", "quotient-kernels._k1_base"),
    ("heatforms.quotient", "_h2_k0_majorant", "quotient-kernels._h2_k0_majorant"),
    ("heatforms.quotient", "distance", "quotient-geometry.distance"),
    ("heatforms.specfun", "integrate_adaptive", "specfun-quadrature.integrate_adaptive"),
    ("heatforms.specfun", "integrate_semiinfinite",
     "specfun-quadrature.integrate_semiinfinite"),
    ("heatforms.specfun", "conical_p1", "specfun.conical_p1"),
    ("heatforms.kernels", "_chart_points", "kernels._chart_points"),
)

# apply_k0/apply_k1 return a lazy field; the span covers its evaluation.
LAZY_ENTRY_POINTS = ("apply_k0", "apply_k1")
FIELD_SPAN = "evolve.field"
CHART_SPAN = "kernels._chart_points"
OP_SPAN = "op"


def entry_span(name):
    return f"heatforms.{name}.fn" if name in LAZY_ENTRY_POINTS else f"heatforms.{name}"


class Tracer:
    """Span recorder; install() rebinds names, uninstall() restores them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.current)
            self.op.append(self.op_id)
            self.start.append(clock())
            self.end.append(0.0)
            outer, self.current = self.current, i
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.current = outer

        return traced

    def _wrap_lazy(self, name, fn):
        span = entry_span(name)

        def lazy(*args, **kwargs):
            out = fn(*args, **kwargs)
            return replace(out, fn=self.wrap(span, out.fn))

        return lazy

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, api):
        for module, attr, span in BOUNDARIES:
            owner = importlib.import_module(module)
            if hasattr(owner, attr):
                self._rebind(owner, attr, self.wrap(span, getattr(owner, attr)))
        for attr in list(vars(api)):
            fn = getattr(api, attr)
            self._rebind(api, attr, self._wrap_lazy(attr, fn)
                         if attr in LAZY_ENTRY_POINTS else self.wrap(entry_span(attr), fn))
        self._rebind(api, "field", lambda fn: self.wrap(FIELD_SPAN, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def run_op(self, op_id, call):
        self.op_id = op_id
        return self.wrap(OP_SPAN, call)()

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(names, spans, n_ops):
    """Per span name: (calls per op, self ms per op); plus the share of field
    callbacks made in the final refinement pass of each lazy evaluation."""
    name, parent = spans["name"], spans["parent"]
    start, dur = spans["start"], spans["end"] - spans["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    self_time = dur - covered
    calls = np.bincount(name, minlength=len(names))
    self_sum = np.bincount(name, weights=self_time, minlength=len(names))
    per_op = {n: (calls[i] / n_ops, 1e3 * self_sum[i] / n_ops)
              for i, n in enumerate(names)}

    refine_useful = 0.0
    if FIELD_SPAN in names and CHART_SPAN in names:
        fields = name == names.index(FIELD_SPAN)
        charts = name == names.index(CHART_SPAN)
        last_chart = np.full(len(dur), -np.inf)
        np.maximum.at(last_chart, parent[charts], start[charts])
        final = start[fields] > last_chart[parent[fields]]
        refine_useful = np.count_nonzero(final) / max(1, np.count_nonzero(fields))
    return per_op, refine_useful
