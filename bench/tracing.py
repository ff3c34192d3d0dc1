"""Spans around minnet's public functions, installed from outside the package.

minnet binds its own functions with ``from .geometry import ...``, so a
wrapper must replace the function object in every module namespace that
holds it, the package namespace included.  Private helpers are not wrapped.
Spans stay in memory until the run ends; a span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


def _psd_counts(args, kwargs, out):
    s, e = out.shape
    d = len(args[0][0]) if s else 0
    # float64 intermediates of the kernel's NumPy expressions: diff, t*v,
    # closest and the difference (S, E, d) each plus its squares, and five
    # (S, E) arrays (einsum, divide, where, clip, norm).
    return {"pairs": s * e, "bytes_computed": 8 * s * e * (5 * d + 5)}


def _solve_exact_counts(args, kwargs, res):
    return {"topologies": res.n_topologies, "unconverged": res.n_unconverged}


def _heuristic_counts(args, kwargs, tree):
    return {
        "rounds": len(tree.length_trace) - 1,
        "steiner_points": tree.topology.n_steiner,
        "unconverged": int(not tree.converged),
    }


def _numeric_counts(args, kwargs, res):
    return {"iterations": len(res.objective_trace), "epochs": res.epochs}


# (layer name, module, function names, counters, units of the counters).
# A counter key without a dot is relative to its layer.
LAYERS: list[tuple[str, str, tuple[str, ...], Callable | None, dict[str, str]]] = [
    ("geometry.fermat_point_triples", "minnet.geometry", ("fermat_point_triples",),
     lambda a, k, out: {"triples": len(out)}, {"triples": "count"}),
    ("geometry.point_segment_distances", "minnet.geometry", ("point_segment_distances",),
     _psd_counts, {"pairs": "count", "bytes_computed": "B"}),
    ("topology.enumerate_full_topologies", "minnet.topology", ("enumerate_full_topologies",),
     lambda a, k, out: {"topologies": len(out)}, {"topologies": "count"}),
    ("steiner.solve_exact", "minnet.steiner", ("solve_exact",),
     _solve_exact_counts, {"topologies": "count", "unconverged": "count"}),
    ("steiner.relax_topology", "minnet.steiner", ("relax_topology",),
     lambda a, k, tree: {"sweeps": len(tree.length_trace)}, {"sweeps": "count"}),
    ("steiner.verify_tree", "minnet.steiner", ("verify_tree",), None, {}),
    ("steiner.ball", "minnet.steiner",
     ("count_branching_in_ball", "length_in_ball", "count_crossings"), None, {}),
    ("ratio.mst", "minnet.ratio", ("mst",),
     lambda a, k, out: {"points": len(a[0])}, {"points": "count"}),
    ("experiments.heuristic_steiner", "minnet.experiments", ("heuristic_steiner",),
     _heuristic_counts, {"rounds": "count", "steiner_points": "count", "unconverged": "count"}),
    ("mdm.horseshoe", "minnet.mdm", ("horseshoe_circle", "horseshoe_stadium"), None, {}),
    ("mdm.coverage_check", "minnet.mdm", ("coverage_check",), None, {}),
    ("mdm.energetic_points", "minnet.mdm", ("energetic_points",), None, {}),
    ("mdm.verify_mdm", "minnet.mdm", ("verify_mdm",), None, {}),
    ("mdm.solve_mdm_numeric", "minnet.mdm", ("solve_mdm_numeric",),
     _numeric_counts, {"iterations": "count", "epochs": "count"}),
    ("mdm.solve_mdm_finite", "minnet.mdm", ("solve_mdm_finite",), None, {}),
    ("io.serialize_result", "minnet.io", ("serialize_result",),
     lambda a, k, out: {"io.bytes": len(out)}, {"io.bytes": "B"}),
    ("io.parse_result", "minnet.io", ("parse_result",),
     lambda a, k, out: {"io.bytes": len(a[0])}, {"io.bytes": "B"}),
    ("svg.render_svg", "minnet.svg", ("render_svg",),
     lambda a, k, out: {"svg.bytes": len(out)}, {"svg.bytes": "B"}),
    ("cli.cli_dispatch", "minnet.cli", ("cli_dispatch",),
     lambda a, k, code: {"exit_nonzero": int(code != 0)}, {"exit_nonzero": "count"}),
]

# Metrics of the traced run beside the per-layer ones, with their units.
RUN_METRICS = {
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "trace.span_cost_s": "s",
    "trace.top_spans_s": "s",
    "trace.spans": "count",
    "ops.count": "count",
    "probes.failed": "count",
}


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one span adds to a call, timed on a wrapped no-op."""
    noop = Tracer()._wrap("calibration", lambda: None, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - t0) / calls


def _qualified(layer: str, key: str) -> str:
    return key if "." in key else f"{layer}.{key}"


def _layer_metric_names() -> dict[str, str]:
    names: dict[str, str] = {}
    for layer, _, _, _, units in LAYERS:
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.self_s"] = "s"
        for key, unit in units.items():
            names[_qualified(layer, key)] = unit
        if layer == "steiner.solve_exact":
            names[f"{layer}.certified_frac"] = "1"
    return names


def per_layer_metrics() -> dict[str, str]:
    """Every metric name a traced run prints, with its unit, in print order."""
    return {**_layer_metric_names(), **RUN_METRICS}


@dataclass
class Span:
    name: str
    func: str
    start: float
    end: float
    parent: int
    op_id: str | None
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    op_id: str | None = None
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)

    def _wrap(self, layer: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(layer, fn.__name__, 0.0, 0.0, parent, self.op_id)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    counts[_qualified(layer, key)] += value
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "minnet" or name.startswith("minnet.")]
        for layer, module, functions, counter, _ in LAYERS:
            mod = importlib.import_module(module)
            for fname in functions:
                original = getattr(mod, fname)
                wrapper = self._wrap(layer, original, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        out = {name: 0.0 for name in _layer_metric_names()}
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.end - span.start - span.child_s
        for key, value in self.counts.items():
            out[key] = value
        topologies = out["steiner.solve_exact.topologies"]
        if topologies:
            out["steiner.solve_exact.certified_frac"] = 1.0 - out["steiner.solve_exact.unconverged"] / topologies
        out["trace.top_spans_s"] = sum(s.end - s.start for s in self.spans if s.parent < 0)
        out["trace.spans"] = len(self.spans)
        return out

    def by_op(self) -> dict[str, dict[str, list[float]]]:
        """Calls and total seconds of each wrapped function, per op id."""
        out: dict[str, dict[str, list[float]]] = {}
        for span in self.spans:
            entry = out.setdefault(span.op_id or "", {}).setdefault(span.func, [0, 0.0])
            entry[0] += 1
            entry[1] += span.end - span.start
        return out
