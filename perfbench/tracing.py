"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps the public veds functions listed in ``LAYERS`` at
every module binding that refers to them (``veds.cli.solve_exact``,
``veds.solver.ensure_valid_lex_ordering``, ``veds.chains.connected_components``
and so on), so callers inside the package reach the wrapper.  A span records
its layer, start, end, parent span and request id; spans stay in memory and
the worker writes them out when it ends.  Outside a request or the setup
phase the wrappers only forward the call.

A layer's self time is its span's duration minus the durations of its child
spans (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

# (module, function) -> layer.  Several functions may share one layer.
LAYERS = {
    ("veds.cli", "main"): "cli",
    ("veds.io", "load_graph"): "io.parse",
    ("veds.io", "parse_graph_text"): "io.parse",
    ("veds.io", "load_set_system"): "io.parse",
    ("veds.io", "parse_set_system_text"): "io.parse",
    ("veds.io", "format_graph_text"): "io.format",
    ("veds.io", "format_set_system_text"): "io.format",
    ("veds.graph", "build_graph"): "graph.build",
    ("veds.graph", "is_ve_dominating_set"): "graph.verify",
    ("veds.graph", "connected_components"): "graph.components",
    ("veds.ordering", "compute_lex_convex_ordering"): "ordering.lex",
    ("veds.ordering", "validate_convex_ordering"): "ordering.validate",
    ("veds.ordering", "ensure_valid_lex_ordering"): "ordering.ensure",
    ("veds.solver", "solve_exact"): "solver.exact",
    ("veds.solver", "solve_baseline"): "solver.baseline",
    ("veds.chains", "decompose"): "chains.decompose",
    ("veds.chains", "verify_decomposition_lemma"): "chains.lemma",
    ("veds.reductions", "reduce_star_convex"): "reductions.reduce",
    ("veds.reductions", "reduce_comb_convex"): "reductions.reduce",
    ("veds.oracle", "brute_force_gamma_ve"): "oracle.bruteforce",
    ("veds.oracle", "brute_force_min_cover"): "oracle.cover",
    ("veds.oracle", "gen_random_convex_bipartite"): "oracle.gen",
    ("veds.oracle", "cross_check"): "oracle.crosscheck",
}


def _result_counts(layer: str, fn_name: str, result) -> Counter | None:
    """Counts read off a call's result at the span that produced it."""
    if layer == "solver.exact":
        c = Counter(step.branch for step in result.trace)
        c["trace_steps"] = len(result.trace)
        return c
    if layer == "chains.decompose":
        return Counter(chains=len(result.chains))
    if fn_name == "parse_graph_text":
        return Counter(edges=result[0].m)
    return None


class Span:
    __slots__ = ("layer", "start", "end", "parent", "request", "counts", "ok")

    def __init__(self, layer, start, parent, request):
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.counts = None
        self.ok = False

    def to_json(self) -> dict:
        return {
            "layer": self.layer, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request,
            "counts": dict(self.counts) if self.counts else None, "ok": self.ok,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | str | None = None
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn_name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(layer, 0.0, self._stack[-1] if self._stack else None, self.request)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.ok = True
            span.counts = _result_counts(layer, fn_name, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every veds module binding of each listed function."""
        modules = [m for n, m in list(sys.modules.items()) if n == "veds" or n.startswith("veds.")]
        for (modname, fn_name), layer in LAYERS.items():
            original = getattr(sys.modules[modname], fn_name)
            wrapper = self._wrap(layer, fn_name, original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out
