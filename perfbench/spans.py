"""Spans around the public functions that unitdist's modules bind.

Tracing works from outside the package.  Inside ``Tracer.patched()``,
every name in BINDINGS is replaced, in each module namespace that binds
it, by a wrapper that records a span around the original function.  Code
that looks a name up at call time (``cli`` calling ``verify``,
``configuration`` calling ``verify``, ``layout`` calling
``generalized_petersen``, the solver's deferred import of
``rhombus_layout``) then produces nested spans, so the span tree follows
the real call structure.  Spans stay in memory until the run writes them.

A layer's self time is the duration of its spans minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import oracles

# span name -> the modules whose namespace binds the function; the first
# one defines it.  The span name is "<layer>.<function>".
BINDINGS = {
    "cli.main": ("unitdist.cli",),
    "solver.enumerate_solutions": ("unitdist.solver", "unitdist.cli"),
    "solver.newton_solve": ("unitdist.solver",),
    "layout.rhombus_layout": ("unitdist.layout", "unitdist.cli"),
    "layout.circular_layout": ("unitdist.layout", "unitdist.cli"),
    "graph.generalized_petersen": ("unitdist.graph", "unitdist.layout"),
    "graph.bipartition": ("unitdist.graph", "unitdist.cli"),
    "graph.automorphism_count": ("unitdist.graph",),
    "verifier.verify": ("unitdist.verifier", "unitdist.configuration",
                        "unitdist.cli"),
    "configuration.build_point_circle": ("unitdist.configuration", "unitdist.cli"),
    "configuration.validate_configuration": ("unitdist.configuration",
                                             "unitdist.cli"),
    "configuration.dual": ("unitdist.configuration",),
    "render.render_drawing": ("unitdist.render", "unitdist.cli"),
    "render.render_configuration": ("unitdist.render", "unitdist.cli"),
    "jsonfmt.dumps": ("unitdist._jsonfmt", "unitdist.cli"),
}


def _gp_label(g) -> str:
    # GP(n, s): inner vertex n is adjacent to n+s and n+n-s, s < n/2
    n = g.n_vertices // 2
    return f"gp{n}_{min(w for w in g.adjacency[n] if w > n) - n}"


def _text_bytes(args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def _graph_sizes(args, result) -> dict:
    d = args[0]
    return {"vertices": d.graph.n_vertices, "edges": len(d.graph.edges),
            "drawing": hash(d.positions)}


# span name -> attributes recorded from (args, result) after a normal return
HOOKS = {
    "solver.enumerate_solutions": lambda args, result: {"roots": len(result)},
    "solver.newton_solve": lambda args, result: {"x": list(result.as_tuple())},
    "graph.automorphism_count": lambda args, result: {"graph": _gp_label(args[0])},
    "verifier.verify": _graph_sizes,
    "render.render_drawing": _text_bytes,
    "render.render_configuration": _text_bytes,
    "jsonfmt.dumps": _text_bytes,
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from the wrappers installed by ``patched()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name,
                        self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.attrs.update(hook(args, result))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers; names a module does not bind are skipped."""
        saved = []
        try:
            for name, modules in BINDINGS.items():
                attr = name.split(".", 1)[1]
                original = getattr(importlib.import_module(modules[0]), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics derivable from one traced pass.

    Only layers the pass called appear; a metric of a layer the pass never
    called is absent rather than zero.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(*names):
        return sum(own[s.id] for n in names for s in by_name[n])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    out: dict[str, float] = {}
    if by_name["cli.main"]:
        out["cli.self_s"] = self_s("cli.main")
    if enumerate_spans := by_name["solver.enumerate_solutions"]:
        ids = {s.id for s in enumerate_spans}
        out["solver.enumerate_s"] = self_s("solver.enumerate_solutions")
        out["solver.roots_found"] = attr_sum("solver.enumerate_solutions", "roots")
        out["solver.nondegenerate_checks"] = sum(
            1 for s in by_name["layout.rhombus_layout"] if s.parent in ids)
    if calls := by_name["solver.newton_solve"]:
        outcomes = [s.attrs.get("error", "converged") for s in calls]
        out["solver.newton_s_per_call"] = self_s("solver.newton_solve") / len(calls)
        for metric, outcome in (("converged", "converged"),
                                ("singular", "SingularJacobian"),
                                ("noconv", "NoConvergence")):
            out[f"solver.newton_{metric}_share"] = outcomes.count(outcome) / len(calls)
        out["solver.newton_faithful_share"] = sum(
            1 for s in calls if "x" in s.attrs
            and oracles.is_known_root(s.attrs["x"])) / len(calls)
    for s in by_name["graph.automorphism_count"]:
        key = f"graph.automorphism_s.{s.attrs.get('graph', 'unknown')}"
        out[key] = out.get(key, 0.0) + own[s.id]
    for metric, name in (("graph.build_s", "graph.generalized_petersen"),
                         ("graph.bipartition_s", "graph.bipartition"),
                         ("configuration.build_s", "configuration.build_point_circle"),
                         ("configuration.validate_s",
                          "configuration.validate_configuration")):
        if by_name[name]:
            out[metric] = self_s(name)
    for short, name in (("rhombus", "layout.rhombus_layout"),
                        ("circular", "layout.circular_layout")):
        if by_name[name]:
            out[f"layout.{short}_s"] = self_s(name)
            out[f"layout.{short}_calls"] = len(by_name[name])
    if verifies := by_name["verifier.verify"]:
        out["verifier.verify_s"] = self_s("verifier.verify")
        out["verifier.verify_calls"] = len(verifies)
        out["verifier.pairs_checked"] = sum(
            _pairs(s.attrs.get("vertices", 0), s.attrs.get("edges", 0))
            for s in verifies)
    renders = ("render.render_drawing", "render.render_configuration")
    if any(by_name[n] for n in renders):
        out["render.svg_s"] = self_s(*renders)
        out["render.svg_bytes"] = sum(attr_sum(n, "bytes") for n in renders)
    if by_name["jsonfmt.dumps"]:
        out["jsonfmt.dumps_s"] = self_s("jsonfmt.dumps")
        out["jsonfmt.bytes"] = attr_sum("jsonfmt.dumps", "bytes")
    return out


def _pairs(v: int, e: int) -> int:
    """Predicates verify evaluates: vertex pairs, vertex-edge, edge pairs."""
    return v * (v - 1) // 2 + e * v + e * (e - 1) // 2


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for p in passes for k in p}
    return {k: statistics.median(p[k] for p in passes if k in p) for k in keys}
