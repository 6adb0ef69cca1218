"""In-memory span recording around the functions ``nfscatter.cli`` calls.

:func:`instrument` rebinds, for the duration of a ``with`` block, the module
attributes through which ``cli`` reaches each layer, so every call records a
span (name, start, end, parent) plus counts taken from its arguments or
result.  Nothing inside the package changes; leaving the block restores the
original functions.  :func:`layer_totals` sums the spans of one traced sample into additive
quantities; :func:`layer_metrics` turns totals into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    seconds: float = 0.0   # end - start, until run.py replaces it by the host-corrected time


class Tracer:
    """Spans of one traced pass, kept in memory in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.seconds = sp.end - sp.start
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                sp.counts.update(count(args, result))
            return result

        return traced


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _svg_bytes(args, result) -> dict:
    return {"bytes": len(result.encode())}


def _solver_steps(args, result) -> dict:
    sc = args[0]
    return {"steps": sc.n_steps, "depth_steps": sc.n_steps * sc.sample.n_depth}


# cli attribute -> (span name, count extractor); cli.main is spanned by the caller
HOOKS = {
    "run_scenario": ("solver.run_scenario", _solver_steps),
    "write_traces_csv": ("traceio.write_csv", _file_bytes),
    "write_pattern_csv": ("traceio.write_csv", _file_bytes),
    "write_json": ("traceio.write_json", _file_bytes),
    "read_traces_csv": ("traceio.read_csv", None),
    "render_intensity_svg": ("svgplot.render", _svg_bytes),
    "render_amplitude_svg": ("svgplot.render", _svg_bytes),
    "build_report": ("analysis.report", None),
    "excitation_pattern": ("analysis.pattern", None),
    "validate_scenario": ("model.validate", None),
    "apply_overrides": ("configio.override", None),
    "scenario_from_dict": ("configio.override", None),
}


@contextmanager
def instrument(cli, tracer: Tracer):
    """Route the layer calls of module ``cli`` through ``tracer`` inside the block."""
    saved = {attr: getattr(cli, attr) for attr in HOOKS}
    try:
        for attr, (name, count) in HOOKS.items():
            setattr(cli, attr, tracer.wrap(name, saved[attr], count))
        yield tracer
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Additive per-layer quantities of one traced sample: sums over its spans."""
    def total(name: str) -> float:
        return sum((s.seconds for s in spans if s.name == name), 0.0)

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.seconds
    return {
        "solver.run_s": total("solver.run_scenario"),
        "solver.steps": count("solver.run_scenario", "steps"),
        "solver.depth_steps": count("solver.run_scenario", "depth_steps"),
        "traceio.write_s": total("traceio.write_csv"),
        "traceio.write_bytes": count("traceio.write_csv", "bytes") + count("traceio.write_json", "bytes"),
        "traceio.read_s": total("traceio.read_csv"),
        "traceio.json_write_s": total("traceio.write_json"),
        "svgplot.render_s": total("svgplot.render"),
        "svgplot.bytes": count("svgplot.render", "bytes"),
        "analysis.report_s": total("analysis.report"),
        "analysis.pattern_s": total("analysis.pattern"),
        "model.validate_s": total("model.validate"),
        "model.validate_calls": sum(1 for s in spans if s.name == "model.validate"),
        "configio.override_s": total("configio.override"),
        "cli.self_s": sum(s.seconds - children.get(i, 0.0)
                          for i, s in enumerate(spans) if s.name == "cli.main"),
    }


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from (summed) layer totals: adds the per-step rates."""
    out = dict(totals)
    depth_steps = out.pop("solver.depth_steps")
    run_s, steps = out["solver.run_s"], out["solver.steps"]
    out["solver.us_per_step"] = run_s / steps * 1e6 if steps else 0.0
    out["solver.ns_per_depth_step"] = run_s / depth_steps * 1e9 if depth_steps else 0.0
    return out
