"""Spans around the layers' public functions, installed from outside the program.

``Tracer.install`` replaces each timed function by a wrapper through every
module attribute that holds it, including the copies imported by name into
other modules (``assoc.minorant_lp``, ``envelope.validate_grid``, ...), and
``uninstall`` puts the originals back.  A span is a list
``[op, id, parent, name, start, end, extra]`` kept in memory; a layer's self
time is its span minus its direct children.  Rendering spans are recorded only
at the top level: ``to_jsonable`` recurses through its module global, and those
inner calls pass straight through.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

from logcvx import assoc, cli, core, envelope, io, lpsolve, matrices

RENDER = ("io.write_report", "io.to_jsonable")


def _nbytes(args, kwargs, out):
    src = args[0] if args else kwargs.get("source")
    return len(src) if isinstance(src, (bytes, str)) else 0


def _lp(args, kwargs, out):
    return [out.status, len(out.active_rows)]


def _samples_x_points(args, kwargs, out):
    g = args[0]
    spec = kwargs.get("s_grid", args[1] if len(args) > 1 else None) or assoc.SGridSpec.from_grid(g)
    return spec.points ** g.dim * g.n_points


def _search(args, kwargs, out):
    return [len(out.table), args[0].grids[0].n_points]


# span name -> (module attributes holding the function, extra recorded from the call)
TARGETS = {
    "io.read_grid": ([(io, "read_grid")], _nbytes),
    "io.read_matrix": ([(io, "read_matrix")], _nbytes),
    "core.validate_grid": ([(core, "validate_grid"), (envelope, "validate_grid"),
                            (assoc, "validate_grid"), (io, "validate_grid"),
                            (matrices, "validate_grid")], None),
    "envelope.minorant_lp": ([(envelope, "minorant_lp"), (assoc, "minorant_lp")], None),
    "lpsolve.solve": ([(lpsolve, "solve")], _lp),
    "assoc.check_log_convexity": ([(assoc, "check_log_convexity")], _samples_x_points),
    "matrices.search_relation": ([(matrices, "search_relation")], _search),
    "io.write_report": ([(io, "write_report")], None),
    "io.to_jsonable": ([(io, "to_jsonable")], None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._render_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, extra=None):
        render = name in RENDER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if render and self._render_depth:
                return fn(*args, **kwargs)
            span = [self.op, len(self.spans), self._stack[-1] if self._stack else -1,
                    name, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[1])
            self._render_depth += render
            span[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
                self._render_depth -= render
            if extra is not None:
                span[6] = extra(args, kwargs, out)
            return out
        return wrapper

    def install(self) -> None:
        for name, (attrs, extra) in TARGETS.items():
            wrapper = self.wrap(name, getattr(*attrs[0]), extra)
            for module, attr in attrs:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def main(self):
        """cli.main wrapped as the root span of each op; ops are numbered from 0."""
        traced = self.wrap("cli.main", cli.main)

        def main(argv):
            self.op += 1
            return traced(argv)
        return main


def per_layer(spans: list[list], n_ops: int, output_bytes: int) -> dict[str, dict]:
    """Per-op layer metrics, with units, from the spans of ``n_ops`` traced ops."""
    child = defaultdict(float)
    for s in spans:
        if s[2] >= 0:
            child[s[2]] += s[5] - s[4]
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(list)
    for s in spans:
        dur = s[5] - s[4]
        total[s[3]] += dur
        self_s[s[3]] += dur - child[s[1]]
        calls[s[3]] += 1
        if s[6] is not None:
            extra[s[3]].append(s[6])
    lp = extra["lpsolve.solve"]
    optimal = [rows for status, rows in lp if status == lpsolve.OPTIMAL]
    sxp = sum(extra["assoc.check_log_convexity"])
    check_self = self_s["assoc.check_log_convexity"]
    search = extra["matrices.search_relation"]
    per_op = {  # name: (sum over the traced ops, unit)
        "io.read_ms": (1e3 * (total["io.read_grid"] + total["io.read_matrix"]), "ms"),
        "io.read_bytes": (sum(extra["io.read_grid"]) + sum(extra["io.read_matrix"]), "bytes"),
        "core.validate_calls": (calls["core.validate_grid"], "count"),
        "core.validate_ms": (1e3 * total["core.validate_grid"], "ms"),
        "envelope.minorant_lp_ms": (1e3 * total["envelope.minorant_lp"], "ms"),
        "envelope.minorant_self_ms": (1e3 * self_s["envelope.minorant_lp"], "ms"),
        "lpsolve.solve_calls": (calls["lpsolve.solve"], "count"),
        "lpsolve.solve_ms": (1e3 * total["lpsolve.solve"], "ms"),
        "lpsolve.unbounded": (sum(status == lpsolve.UNBOUNDED for status, _ in lp), "count"),
        "assoc.check_self_ms": (1e3 * check_self, "ms"),
        "assoc.samples_x_points": (sxp, "count"),
        "matrices.search_ms": (1e3 * total["matrices.search_relation"], "ms"),
        "matrices.candidates": (sum(c for c, _ in search), "count"),
        "matrices.points_checked": (sum(c * p for c, p in search), "count"),
        "cli.render_ms": (1e3 * (total["io.write_report"] + total["io.to_jsonable"]), "ms"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "cli.self_ms": (1e3 * self_s["cli.main"], "ms"),
    }
    out = {k: {"value": v / n_ops, "unit": unit} for k, (v, unit) in per_op.items()}
    out["lpsolve.active_rows_per_lp"] = {
        "value": sum(optimal) / len(optimal) if optimal else 0.0, "unit": "rows"}
    out["assoc.samples_x_points_per_s"] = {
        "value": sxp / check_self if check_self else 0.0, "unit": "1/s"}
    return out
