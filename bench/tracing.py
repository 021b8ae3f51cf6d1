"""Spans around the public functions of each lvfront module, and the
per-layer metrics derived from them.

Every function is patched at the name its caller looks up (a module
global or a class attribute), so nothing in the package itself changes.
A span records its name, start, end, the span that was open when it
started, and a small dict of exact counts taken from the call.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

#: per-layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "envelopes.select_calls": "count",
    "envelopes.select_ms": "ms",
    "envelopes.build_calls": "count",
    "envelopes.build_ms": "ms",
    "envelopes.eval_calls": "count",
    "envelopes.eval_s": "s",
    "certify.cert_calls": "count",
    "certify.cert_ms": "ms",
    "certify.grid_points": "count",
    "certify.grid_ms": "ms",
    "certify.inequalities_calls": "count",
    "certify.inequalities_ms": "ms",
    "solve.iterations": "count",
    "solve.iterate_s": "s",
    "solve.iter_ms": "ms",
    "solve.apply_P_calls": "count",
    "solve.apply_P_s": "s",
    "solve.apply_P_points_per_s": "1/s",
    "solve.loop_self_s": "s",
    "solve.tail_check_calls": "count",
    "solve.tail_check_ms": "ms",
    "analyze.classify_calls": "count",
    "analyze.classify_ms": "ms",
    "pulse.cold_iterations": "count",
    "pulse.warm_iterations_median": "count",
    "pulse.refine_iterations": "count",
    "pulse.step_certify_calls": "count",
    "pulse.step_certify_s": "s",
    "cli.write_calls": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
COUNT_METRICS = tuple(k for k, unit in LAYER_UNITS.items() if unit == "count")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent = name, start, start, parent
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_size(args, kwargs, out, info):
    info["points"] = int(out.size)


def _apply_p_points(args, kwargs, out, info):
    info["points"] = int(args[0].size)


def _iterations(args, kwargs, out, info):
    info["iterations"] = int(out[1].iterations_used)
    info["cold"] = kwargs.get("warm_start") is None
    info["n_points"] = int(args[3].n_points)


def _bytes_written(args, kwargs, out, info):
    info["bytes"] = os.path.getsize(args[1]) + os.path.getsize(args[2])


# (module, attribute, span name, recorder); one row per name a caller looks up
_PATCHES = (
    ("lvfront.certify", "select_supercritical", "envelopes.select", None),
    ("lvfront.certify", "select_critical", "envelopes.select", None),
    ("lvfront.certify", "build_envelopes", "envelopes.build", None),
    ("lvfront.certify", "certify", "certify.certify", None),
    ("lvfront.cli", "certify", "certify.certify", None),
    ("lvfront.pulse", "certify", "pulse.certify", None),
    ("lvfront.certify", "make_grid", "certify.make_grid", _grid_size),
    ("lvfront.certify", "check_differential_inequalities", "certify.inequalities", None),
    ("lvfront.solve", "iterate", "solve.iterate", _iterations),
    ("lvfront.cli", "iterate", "solve.iterate", _iterations),
    ("lvfront.pulse", "iterate", "pulse.iterate", _iterations),
    ("lvfront.solve", "apply_P", "solve.apply_P", _apply_p_points),
    ("lvfront.solve", "tail_check", "solve.tail_check", None),
    ("lvfront.cli", "tail_check", "solve.tail_check", None),
    ("lvfront.analyze", "classify", "analyze.classify", None),
    ("lvfront.cli", "classify", "analyze.classify", None),
    ("lvfront.cli", "write_profile", "cli.write_profile", _bytes_written),
)


class Tracer:
    """Collects spans in memory while installed; `uninstall` restores
    every patched name."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, record):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), parent)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if record is not None:
                record(args, kwargs, out, span.info)
            return out

        return traced

    def install(self):
        for modname, attr, name, record in _PATCHES:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap(name, orig, record))
            self._undo.append((mod, attr, orig))
        cls = importlib.import_module("lvfront.envelopes").PiecewiseProfile
        orig_call = cls.__call__
        cls.__call__ = self._wrap("envelopes.eval", orig_call, None)
        self._undo.append((cls, "__call__", orig_call))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced round, all but trace.overhead_s,
    which needs an untraced round. A layer that the round never called
    reads 0."""
    by = {}
    for sp in spans:
        by.setdefault(sp.name, []).append(sp)

    def durs(name):
        return [sp.duration for sp in by.get(name, ())]

    def calls(name):
        return len(by.get(name, ()))

    iters = by.get("solve.iterate", []) + by.get("pulse.iterate", [])
    iterations = sum(sp.info.get("iterations", 0) for sp in iters)
    iterate_s = sum(sp.duration for sp in iters)
    apply_p = by.get("solve.apply_P", [])
    apply_p_s = sum(sp.duration for sp in apply_p)
    points = sum(sp.info["points"] for sp in apply_p)
    certs = by.get("certify.certify", []) + by.get("pulse.certify", [])

    # a call that raised has no info; only completed pulse solves are sorted
    pulse = [sp for sp in by.get("pulse.iterate", ()) if sp.info]
    cold = [sp.info["iterations"] for sp in pulse if sp.info["cold"]]
    refine = [sp.info["iterations"] for sp in pulse
              if not sp.info["cold"] and sp.info["n_points"] > pulse[0].info["n_points"]]
    warm = [sp.info["iterations"] for sp in pulse
            if not sp.info["cold"] and sp.info["n_points"] == pulse[0].info["n_points"]]

    writes = by.get("cli.write_profile", [])
    return {
        "envelopes.select_calls": calls("envelopes.select"),
        "envelopes.select_ms": 1e3 * _median(durs("envelopes.select")),
        "envelopes.build_calls": calls("envelopes.build"),
        "envelopes.build_ms": 1e3 * _median(durs("envelopes.build")),
        "envelopes.eval_calls": calls("envelopes.eval"),
        "envelopes.eval_s": sum(durs("envelopes.eval")),
        "certify.cert_calls": len(certs),
        "certify.cert_ms": 1e3 * _median([sp.duration for sp in certs]),
        "certify.grid_points": int(_median([sp.info["points"]
                                            for sp in by.get("certify.make_grid", ())])),
        "certify.grid_ms": 1e3 * _median(durs("certify.make_grid")),
        "certify.inequalities_calls": calls("certify.inequalities"),
        "certify.inequalities_ms": 1e3 * _median(durs("certify.inequalities")),
        "solve.iterations": iterations,
        "solve.iterate_s": iterate_s,
        "solve.iter_ms": 1e3 * iterate_s / iterations if iterations else 0.0,
        "solve.apply_P_calls": len(apply_p),
        "solve.apply_P_s": apply_p_s,
        "solve.apply_P_points_per_s": points / apply_p_s if apply_p_s else 0.0,
        "solve.loop_self_s": iterate_s - apply_p_s,
        "solve.tail_check_calls": calls("solve.tail_check"),
        "solve.tail_check_ms": 1e3 * _median(durs("solve.tail_check")),
        "analyze.classify_calls": calls("analyze.classify"),
        "analyze.classify_ms": 1e3 * _median(durs("analyze.classify")),
        "pulse.cold_iterations": sum(cold),
        "pulse.warm_iterations_median": int(_median(warm)),
        "pulse.refine_iterations": sum(refine),
        "pulse.step_certify_calls": calls("pulse.certify"),
        "pulse.step_certify_s": sum(durs("pulse.certify")),
        "cli.write_calls": len(writes),
        "cli.write_s": sum(sp.duration for sp in writes),
        "cli.bytes_written": sum(sp.info["bytes"] for sp in writes),
        "trace.spans": len(spans),
    }


def spans_to_json(spans):
    index = {id(sp): i for i, sp in enumerate(spans)}
    return [{"name": sp.name, "start": sp.start, "end": sp.end,
             "parent": index.get(id(sp.parent)), **sp.info} for sp in spans]
