"""Spans and counters around projeq's public functions, installed from outside.

Nothing in projeq is edited: each traced function is replaced by a wrapper
that times the call, in every projeq module namespace that binds it (or, for
a few leaves, in the one namespace named in `_LEAVES`).

* Coarse calls get one span each: name, layer, start, end, parent span and
  the exception class when the call raised.
* Hot leaves (jet evaluation, root finding, Christoffel symbols, ...) are
  called hundreds of thousands of times, so they get no span records; each
  keeps a call count and the seconds spent inside it.

Every wrapper pushes a frame on one stack, so a layer's self time is its
calls' duration minus the part covered by nested traced calls, for spans
and leaves alike.  Each benchmark item is a span of the `harness` layer, so
its checks are the harness's own time, as is the time outside every span.
"""

from __future__ import annotations

from collections import defaultdict

import projeq
from projeq import dynamics, equivalence, expr, fields, geometry, normal_forms, rectify
from projeq.errors import ChartExit, RectifyError

LAYERS = ("expr", "fields", "geometry", "normal_forms", "dynamics", "equivalence", "rectify")
_MODULES = (projeq, expr, fields, geometry, normal_forms, dynamics, equivalence, rectify)

# Counted from outside, these are invisible: they happen inside
# integrate_geodesic and leave no trace in its result.
UNOBSERVABLE = {
    "dynamics.rejected_steps": "rejected Dormand-Prince steps leave no trace in the "
                               "returned Trajectory; needs in-library diagnostics",
    "dynamics.rhs_evals": "_hamilton_rhs is private and called by name inside "
                          "integrate_geodesic; needs in-library diagnostics",
}


def _accepted_steps(tracer, result, exc):
    # every stored sample after the first is an accepted step; on ChartExit
    # the step that left the chart was accepted but not stored
    if exc is None:
        tracer.counts["dynamics.accepted_steps"] += len(result) - 1
    elif isinstance(exc, ChartExit):
        tracer.counts["dynamics.chart_exits"] += 1
        if exc.trajectory is not None:
            tracer.counts["dynamics.accepted_steps"] += len(exc.trajectory)


def _rejection(tracer, result, exc):
    if isinstance(exc, RectifyError):
        tracer.counts["rectify.rejections"] += 1


def _verify_method(tracer, result, exc):
    return None if exc is not None else result.method


# (owner, attribute, layer, span name, exit hook).  A module owner means
# every projeq namespace that binds the function; a class owner means the
# attribute on that class.
_SPANS = (
    (normal_forms, "generate", "normal_forms", "generate", None),
    (equivalence, "verify_integral", "equivalence", "verify_integral", _verify_method),
    (equivalence, "triviality_check", "equivalence", "triviality_check", None),
    (geometry, "classify_pair", "geometry", "classify_pair", None),
    (dynamics, "integrate_geodesic", "dynamics", "integrate_geodesic", _accepted_steps),
    (dynamics, "projective_residual", "dynamics", "projective_residual", None),
    (rectify, "to_null_form", "rectify", "to_null_form", None),
    (rectify, "apply_admissible_change", "rectify", "apply_admissible_change", None),
    (rectify, "rectification_pipeline", "rectify", "rectification_pipeline", _rejection),
    (rectify, "bk_normalize", "rectify", "bk_normalize", None),
    (rectify, "solve_case1", "rectify", "solve_case1", None),
    (rectify, "solve_case2", "rectify", "solve_case2", None),
    (rectify, "solve_case3", "rectify", "solve_case3", None),
    (fields.QuadratureMap, "__init__", "fields", "QuadratureMap", None),
)

# (owner, attribute, layer, counter, every namespace?).  The jet evaluators
# recurse through their own module-level name, so they are wrapped only where
# the calling layer binds them: a count of entries, not of tree nodes.
_LEAVES = (
    (fields, "eval_jet", "expr", "expr.jet_evals", False),
    (normal_forms, "eval_complex", "expr", "expr.complex_jet_evals", False),
    (fields, "brentq", "fields", "fields.root_finds", False),
    (fields.Monotone1D, "inverse", "fields", "fields.inverse_calls", False),
    (dynamics, "christoffel_at", "geometry", "geometry.christoffel_evals", True),
    (equivalence, "poisson_bracket", "dynamics", "dynamics.poisson_bracket_calls", True),
    (equivalence, "projective_integral_momentum", "equivalence",
     "equivalence.invariant_evals", True),
)


class Tracer:
    """Install with `install()`, run the workload, then `uninstall()`.

    `timer` gives the seconds that spans measure; the benchmark passes one
    that leaves out the time its reference-kernel samples take."""

    def __init__(self, timer):
        self.timer = timer
        self.spans: list[dict] = []
        self.leaf_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack = [[0.0, None]]      # frames: [seconds of traced children, span id]
        self._undo: list[tuple[object, str, object]] = []
        self._origin = timer()

    @property
    def traced_s(self) -> float:
        """Seconds spent inside top-level traced calls."""
        return self._stack[0][0]

    def _patch(self, owner, attr, wrap, everywhere=True):
        if isinstance(owner, type) or not everywhere:
            original = vars(owner)[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
            return
        original = getattr(owner, attr)
        wrapper = wrap(original)
        for mod in _MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        for owner, attr, layer, name, hook in _SPANS:
            self._patch(owner, attr, lambda fn, l=layer, n=name, h=hook: self._span(fn, l, n, h))
        for owner, attr, layer, counter, everywhere in _LEAVES:
            self._patch(owner, attr, lambda fn, l=layer, c=counter: self._leaf(fn, l, c),
                        everywhere)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _span(self, fn, layer, name, hook):
        stack, spans, self_s, perf = self._stack, self.spans, self.self_s, self.timer
        tracer = self

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name, "layer": layer,
                   "parent": stack[-1][1], "error": None}
            spans.append(rec)
            frame = [0.0, rec["id"]]
            stack.append(frame)
            result = exc = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:          # recorded, then re-raised unchanged
                exc = e
                raise
            finally:
                t1 = perf()
                stack.pop()
                stack[-1][0] += t1 - t0
                self_s[layer] += t1 - t0 - frame[0]
                rec["start"] = t0 - tracer._origin
                rec["end"] = t1 - tracer._origin
                if exc is not None:
                    rec["error"] = type(exc).__name__
                if hook is not None:
                    label = hook(tracer, result, exc)
                    if label:
                        rec["name"] = f"{name}:{label}"

        return wrapper

    def _leaf(self, fn, layer, counter):
        stack, self_s, perf = self._stack, self.self_s, self.timer
        counts, seconds = self.counts, self.leaf_seconds

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                self_s[layer] += dt - frame[0]
                counts[counter] += 1
                seconds[counter] += dt

        return wrapper

    def item_spans(self, run, kind):
        """Wrap a workload's `run` so that each item is a span of the harness
        layer named after its kind, the parent of the spans it causes."""
        return lambda inputs: self._span(run, "harness", f"item:{kind(inputs)}", None)(inputs)

    def span_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)
