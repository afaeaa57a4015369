"""One workload in one fresh interpreter; prints one JSON object on stdout.

Started by run.py, never by hand:

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS SPAWNED_AT

MODE is `setup` (import and prepare, then exit), `measure` (time items until
SECONDS have passed) or `trace` (a fixed item list run untraced, then again
with the tracer installed).  SPAWNED_AT is the launcher's time.monotonic()
just before it started this process, so setup time covers interpreter
start-up as well.  Times come both as wall time and as reference time (see
reference.py); the time of reference-kernel samples is left out of both.
"""

import json
import platform
import resource
import sys
import time
import traceback

from reference import Clock

# trace mode: seconds of one item (untraced, on the reference machine) and
# item-list granularity, used to size the fixed list to about SECONDS for
# both passes together
_NOMINAL_ITEM_S = {"grid_sweep": 1.8, "geodesic_flow": 0.03, "rectify_roundtrip": 1.4}
_TRACE_SLOWDOWN = 1.3


def run_item(wl, inputs, failures: list) -> float:
    """Seconds taken by one item; an unexpected exception fails the item,
    not the run."""
    error = None
    t0 = time.perf_counter()
    try:
        failed = wl.run(inputs)
    except Exception as e:
        failed, error = ["exception"], e
    dt = time.perf_counter() - t0
    if failed:
        failures.append({"kind": wl.kind(inputs), "checks": failed, "traceback":
                         error and "".join(traceback.format_exception(error, limit=4))})
    return dt


def timed_items(wl, inputs, clock: Clock, failures: list) -> list[tuple]:
    """Run the items; (kind, wall seconds, first, last) of each, where
    samples first .. last run from the last one before the item to the first
    one after it.  Runs inside `clock.ticking()`; the caller takes a final
    sample before `in_reference`."""
    items = []
    for i in inputs:
        first, stolen = len(clock.samples) - 1, clock.stolen
        dt = run_item(wl, i, failures) - (clock.stolen - stolen)
        items.append((wl.kind(i), dt, first, len(clock.samples)))
    return items


def in_reference(clock: Clock, items) -> list[tuple[str, float, float]]:
    """(kind, wall seconds, reference seconds) of each item."""
    return [(kind, dt, dt * clock.scale(first, last)) for kind, dt, first, last in items]


def measure(wl, seconds: float) -> dict:
    """Items until SECONDS of wall time have passed."""
    clock, failures = Clock(), []
    start = time.perf_counter()
    deadline = start + seconds

    def until_deadline():
        while time.perf_counter() < deadline:
            yield wl.draw()

    with clock.ticking():
        items = timed_items(wl, until_deadline(), clock, failures)
    wall = time.perf_counter() - start
    clock.sample()
    return {"items": in_reference(clock, items), "failures": failures, "wall_s": wall}


def trace_items(wl, seconds: float) -> int:
    cycle = len(wl.cycle) * (2 if wl.name == "geodesic_flow" else 1)
    per_cycle = _NOMINAL_ITEM_S[wl.name] * cycle * (1.0 + _TRACE_SLOWDOWN)
    return cycle * max(1, int(seconds / per_cycle))


def trace(wl, seconds: float) -> dict:
    from tracer import Tracer, UNOBSERVABLE, LAYERS

    n = trace_items(wl, seconds)
    inputs = [wl.draw() for _ in range(n)]
    clock, failures = Clock(), []
    tracer = Tracer(timer=lambda: time.perf_counter() - clock.stolen)
    with clock.ticking():
        untraced = timed_items(wl, inputs, clock, failures)
        first = len(clock.samples) - 1
        tracer.install()
        t0 = tracer.timer()
        try:
            wl.setup()          # again, so that shared-input generation is traced
            wl.run = tracer.item_spans(wl.run, wl.kind)
            traced = timed_items(wl, inputs, clock, failures)
        finally:
            tracer.uninstall()
        wall = tracer.timer() - t0
    clock.sample()
    untraced = sum(ref for _, _, ref in in_reference(clock, untraced))
    traced = sum(ref for _, _, ref in in_reference(clock, traced))
    # one factor for every per-layer time: the pass's mean machine speed
    scale = clock.scale(first, len(clock.samples) - 1)

    c = tracer.counts

    def span(name):
        return tracer.span_seconds(name) * scale

    rejected = scale * sum(s["end"] - s["start"] for s in tracer.spans
                           if s["name"] == "rectification_pipeline" and s["error"])
    metrics = {
        "expr.jet_evals": (c["expr.jet_evals"], "count"),
        "expr.complex_jet_evals": (c["expr.complex_jet_evals"], "count"),
        "fields.inverse_calls": (c["fields.inverse_calls"], "count"),
        "fields.root_finds": (c["fields.root_finds"], "count"),
        # 0 when there were no inverse calls: read it with its base, inverse_calls
        "fields.inverse_hit_ratio": (1.0 - c["fields.root_finds"] / c["fields.inverse_calls"]
                                     if c["fields.inverse_calls"] else 0.0, "ratio"),
        "fields.quadrature_maps": (sum(s["name"] == "QuadratureMap" for s in tracer.spans),
                                   "count"),
        "fields.quadrature_map_s": (span("QuadratureMap"), "s"),
        "normal_forms.generate_s": (span("generate"), "s"),
        "geometry.classify_pair_s": (span("classify_pair"), "s"),
        "geometry.christoffel_evals": (c["geometry.christoffel_evals"], "count"),
        "equivalence.verify_sys_s": (span("verify_integral:sys"), "s"),
        "equivalence.verify_bracket_s": (span("verify_integral:bracket"), "s"),
        "equivalence.triviality_s": (span("triviality_check"), "s"),
        "equivalence.invariant_s": (tracer.leaf_seconds["equivalence.invariant_evals"] * scale,
                                    "s"),
        "equivalence.invariant_evals": (c["equivalence.invariant_evals"], "count"),
        "dynamics.integrations": (sum(s["name"] == "integrate_geodesic" for s in tracer.spans),
                                  "count"),
        "dynamics.integrate_s": (span("integrate_geodesic"), "s"),
        "dynamics.accepted_steps": (c["dynamics.accepted_steps"], "count"),
        "dynamics.chart_exits": (c["dynamics.chart_exits"], "count"),
        "dynamics.projective_residual_s": (span("projective_residual"), "s"),
        "dynamics.poisson_bracket_calls": (c["dynamics.poisson_bracket_calls"], "count"),
        "rectify.to_null_form_s": (span("to_null_form"), "s"),
        "rectify.apply_change_s": (span("apply_admissible_change"), "s"),
        "rectify.pipeline_s": (span("rectification_pipeline"), "s"),
        "rectify.rejected_pipeline_s": (rejected, "s"),
        "rectify.bk_normalize_s": (span("bk_normalize"), "s"),
        "rectify.case1_s": (span("solve_case1"), "s"),
        "rectify.case2_s": (span("solve_case2"), "s"),
        "rectify.case3_s": (span("solve_case3"), "s"),
        "rectify.rejections": (c["rectify.rejections"], "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] * scale, "s")
    metrics["harness.self_s"] = ((tracer.self_s["harness"] + wall - tracer.traced_s) * scale, "s")
    metrics["trace.items"] = (n, "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.items_per_s"] = (n / traced, "1/s")
    metrics["trace.untraced_items_per_s"] = (n / untraced, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - untraced / traced, "ratio")
    return {"metrics": metrics, "failures": failures, "attempted": 2 * n,
            "spans": tracer.spans, "unobservable": UNOBSERVABLE}


def main(argv):
    mode, name, seed, seconds, spawned_at = argv
    clock = Clock()
    with clock.ticking():
        t0, stolen = time.perf_counter(), clock.stolen
        import numpy
        import projeq  # noqa: F401  (with numpy and scipy, what import_s covers)
        import scipy
        import_wall = time.perf_counter() - t0 - (clock.stolen - stolen)
        from workloads import WORKLOADS
        wl = WORKLOADS[name](int(seed))
        wl.setup()
        setup_wall = time.monotonic() - float(spawned_at) - clock.stolen
    clock.sample()
    scale = clock.scale(0, len(clock.samples) - 1)
    out = {"setup_s": setup_wall * scale, "setup_wall_s": setup_wall,
           "import_s": import_wall * scale,
           "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__}}
    if mode == "measure":
        out.update(measure(wl, float(seconds)), mix=wl.mix())
    elif mode == "trace":
        out.update(trace(wl, float(seconds)))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
