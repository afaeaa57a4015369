"""The benchmark tracer (bench/tracer.py) wraps projeq functions by name from
outside; a rename in projeq would break `python3 bench/run.py --trace 1`.
Install it, use it, uninstall it, and check that it found every name and
put every one back."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

import projeq as pq

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(tracer_module):
    """Every namespace the tracer may patch: the projeq modules and the
    classes it wraps attributes of."""
    owners = [owner for owner, *_ in tracer_module._SPANS + tracer_module._LEAVES]
    return list(tracer_module._MODULES) + [o for o in owners if isinstance(o, type)]


def test_install_and_uninstall_restore_every_attribute(tracer_module):
    spaces = namespaces(tracer_module)
    before = [dict(vars(ns)) for ns in spaces]
    tracer = tracer_module.Tracer(time.perf_counter)
    tracer.install()
    try:
        wrapped = {attr for _, attr, _ in tracer._undo}
        for _, attr, *_ in tracer_module._SPANS + tracer_module._LEAVES:
            assert attr in wrapped, f"{attr} was not wrapped"
        # the wrapped root finder still sees the map inversions
        m = pq.AdmissibleChange("x + x^2/8", "y").maps(pq.Chart((0.0, 1.0), (0.0, 1.0)))[0]
        m.inverse(0.3)
        m.inverse(np.array([0.2, 0.4]))
        assert tracer.counts["fields.inverse_calls"] == 2
        assert tracer.counts["fields.root_finds"] == 2
    finally:
        tracer.uninstall()
    for ns, saved in zip(spaces, before):
        now = vars(ns)
        assert now.keys() == saved.keys()
        for name, value in saved.items():
            assert now[name] is value, f"{getattr(ns, '__name__', ns)}.{name} not restored"


def test_tracer_counts_kept_inversions_apart_from_root_finds(tracer_module):
    """A repeated inversion is one more inverse call and no more root finds,
    so the traced hit ratio reads the inversions answered without solving."""
    m = pq.AdmissibleChange("x + x^2/8", "y").maps(pq.Chart((0.0, 1.0), (0.0, 1.0)))[0]
    us = np.array([0.2, 0.4, 0.6])
    tracer = tracer_module.Tracer(time.perf_counter)
    tracer.install()
    try:
        first = m.inverse(us)
        again = m.inverse(us.copy())
    finally:
        tracer.uninstall()
    assert np.array_equal(first, again)
    assert tracer.counts["fields.inverse_calls"] == 2
    assert tracer.counts["fields.root_finds"] == 1


def test_traced_pipeline_spans_its_steps(tracer_module):
    """A traced rectification run records the triviality test and the BK
    normalization as spans of their own inside the pipeline's span, so
    their time is theirs and not the pipeline's self time."""
    chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (9, 9))
    pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10 - y^3/20", chart))
    nf, F, _ = pq.to_null_form(pair.g, pair.F)
    nf2, F2 = pq.apply_admissible_change(nf, F, pq.AdmissibleChange("x + x^2/20", "y"))
    tracer = tracer_module.Tracer(time.perf_counter)
    tracer.install()
    try:
        pq.rectification_pipeline(nf2, F2)
    finally:
        tracer.uninstall()
    pipeline = [s["id"] for s in tracer.spans if s["name"] == "rectification_pipeline"]
    assert len(pipeline) == 1
    for name in ("triviality_check", "bk_normalize"):
        spans = [s for s in tracer.spans if s["name"] == name]
        assert [s["parent"] for s in spans] == pipeline, name
        assert tracer.span_seconds(name) > 0.0
