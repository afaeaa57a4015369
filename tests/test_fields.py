"""Monotone1D.inverse: one bracketed root finder for floats and arrays."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projeq import codegen
from projeq.errors import NonMonotone
from projeq.expr import parse
from projeq.fields import ExprMap, QuadratureMap

from conftest import poly_expr


def cubic_map(c0, c2, c3, lo, width):
    """A monotone cubic change x -> c0 + x + c2 x^2 + c3 x^3 on [lo, lo +
    width], scaled like the benchmark's admissible changes so that its
    derivative stays >= 1 - 0.2 - 0.15."""
    hi = lo + width
    T = max(abs(lo), abs(hi), 0.5)
    e = parse(poly_expr("x", c0, [1.0, c2 / T, c3 / (T * T)]), variables=("x",))
    return ExprMap(e, "x", lo, hi)


def quadrature_map(k1, k2, lo, width):
    """The map whose derivative is d(t) = exp(k1 t + k2 t^2) on [lo, lo +
    width], through the spline quadrature of QuadratureMap."""

    def deriv_jet(t):
        d = np.exp(k1 * t + k2 * t * t)
        g = k1 + 2.0 * k2 * t
        return (d, g * d, (g * g + 2.0 * k2) * d)

    return QuadratureMap(deriv_jet, lo + 0.3 * width, lo, lo + width)


ranges = dict(lo=st.floats(-1.0, 0.5), width=st.floats(0.2, 2.0))
maps = st.one_of(
    st.builds(cubic_map, st.floats(-0.2, 0.2), st.floats(-0.1, 0.1),
              st.floats(-0.05, 0.05), **ranges),
    st.builds(quadrature_map, st.floats(-1.0, 1.0), st.floats(-0.5, 0.5), **ranges),
)


@settings(max_examples=40, deadline=None)
@given(m=maps, fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_inverse_array_equals_scalar(m, fractions):
    vlo, vhi = m.range
    us = np.concatenate([[vlo, vhi], vlo + (vhi - vlo) * np.array(fractions)])
    ts = m.inverse(us)
    # entries freeze independently: the array solve is the scalar solves
    assert np.array_equal(ts, [m.inverse(float(u)) for u in us])
    assert np.all((m.tmin <= ts) & (ts <= m.tmax))
    assert np.all(np.abs(m(ts) - us) <= 1e-12 * (1.0 + np.abs(us)))
    # a 2-D array comes back in its own shape, entry by entry
    assert np.array_equal(m.inverse(us[:2 * (len(us) // 2)].reshape(2, -1)),
                          ts[:2 * (len(us) // 2)].reshape(2, -1))


@settings(max_examples=20, deadline=None)
@given(m=maps)
def test_inverse_range_ends(m):
    vlo, vhi = m.range
    # round-off at an end gives the end, for floats and arrays alike
    for u, t in ((vlo - 1e-12 * (1.0 + abs(vlo)), m.tmin),
                 (vhi + 1e-12 * (1.0 + abs(vhi)), m.tmax)):
        assert m.inverse(u) == t
        assert m.inverse(np.array([u]))[0] == t
    # values further outside the range raise, also inside an array
    for u in (vlo - 1e-6 * (1.0 + abs(vlo)), vhi + 1e-6 * (1.0 + abs(vhi)), float("nan")):
        with pytest.raises(NonMonotone):
            m.inverse(u)
        with pytest.raises(NonMonotone):
            m.inverse(np.array([0.5 * (vlo + vhi), u]))


def test_inverse_of_float_is_float():
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    assert type(m.inverse(0.2)) is float


def test_array_inverse_walks_no_jets(monkeypatch):
    """Root finding evaluates the map's values only: inverting an array runs
    no order-2 jet evaluation over the grid."""
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    vlo, vhi = m.range
    function = codegen._Compiled.__call__
    walks = []

    def counted(compiled, grid):
        if compiled.kind == "jet" and grid:
            walks.append(compiled.expr)
        return function(compiled, grid)

    monkeypatch.setattr(codegen._Compiled, "__call__", counted)
    ts = m.inverse(np.linspace(vlo, vhi, 50))
    assert walks == []
    m.fjet(ts)                      # the counter does see jet evaluations
    assert walks


def test_inverse_map_value_needs_no_jets(monkeypatch):
    """An inverted map's value is the forward map's inverse, without the
    forward map's third-order jet."""
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    inv = m.inverted()
    us = np.linspace(*m.range, 9)
    expected = m.inverse(us)
    monkeypatch.setattr(m, "fjet", None)
    assert np.array_equal(inv(us), expected)
    assert inv(float(us[3])) == expected[3]
