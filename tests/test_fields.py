"""The last sweep each ScalarField keeps; Monotone1D.inverse: one bracketed
root finder for floats and arrays, and the recent inputs each map keeps; the
quintic Hermite quadrature of QuadratureMap and of the case-1 solver."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projeq import codegen, fields
from projeq.dynamics import QuadraticForm
from projeq.errors import DomainError, NonMonotone
from projeq.expr import Jet2, diff, parse
from projeq.fields import ExprMap, QuadratureMap, ScalarField
from projeq.geometry import Chart
from projeq.equivalence import NullFormMetric
from projeq.rectify import solve_case1

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
    width], through the Hermite quadrature of QuadratureMap."""

    def deriv_jet(t):
        d = np.exp(k1 * t + k2 * t * t)
        g = k1 + 2.0 * k2 * t
        return (d, g * d, (g * g + 2.0 * k2) * d)

    return QuadratureMap(deriv_jet, lo + 0.3 * width, lo, lo + width)


def test_a_field_keeps_its_last_sweep():
    """A sweep on a chart equal to the last one is the kept sweep, with no
    evaluation; another chart is evaluated and replaces it; a sweep that
    raises keeps nothing; the kept slots are read-only; jet() is not kept."""
    calls = []

    def counted(x, y):      # 1/x + y^2, infinite at x = 0
        calls.append(np.shape(x))
        return Jet2(1.0 / x + y * y, -1.0 / (x * x), 2.0 * y, 2.0 / (x * x * x), 0.0, 2.0)

    f = ScalarField(counted)
    first = f.on(Chart((0.5, 1.5), (0.0, 1.0), (5, 4)))
    assert f.on(Chart((0.5, 1.5), (0.0, 1.0), (5, 4))) is first
    assert calls == [(5, 4)]
    for slot in ("v", "dx", "dy", "dxx", "dxy", "dyy"):
        kept = getattr(first, slot)
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0, 0] = 0.0

    other = f.on(Chart((0.5, 1.5), (0.0, 1.0), (3, 3)))
    assert other is not first and calls[-1] == (3, 3)
    again = f.on(Chart((0.5, 1.5), (0.0, 1.0), (5, 4)))
    assert again is not first and len(calls) == 3
    assert all(np.array_equal(getattr(again, s), getattr(first, s)) for s in ("v", "dx", "dyy"))

    bad = Chart((-1.0, 1.0), (0.0, 1.0), (5, 5))       # x = 0 on the grid
    for n in (4, 5):
        with pytest.raises(DomainError) as e:
            f.on(bad)
        assert e.value.point == (0.0, 0.0) and len(calls) == n
    assert f.on(Chart((0.5, 1.5), (0.0, 1.0), (5, 4))) is again and len(calls) == 5

    assert f.jet(0.7, 0.2).v == 1.0 / 0.7 + 0.2 * 0.2 == f(0.7, 0.2)
    assert calls[-2:] == [(), ()]
    assert f.on(Chart((0.5, 1.5), (0.0, 1.0), (5, 4))) is again


ranges = dict(lo=st.floats(-1.0, 0.5), width=st.floats(0.2, 2.0))
# factories, so that a test can build a second, fresh copy of a drawn map
map_factories = st.one_of(
    st.builds(partial, st.just(cubic_map), st.floats(-0.2, 0.2), st.floats(-0.1, 0.1),
              st.floats(-0.05, 0.05), **ranges),
    st.builds(partial, st.just(quadrature_map), st.floats(-1.0, 1.0),
              st.floats(-0.5, 0.5), **ranges),
)
maps = map_factories.map(lambda make: make())


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


def test_array_inverse_runs_no_third_derivative(monkeypatch):
    """Root finding reads the map's values off its jet code alone: inverting
    an array runs no third-derivative code, and the map keeps t alone until
    inverse_jets asks for the jets there."""
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    vlo, vhi = m.range
    us = np.linspace(vlo, vhi, 50)
    function = codegen._Compiled.__call__
    runs = []

    def counted(compiled, grid):
        if grid:
            runs.append(compiled.expr)
        return function(compiled, grid)

    monkeypatch.setattr(codegen._Compiled, "__call__", counted)
    ts = m.inverse(us)
    assert runs and all(e is m.expr for e in runs)
    entry = m._solved[fields._input_key(us)]
    assert len(entry) == 1 and entry[0] is ts
    del runs[:]
    assert m.inverse_jets(us)[0] is ts
    assert any(e is not m.expr for e in runs)   # the counter does see the third derivative
    assert len(entry) == 4


@pytest.mark.parametrize("text", ["x + 0.1*x^2 - 0.03*x^3", "exp(x/2) + x/4", "y + sin(y)/3"])
def test_expr_map_reads_its_jet_code_alone(text, monkeypatch):
    """An ExprMap compiles jet code only, and its values and forward jets are
    the slots of eval_jet of its expression and the value of eval_jet of
    its third derivative, bit for bit, on floats and on arrays."""
    kinds = []
    function = codegen._Compiled.__call__
    monkeypatch.setattr(codegen._Compiled, "__call__",
                        lambda self, grid: kinds.append(self.kind) or function(self, grid))
    var = "y" if "y" in text else "x"
    e = parse(text, variables=(var,))
    m = ExprMap(e, var, -0.5, 0.5)
    d3 = diff(diff(diff(e, var), var), var)
    d, dd = ("dx", "dxx") if var == "x" else ("dy", "dyy")
    for t in (0.3, -0.5, np.linspace(-0.5, 0.5, 9)):
        at = (t, 0.0) if var == "x" else (0.0, t)
        j = codegen.eval_jet(e, *at)
        expected = (j.v, getattr(j, d), getattr(j, dd), codegen.eval_jet(d3, *at).v)
        assert same_bits(m(t), j.v)
        assert all(same_bits(a, b) for a, b in zip(m.fjet(t), expected, strict=True))
    assert kinds and set(kinds) == {"jet"}


def test_inverse_map_value_needs_no_jets(monkeypatch):
    """An inverted map's value is the forward map's inverse, without the
    forward map's third-order jet."""
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    inv = m.inverted()
    us = np.linspace(*m.range, 9)
    # from a copy of m, so that inv(us) solves afresh
    expected = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0).inverse(us)
    monkeypatch.setattr(m, "fjet", None)
    assert np.array_equal(inv(us), expected)
    assert inv(float(us[3])) == expected[3]


# --- the inputs each map keeps ---------------------------------------------------


@pytest.fixture
def root_finds(monkeypatch):
    """The arguments of each fields.brentq call, in order."""
    calls = []
    solve = fields.brentq

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(fields, "brentq", counted)
    return calls


def same_bits(x, y):
    return type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@settings(max_examples=30, deadline=None)
@given(make=map_factories,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12, unique=True))
def test_repeated_inverses_are_fresh_solves(make, fractions):
    """However often an input comes back, and whatever was inverted in
    between, the answer is the bits of a fresh map's first solve, and the
    jets kept with it are the bits of the fresh map's jets there, whether
    they were asked for with the inversion or after it."""
    m, fresh = make(), make()
    vlo, vhi = m.range
    us = vlo + (vhi - vlo) * np.array(fractions)
    floats = [float(u) for u in us]
    inputs = [us, us[::-1].copy(), *floats]
    expected = [fresh.inverse(u) for u in inputs]
    jets = [fresh.fjet(t)[1:] for t in expected]
    for rnd in range(3):        # more inputs than are kept: some are solved again
        for i, (u, t, d) in enumerate(zip(inputs, expected, jets)):
            if (i + rnd) % 2:
                assert same_bits(m.inverse(u), t)
            got = m.inverse_jets(u)
            assert same_bits(got[0], t)
            assert all(same_bits(a, b) for a, b in zip(got[1:], d, strict=True))


def test_float_kinds_keep_their_type(root_finds):
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    for _ in range(2):
        assert type(m.inverse(0.2)) is float
        assert type(m.inverse(np.float64(0.2))) is np.float64
    assert len(root_finds) == 2
    assert m.inverse(0.2) == m.inverse(np.float64(0.2))


def test_inverted_arrays_are_read_only():
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    us = np.linspace(*m.range, 7)
    ts = m.inverse(us)
    expected = ts.copy()
    with pytest.raises(ValueError):
        ts[0] = 0.0
    assert m.inverse(us) is ts
    assert np.array_equal(ts, expected)
    kept = m.inverse_jets(us)
    assert kept[0] is ts
    for d in kept[1:]:
        if isinstance(d, np.ndarray):
            with pytest.raises(ValueError):
                d[0] = 0.0
    us[0] = us[1]               # the key is the input's value, not its identity
    assert np.array_equal(m.inverse(us), cubic_map(0.1, 0.05, -0.03, -0.5, 1.0).inverse(us))


def test_out_of_range_inputs_always_raise_and_are_not_kept(root_finds):
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    vlo, vhi = m.range
    kept = [vlo + (vhi - vlo) * k / 8.0 for k in range(fields._SOLVED_INPUTS)]
    for u in kept:
        m.inverse(u)
    for _ in range(3):
        for bad in (vhi + 1.0, np.array([vlo, vlo - 1.0]), float("nan")):
            with pytest.raises(NonMonotone):
                m.inverse(bad)
    for u in reversed(kept):    # none of them was pushed out
        m.inverse(u)
    assert len(root_finds) == len(kept)


def test_only_the_most_recent_inputs_are_kept(root_finds):
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    vlo, vhi = m.range
    us = [np.full(3, vlo + (vhi - vlo) * k / 40.0) for k in range(40)]
    for u in us:
        m.inverse(u)
    assert len(m._solved) == fields._SOLVED_INPUTS
    del root_finds[:]
    for u in reversed(us[-fields._SOLVED_INPUTS:]):
        m.inverse(u)
    assert root_finds == []
    m.inverse(us[-fields._SOLVED_INPUTS - 1])
    assert len(root_finds) == 1
    assert len(m._solved) == fields._SOLVED_INPUTS


# --- quintic Hermite quadrature --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.floats(-0.15, 0.15), min_size=1, max_size=5), **ranges,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_quintic_derivatives_are_integrated_exactly(coeffs, lo, width, fractions):
    """A derivative that is a polynomial of degree <= 5 (here >= 0.25 on the
    range) is its own interpolant: the map is its integral up to rounding."""
    d = np.polynomial.Polynomial([1.0] + coeffs, domain=[lo, lo + width])
    t0 = lo + 0.3 * width
    m = QuadratureMap(lambda t: (d(t), d.deriv()(t), d.deriv(2)(t)), t0, lo, lo + width)
    ts = lo + width * np.array(fractions)
    anti = d.integ()
    assert np.max(np.abs(m(ts) - (anti(ts) - anti(t0)))) <= 1e-14 * (1.0 + width)


@settings(max_examples=40, deadline=None)
@given(k=st.floats(-1.0, 1.0).filter(lambda k: abs(k) > 1e-6), **ranges,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_exponential_matches_its_closed_form_integral(k, lo, width, fractions):
    """Within 1e-12 of the exact integral where the sixth derivative, which
    sets the quadrature error, stays below e^2.5."""
    t0 = lo + 0.3 * width
    m = QuadratureMap(lambda t: (np.exp(k * t), k * np.exp(k * t), k * k * np.exp(k * t)),
                      t0, lo, lo + width)
    ts = lo + width * np.array(fractions)
    exact = np.exp(k * t0) * np.expm1(k * (ts - t0)) / k
    assert np.all(np.abs(m(ts) - exact) <= 1e-12)


@settings(max_examples=20, deadline=None)
@given(make=st.builds(partial, st.just(quadrature_map), st.floats(-1.0, 1.0),
                      st.floats(-0.5, 0.5), **ranges),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_fjet_returns_the_derivative_jets(make, fractions):
    m = make()
    ts = m.tmin + (m.tmax - m.tmin) * np.array(fractions)
    assert all(np.array_equal(a, b) for a, b in zip(m.fjet(ts)[1:], m._deriv_jet(ts)))
    t = float(ts[0])
    assert m.fjet(t)[1:] == m._deriv_jet(t)
    assert type(m.fjet(t)[0]) is float and m.fjet(t)[0] == m(ts)[0]


def test_case1_interpolant_reproduces_samples_and_slopes():
    """solve_case1's X and Y pass through their samples with the slopes of
    X_T(u) = 2 + 0.3 u - 0.1 u^3 and Y_T(v) = -1 - 0.2 v^2 at the knots."""
    chart = Chart((-0.5, 0.5), (-0.4, 0.4), (11, 11))
    X = "(2 + 0.3*(x + y) - 0.1*(x + y)^3)"
    Y = "(-1 - 0.2*(x - y)^2)"
    # ds^2 = (X - Y)(du^2 - dv^2) = 4 (X - Y) dx dy, b = -2 (X + Y) / (X - Y)
    f = ScalarField.from_expr(parse(f"4*({X} - {Y})"))
    b = ScalarField.from_expr(parse(f"-2*({X} + {Y})/({X} - {Y})"))
    one = ScalarField.constant(1.0)
    res = solve_case1(NullFormMetric(f, chart), QuadraticForm(one, b, one, chart))
    u, v = res.u_grid, res.v_grid
    assert np.allclose(res.X(u), res.X_values, rtol=0.0, atol=1e-14)
    assert np.allclose(res.Y(v), res.Y_values, rtol=0.0, atol=1e-14)
    assert np.allclose(res.X.derivative(u), 0.3 - 0.3 * u * u, rtol=0.0, atol=1e-12)
    assert np.allclose(res.Y.derivative(v), -0.4 * v, rtol=0.0, atol=1e-12)
    assert np.allclose(res.X_values, 2.0 + 0.3 * u - 0.1 * u ** 3, rtol=0.0, atol=1e-13)
    assert res.reconstruction_residual < 1e-12
