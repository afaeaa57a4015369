"""The last sweep each ScalarField keeps, and the sweeps of arithmetic fields
from their operands' kept sweeps; Monotone1D.inverse: one bracketed root
finder for floats and arrays, and the recent inputs each map keeps; the
quintic Hermite quadrature of QuadratureMap and of the case-1 solver."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projeq import codegen, equivalence, fields
from projeq.dynamics import QuadraticForm, hamiltonian_form
from projeq.errors import DomainError, InvalidArgument, NonMonotone
from projeq.expr import Jet2, Num, diff, parse
from projeq.fields import ExprMap, QuadratureMap, ScalarField
from projeq.geometry import Chart, Metric2, determinant
from projeq.equivalence import NullFormMetric, null_form_of
from projeq.rectify import solve_case1

from conftest import poly_expr


def expr_map(text, lo, width):
    """The ExprMap of an expression in x on [lo, lo + width]."""
    return ExprMap(parse(text, variables=("x",)), "x", lo, lo + width)


def cubic_map(c0, c2, c3, lo, width):
    """A monotone cubic change x -> c0 + x + c2 x^2 + c3 x^3 on [lo, lo +
    width], scaled like the benchmark's admissible changes so that its
    derivative stays >= 1 - 0.2 - 0.15."""
    T = max(abs(lo), abs(lo + width), 0.5)
    return expr_map(poly_expr("x", c0, [1.0, c2 / T, c3 / (T * T)]), lo, width)


def exp_map(k, lo, width):
    """x -> exp(k x) + x/4, for k > 0."""
    return expr_map(f"exp({k!r}*x) + x/4", lo, width)


def sin_map(a, lo, width):
    """x -> x + a sin(3x), increasing for |a| < 1/3."""
    return expr_map(f"x {'+' if a >= 0 else '-'} {abs(a)!r}*sin(3*x)", lo, width)


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


def test_a_shared_field_whose_sweep_raises_keeps_its_last_sweep():
    """A field that two arithmetic fields read keeps what it evaluates on a
    chart.  Where on() then finds a non-finite value, it raises and keeps
    the sweep it had, as a field with no readers does.  The readers' sweeps
    evaluate the field once between them, and raise at the same point."""
    calls = []

    def counted(x, y):      # 1/x, infinite at x = 0
        calls.append(np.shape(x))
        return Jet2(1.0 / x, -1.0 / (x * x), 0.0, 2.0 / (x * x * x), 0.0, 0.0)

    f = ScalarField(counted)
    readers = (f + 1.0, f * 2.0)
    good = Chart((0.5, 1.5), (0.0, 1.0), (5, 4))
    bad = Chart((-1.0, 1.0), (0.0, 1.0), (5, 5))        # x = 0 on the grid
    kept = f.on(good)
    with pytest.raises(DomainError):
        f.on(bad)
    assert f.on(good) is kept and calls == [(5, 4), (5, 5)]
    for reader in readers:
        with pytest.raises(DomainError) as e:
            reader.on(bad)
        assert e.value.point == (0.0, 0.0) and reader._swept is None
    assert calls == [(5, 4), (5, 5), (5, 5)]


def test_finite_slots_whose_sum_overflows_pass_the_sweep():
    """on() tests the sum of the six slots for finiteness and builds the
    exact mask only where that sum is not finite: finite slots whose sum
    overflows do not raise.  A slot that is a full float array of the
    chart's shape is kept as a read-only view of it, a number is broadcast."""
    chart = Chart((0.0, 1.0), (0.0, 1.0), (3, 4))
    values = np.full(chart.grid, 1e308)
    f = ScalarField(lambda x, y: Jet2(values, 1e308, 1e308, -1e308, 0.0, 1e308))
    jets = f.on(chart)
    assert np.shares_memory(jets.v, values) and not jets.v.flags.writeable
    assert values.flags.writeable
    assert [np.max(getattr(jets, s)) for s in Jet2.__slots__] == \
        [1e308, 1e308, 1e308, -1e308, 0.0, 1e308]


def test_one_nan_slot_names_the_first_bad_grid_point():
    chart = Chart((0.0, 1.0), (0.0, 1.0), (3, 4))

    def jet(x, y):
        return Jet2(x + y, 1.0, 1.0, 0.0, np.where((x > 0.4) & (y > 0.5), np.nan, 0.0), 0.0)

    with pytest.raises(DomainError) as e:
        ScalarField(jet).on(chart)
    assert e.value.point == (0.5, float(chart.ys[2]))


def _operand_tree(field):
    """The fields under an arithmetic field, each once, operands first."""
    seen = []
    for o in field._op[1] if field._op else ():
        for node in (*_operand_tree(o), o):
            if all(node is not s for s in seen):
                seen.append(node)
    return seen


def test_an_arithmetic_field_holds_no_function():
    """+ - * / and negation record (operation, operands) and no function;
    point reads and sweeps both apply the record
    (test_a_sweep_equals_the_closure_route)."""
    x, y = ScalarField.coordinate("x"), ScalarField.coordinate("y")
    for f in (x + y, x - 1.0, 2.0 * x, x / y, -x, 1.0 / (x * y)):
        assert f._jet is None and f._op is not None
    assert not hasattr(ScalarField, "_grid")


def test_derived_fields_sweep_from_the_entries_kept_sweeps():
    """Once a Metric2 has swept its entries, sweeps of H = 1/2 g^-1 and of
    the null form f = 2 g12 read those kept sweeps and run no entry's code
    on the grid, and to_metric2() of that null form is g itself, so it
    sweeps nothing.  Of the fields in between, det g, read by g^11, g^12 and
    g^22, keeps its sweep (unchecked), and every field read by one
    arithmetic field (g22 / det, ...) keeps none."""
    chart = Chart((-0.5, 0.5), (-0.5, 0.5), (7, 6))
    grid_calls = []

    def counted(field, name):
        jet = field._jet

        def on_grid(x, y):
            if np.ndim(x):
                grid_calls.append(name)
            return jet(x, y)

        field._jet = on_grid
        return field

    entries = [counted(ScalarField.from_expr(parse(text)), name)
               for text, name in (("0", "g11"), ("1 + x/4 + y^2/5", "g12"), ("0", "g22"))]
    g = Metric2(*entries, chart)
    assert grid_calls == ["g11", "g12", "g22"]

    H = hamiltonian_form(g)
    H.on(chart)
    nf = null_form_of(g)
    metrics = [nf.to_metric2(), nf.to_metric2()]
    assert grid_calls == ["g11", "g12", "g22"] and metrics[0] is metrics[1] is g

    det = H.a._op[1][0]._op[1][1]            # (g22 / det) * 0.5
    assert det.expr == determinant(*entries).expr and det._readers == 3
    kept_between = []
    for top in (H.a, H.b, H.c, nf.f):
        assert top._swept is not None and top._swept[1] is not None
        below = _operand_tree(top)
        assert below
        for node in below:
            if any(node is e for e in (*entries, nf.f)):
                assert node._swept is not None
            elif node._swept is not None:
                kept_between.append(node)
            else:
                assert node._readers == 1
    assert all(node is det for node in kept_between) and kept_between
    assert det._swept[0] is chart and det._swept[1] is None
    assert H.a._op[1][0]._swept is None      # g22 / det, one reader


def test_a_shared_field_is_evaluated_once_per_point_set_under_compositions():
    """Fields composed with the same maps read their inner fields at the
    maps' kept inversions, and fields composed with one matrix under one
    chart read theirs at one point set too: a field below two of them, with
    two readers, is evaluated once per point set and keeps that read beside
    its chart sweep, not in place of it.  Every composed sweep is its
    pointwise read, bit for bit."""
    chart = Chart((0.2, 1.0), (0.1, 0.9), (6, 5))
    X = ScalarField.from_expr(parse("1 + x*y + y^2"))
    leaf, calls = X._jet, []

    def counted(x, y):
        calls.append((x, y))
        return leaf(x, y)

    X._jet = counted
    p, q = X * 2.0, X + 1.0
    X.on(chart)
    assert len(calls) == 1 and X._readers == 2

    xmap = ExprMap(parse("x + x^3/10"), "x", *chart.x_range)
    ymap = ExprMap(parse("y + y^2/10"), "y", *chart.y_range)
    new = Chart(xmap.range, ymap.range, chart.grid)
    P, Q = p.compose_separable(xmap, ymap, 1, 0), q.compose_separable(xmap, ymap, 0, 1)
    m = np.array([[0.5, 0.25], [-0.125, 0.75]])
    lin = Chart((0.3, 0.6), (0.2, 0.5), (4, 4))
    P2, Q2 = p.compose_linear(m), q.compose_linear(m.copy())
    swept = [f.on(c) for f, c in ((P, new), (Q, new), (P2, lin), (Q2, lin))]
    assert len(calls) == 3
    assert calls[1][0] is xmap.inverse(new.mesh[0]) and calls[1][1] is ymap.inverse(new.mesh[1])
    assert X._swept[0] == chart and X._swept[1] is not None and X._keyed is not None
    for f, c, jets in zip((P, Q, P2, Q2), (new, new, lin, lin), swept):
        fresh = f.jet(*c.mesh)
        assert [getattr(jets, s).tobytes() for s in Jet2.__slots__] == \
            [np.broadcast_to(getattr(fresh, s), c.grid).tobytes() for s in Jet2.__slots__]


def test_a_componentwise_null_form_has_one_zero_field():
    """Metric2.from_exprs gives g11 and g22 one field where both are the same
    literal number, bit for bit, so that g^11 and g^22 are one quotient;
    0 and -0 stay apart."""
    chart = Chart((-0.5, 0.5), (-0.5, 0.5), (5, 4))
    g = Metric2.from_exprs("0", "1 + x/4", "0", chart)
    assert g.g11 is g.g22 and g.inverse_fields()[0] is g.inverse_fields()[2]
    two = Metric2.from_exprs("2", "x/8", "2.0", chart)
    assert two.g11 is two.g22 and two.g11.expr == Num(2.0)
    for g11, g22 in (("0", "-0"), ("0", "0*x"), ("2", "3"), ("x", "x")):
        h = Metric2.from_exprs(g11, "1 + x/4", g22, chart)
        assert h.g11 is not h.g22


def test_each_derived_form_is_one_object(monkeypatch):
    """A metric's inverse fields, Hamiltonian and null form, and a null
    form's metric, are built on the first call and returned again on every
    later one; a metric that has no null form is judged once too.  Another
    metric builds its own."""
    decided = []
    decide = equivalence._null_form

    def counted(g):
        decided.append(g)
        return decide(g)

    monkeypatch.setattr(equivalence, "_null_form", counted)
    chart = Chart((-0.5, 0.5), (-0.5, 0.5), (5, 4))
    g = Metric2.from_exprs("0", "1 + x/4", "0", chart)
    h = Metric2.from_exprs("2 + y", "x/8", "3", chart)
    for metric in (g, h):
        assert metric.inverse_fields() is metric.inverse_fields()
        assert hamiltonian_form(metric) is hamiltonian_form(metric)
    assert g.inverse_fields()[0] is not h.inverse_fields()[0]
    assert hamiltonian_form(g) is not hamiltonian_form(h)
    nf = null_form_of(g)
    assert nf is not None and nf.to_metric2() is nf.to_metric2()
    for _ in range(3):
        assert null_form_of(g) is nf and null_form_of(h) is None
    assert decided == [g, h]


def test_a_sweep_of_h_applies_det_g_once():
    """det g is read by g^11, g^12 and g^22: a sweep of H's three
    coefficients applies its operation once, and so does a sweep of a
    multiple of H after it; an operand of det g with one reader is
    evaluated once too.  Where g11 and g22 are one field, as in a null form,
    g^11 and g^22 are one quotient by det g and H's a and c one product, so
    a sweep of H applies that quotient once; the multiples of H and of g
    share their diagonal product too."""
    chart = Chart((-0.5, 0.5), (-0.5, 0.5), (6, 5))
    g = Metric2.from_exprs("2 + x*y", "x/8", "3 - y/2", chart)
    H = hamiltonian_form(g)
    det = H.a._op[1][0]._op[1][1]            # (g22 / det) * 0.5
    product = det._op[1][0]                  # g11 * g22
    applied = []

    def counting(field, name):
        op, operands = field._op

        def counted(*jets):
            applied.append(name)
            return op(*jets)

        field._op = (counted, operands)

    counting(det, "det")
    counting(product, "g11 g22")
    H.on(chart)
    assert sorted(applied) == ["det", "g11 g22"]
    H.scaled(3.0).on(chart)
    # det g keeps its result unchecked; on() checks that, evaluating nothing
    kept = det._swept[2]
    assert det._swept[1] is None and np.shares_memory(det.on(chart).v, kept.v)
    assert sorted(applied) == ["det", "g11 g22"]
    want = (3.0 - chart.mesh[1] / 2.0) / ((2.0 + chart.mesh[0] * chart.mesh[1])
                                         * (3.0 - chart.mesh[1] / 2.0)
                                         - chart.mesh[0] / 8.0 * (chart.mesh[0] / 8.0))
    assert np.allclose(H.a.on(chart).v, 0.5 * want, rtol=1e-14, atol=0.0)

    zero = ScalarField.constant(0.0)
    n = Metric2(zero, ScalarField.from_expr(parse("1 + x/4")), zero, chart)
    i11, i12, i22 = n.inverse_fields()
    Hn = hamiltonian_form(n)
    assert i11 is i22 and Hn.a is Hn.c and Hn.a._op[1][0] is i11
    assert i11._op[1][1] is i12._op[1][1]       # both divide by the one det g
    counting(i11, "g22 / det")
    counting(i11._op[1][1], "det n")
    del applied[:]
    Hn.on(chart)
    assert sorted(applied) == ["det n", "g22 / det"]
    H3, n2 = Hn.scaled(3.0), n.scaled(2.0)
    assert H3.a is H3.c and n2.g11 is n2.g22


def test_zero_slots_read_the_charts_zeros():
    """on() gives a +0.0 number slot as chart.zeros, read-only, and
    broadcasts any other number, -0.0 with its sign."""
    chart = Chart((0.0, 1.0), (0.0, 1.0), (3, 4))
    jets = ScalarField(lambda x, y: Jet2(x + y, 1.0, 0.0, -0.0, 0.0, 2.0)).on(chart)
    assert jets.dy is chart.zeros and jets.dxy is chart.zeros
    assert not chart.zeros.flags.writeable and not chart.zeros.any()
    with pytest.raises(ValueError):
        jets.dy[0, 0] = 1.0
    assert jets.dxx is not chart.zeros and jets.dxx.shape == (3, 4)
    assert np.all(jets.dxx == 0.0) and np.all(np.signbit(jets.dxx))
    assert np.all(jets.dx == 1.0) and np.all(jets.dyy == 2.0)
    assert ScalarField.constant(0.0).on(chart).v is chart.zeros
    assert np.all(np.signbit(ScalarField.constant(-0.0).on(chart).v))


# compiled leaves; the chart below puts x = 0 on its grid, where 1/x is not
# finite, and 1e200*x overflows in products
_LEAVES = ("x", "y", "x*y - 1/3", "1/x", "exp(3*x) + y", "sin(x*y) + 2", "0", "2",
           "1e200*x", "log(y + 2)", "x^2 - y")
_CHART = Chart((-1.0, 1.0), (-1.0, 1.0), (5, 3))
# a leaf (text, sweep it first) or a float operand
_trees = st.recursive(
    st.tuples(st.sampled_from(_LEAVES), st.booleans()) | st.sampled_from((0.0, 0.5, -2.0, 3.0)),
    lambda sub: st.tuples(st.sampled_from("+-*/"), sub, sub) | st.tuples(st.just("neg"), sub),
    max_leaves=8)


def _build(tree, leaves):
    """The field of a drawn tree, or a float; leaves of one text are one field."""
    if isinstance(tree, float):
        return tree
    if tree[0] in _LEAVES:
        return leaves.setdefault(tree[0], ScalarField.from_expr(parse(tree[0])))
    if tree[0] == "neg":
        return -_as_field(_build(tree[1], leaves))
    left, right = (_build(t, leaves) for t in tree[1:])
    if isinstance(left, float) and isinstance(right, float):
        left = ScalarField.constant(left)
    return {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
            "*": lambda a, b: a * b, "/": lambda a, b: a / b}[tree[0]](left, right)


def _as_field(f):
    return f if isinstance(f, ScalarField) else ScalarField.constant(f)


def _swept_leaves(tree):
    if isinstance(tree, float):
        return []
    if tree[0] in _LEAVES:
        return [tree[0]] if tree[1] else []
    return [text for t in tree[1:] for text in _swept_leaves(t)]


@settings(max_examples=150, deadline=None)
@given(tree=_trees)
@example(tree=("*", ("1/x", True), ("y", True)))         # the leaf's own sweep raises
@example(tree=("-", ("exp(3*x) + y", True), ("1/x", True)))
@example(tree=("/", ("x", False), ("0", True)))          # a kept constant divisor
@example(tree=("*", ("1e200*x", True), ("1e200*x", False)))
@example(tree=("+", ("*", ("x*y - 1/3", False), ("y", False)),
               ("-", ("x*y - 1/3", False), ("y", False))))   # leaves with two readers
@example(tree=("-", ("1/x", True), ("*", ("1/x", False), 2.0)))
def test_a_sweep_equals_the_closure_route(tree):
    """Whichever leaves were swept first, on(chart) of an arithmetic field is
    its pointwise read jet(*mesh), which no kept sweep answers, bit for bit
    in all six slots; where that read raises or is not finite, on raises
    DomainError with the same message or at the same point.  A leaf whose
    own sweep raised keeps nothing, and every sweep a field below keeps is
    its own pointwise read, bit for bit."""
    leaves = {}
    field = _as_field(_build(tree, leaves))
    for text in _swept_leaves(tree):
        try:
            leaves[text].on(_CHART)
        except DomainError:
            assert leaves[text]._swept is None
    _sweep_equals_the_closure_route(field)
    for node in _operand_tree(field):
        if node._swept is not None:
            with np.errstate(all="ignore"):
                fresh = node.jet(*_CHART.mesh)
            assert [np.asarray(getattr(node._swept[2], s)).tobytes() for s in Jet2.__slots__] \
                == [np.asarray(getattr(fresh, s)).tobytes() for s in Jet2.__slots__]


def _sweep_equals_the_closure_route(field):
    try:
        with np.errstate(all="ignore"):
            pointwise = field.jet(*_CHART.mesh)
    except DomainError as e:
        with pytest.raises(DomainError) as got:
            field.on(_CHART)
        assert (str(got.value), got.value.point) == (str(e), e.point)
        return
    want = [np.broadcast_to(np.asarray(getattr(pointwise, s), dtype=float), _CHART.grid)
            for s in Jet2.__slots__]
    bad = ~np.all([np.isfinite(w) for w in want], axis=0)
    if bad.any():
        with pytest.raises(DomainError) as got:
            field.on(_CHART)
        assert got.value.point == _CHART.first_point(bad)
        assert field._swept is None
        return
    swept = field.on(_CHART)
    assert [getattr(swept, s).tobytes() for s in Jet2.__slots__] == [w.tobytes() for w in want]


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


def solve_counted(m, u):
    """m.inverse(u), and how often its root finder evaluated the map."""
    evals = [0]
    solve = fields.brentq

    def counted(g, *args):
        def g_counted(t):
            evals[0] += 1
            return g(t)
        return solve(g_counted, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "brentq", counted)
        return m.inverse(u), evals[0]


# the benchmark's cubic admissible changes, and exp and sin maps
newton_maps = st.one_of(
    st.builds(partial, st.just(cubic_map), st.floats(-0.2, 0.2), st.floats(-0.1, 0.1),
              st.floats(-0.05, 0.05), **ranges),
    st.builds(partial, st.just(exp_map), st.floats(0.1, 3.0), **ranges),
    st.builds(partial, st.just(sin_map), st.floats(-0.3, 0.3), **ranges),
)


@settings(max_examples=60, deadline=None)
@given(make=newton_maps,
       fractions=st.lists(st.floats(-1e-12, 1.0 + 1e-12), min_size=1, max_size=20))
# inputs within the round-off slack just outside each end of the range
@example(make=partial(cubic_map, 0.1, 0.05, -0.03, -0.5, 1.0), fractions=[-1e-12, 1.0 + 1e-12])
# the Newton step from a converged iterate rounds onto the bracket's lower
# end, and onto its upper end: a closed bracket takes it
@example(make=partial(cubic_map, -0.0439701792240553, 0.09493856257645786,
                      0.012526148441510676, 0.04043425205437279, 1.1387452198383516),
         fractions=[0.3955564210524287])
@example(make=partial(cubic_map, 0.06414215220820935, -0.05088954655136449,
                      0.026851699889625436, -0.6824878860887342, 1.6962947023960302),
         fractions=[0.37514699649664185])
# a slope of 1e-6 at 0: the Newton step from near 0 leaves the bracket, and
# its midpoint is taken instead
@example(make=partial(expr_map, "x^3 + 1e-6*x", -0.5, 1.5), fractions=[0.5, 0.05])
def test_newton_inverse(make, fractions):
    """The inverse of an array is the float inverses of its entries, bit for
    bit; each is within round-off of the input, or the range end for an
    input just outside it; a cubic map's solve evaluates it at most 5 times."""
    m = make()
    vlo, vhi = m.range
    us = np.concatenate([[vlo, vhi], vlo + (vhi - vlo) * np.array(fractions)])
    ts, evals = solve_counted(m, us)
    floats = [solve_counted(m, u) for u in us.tolist()]
    assert ts.tobytes() == np.array([t for t, _ in floats]).tobytes()
    assert all(type(t) is float for t, _ in floats)
    assert np.all((m.tmin <= ts) & (ts <= m.tmax))
    inside = (vlo <= us) & (us <= vhi)
    assert np.all(np.abs(m(ts[inside]) - us[inside]) <= 1e-12 * (1.0 + np.abs(us[inside])))
    assert np.all(ts[us < vlo] == m.tmin) and np.all(ts[us > vhi] == m.tmax)
    if make.func is cubic_map:
        assert max(evals, *(n for _, n in floats)) <= 5


def test_inverse_of_float_is_float():
    m = cubic_map(0.1, 0.05, -0.03, -0.5, 1.0)
    assert type(m.inverse(0.2)) is float


def test_array_inverse_runs_no_third_derivative(monkeypatch):
    """Root finding reads the map's values off its jet code alone: inverting
    an array runs no third-derivative code, and the map keeps t alone until
    inverse_jets asks for the jets there.  Then a map whose third derivative
    is a constant (every cubic) reads it as a float and runs no code for it;
    one whose third derivative varies runs that derivative's jet code."""
    function = codegen._Compiled.__call__
    runs = []

    def counted(compiled, grid):
        if grid:
            runs.append(compiled.expr)
        return function(compiled, grid)

    monkeypatch.setattr(codegen._Compiled, "__call__", counted)
    for m, constant in ((cubic_map(0.1, 0.05, -0.03, -0.5, 1.0), True),
                        (exp_map(0.5, -0.5, 1.0), False)):
        vlo, vhi = m.range
        us = np.linspace(vlo, vhi, 50)
        del runs[:]
        ts = m.inverse(us)
        assert runs and all(e is m.expr for e in runs)
        entry = m._solved[fields._input_key(us)]
        assert len(entry) == 1 and entry[0] is ts
        del runs[:]
        assert m.inverse_jets(us)[0] is ts
        assert runs and len(entry) == 4
        if constant:
            assert all(e is m.expr for e in runs)
            assert type(entry[3]) is float and entry[3] == m.fjet(0.3)[3] < 0.0
        else:
            assert any(e is not m.expr for e in runs)   # the counter does see the third derivative


@pytest.mark.parametrize("text", ["x + 0.1*x^2 - 0.03*x^3", "exp(x/2) + x/4", "y + sin(y)/3"])
def test_expr_map_reads_its_jet_code_alone(text, monkeypatch):
    """An ExprMap compiles array jet code only.  On arrays its values and
    forward jets are the slots of eval_jet of its expression and the value
    of eval_jet of its third derivative; at a float they are those of the
    one-entry array, bit for bit, as floats.  A third derivative that is a
    constant (the cubic) is that number as a float, and runs no code."""
    runs = []
    function = codegen._Compiled.__call__
    monkeypatch.setattr(codegen._Compiled, "__call__",
                        lambda self, grid: runs.append((self.kind, grid)) or function(self, grid))
    var = "y" if "y" in text else "x"
    e = parse(text, variables=(var,))
    m = ExprMap(e, var, -0.5, 0.5)
    d3 = diff(diff(diff(e, var), var), var)
    d, dd = ("dx", "dxx") if var == "x" else ("dy", "dyy")
    ts = np.linspace(-0.5, 0.5, 9)
    at = (ts, 0.0) if var == "x" else (0.0, ts)
    j = codegen.eval_jet(e, *at)
    third = codegen.eval_jet(d3, *at).v
    if type(d3) is Num:
        assert all(same_bits(v, float(d3.value)) for v in np.ravel(third).tolist())
        third = float(d3.value)
    expected = (j.v, getattr(j, d), getattr(j, dd), third)
    assert same_bits(m(ts), j.v)
    del runs[:]
    assert all(same_bits(a, b) for a, b in zip(m.fjet(ts), expected, strict=True))
    assert len(runs) == (1 if type(d3) is Num else 2)
    for t in (0.3, -0.5, *ts.tolist()):
        one = [np.broadcast_to(s, (1,)).item() for s in m.fjet(np.array([t]))]
        assert same_bits(m(t), one[0])
        assert all(same_bits(a, b) for a, b in zip(m.fjet(t), one, strict=True))
    kinds = [kind for kind, _ in runs]
    assert kinds and set(kinds) == {"jet"}
    assert all(grid for _, grid in runs)


def test_inverted_map_jets_are_alike_on_floats_and_arrays():
    """An inverted map's jets at a float are the bits of that entry of an
    array's jets: its derivatives are products of 1/phi', not powers, which
    NumPy and Python round differently."""
    inv = expr_map("x + 0.1*x^2 - 0.03*x^3", -0.5, 1.0).inverted()
    us = np.linspace(inv.tmin, inv.tmax, 41)[1:-1]
    arrays = inv.fjet(us)
    for k, u in enumerate(us.tolist()):
        assert all(same_bits(a, b[k].item()) for a, b in zip(inv.fjet(u), arrays, strict=True))


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


def test_quadrature_map_needs_distinct_knots():
    """A range too narrow for distinct knots is refused, not integrated
    with zero-width pieces."""
    with pytest.raises(InvalidArgument, match="too narrow"):
        QuadratureMap(lambda t: (1.0 + 0.0 * t, 0.0, 0.0), 0.5, 0.5, 0.5000000000000001)


def test_quadrature_map_needs_a_positive_derivative():
    with pytest.raises(NonMonotone, match="^quadrature map derivative is not positive$"):
        QuadratureMap(lambda t: (-1.0 + 0.0 * t, 0.0, 0.0), 0.0, 0.0, 1.0)


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
