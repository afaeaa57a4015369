"""Grid evaluation against the per-point route, and compiled expressions
against the reference walkers.

Every sweep over a chart evaluates its fields once as (nx, ny) arrays
(ScalarField.on).  These tests rebuild each sweep's answer point by point
from the public scalar functions and the references of tests/pointwise.py,
and require the same result and the same worst grid point.  Both routes run
compiled code, so that code is checked against the tree walkers of
tests/jet_oracle.py, on floats and on arrays, and code shared through the
code store against a fresh compile.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tokenize
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import jet_oracle as oracle
import pointwise
import projeq as pq
from projeq import codegen
from projeq.cli import run
from projeq.errors import DomainError, InvariantViolation
from projeq.expr import FUNCTIONS, BinOp, Call, Neg, Num, Var
from projeq.geometry import MAX_GRID_POINTS

from conftest import assert_classified_pointwise, perturbed

SLOTS = ("v", "dx", "dy", "dxx", "dxy", "dyy")
BASIS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0))


def coefficient_fields(pair):
    fields = {"g11": pair.g.g11, "g12": pair.g.g12, "g22": pair.g.g22,
              "gbar11": pair.gbar.g11, "gbar12": pair.gbar.g12, "gbar22": pair.gbar.g22}
    if pair.F is not None:
        fields.update(a=pair.F.a, b=pair.F.b, c=pair.F.c)
    return fields


def assert_grid_matches_points(field, chart, rtol=1e-15):
    """Each slot of field.on(chart) equals the per-point jets to rtol relative
    to the slot's largest magnitude (points first, so that a memoized field
    is compared against its own per-point values)."""
    jets = [field.jet(x, y) for x, y in chart.points()]
    grid = field.on(chart)
    for slot in SLOTS:
        arr = getattr(grid, slot)
        assert arr.shape == chart.grid
        pointwise = np.array([getattr(j, slot) for j in jets])
        scale = max(float(np.max(np.abs(pointwise))), 1e-300)
        assert np.max(np.abs(arr.ravel() - pointwise)) <= rtol * scale, slot


def worst_of(values, chart):
    """(max, first point attaining it), or (0, center) when all vanish: the
    per-point bookkeeping of the sweeps."""
    worst, point = 0.0, chart.center
    for r, p in zip(values, chart.points()):
        if r > worst:
            worst, point = r, p
    return worst, point


def reference_sys(nf, F, chart):
    return worst_of([pointwise.max_normalized(*pointwise.sys_residuals(nf.f, F, x, y))
                     for x, y in chart.points()], chart)


def reference_bracket(g, nf, F, chart):
    """The bracket route point by point: Poisson brackets at the momentum
    basis, turned into sys residuals for null forms and normalized by the
    coefficient magnitudes otherwise."""
    hf = pq.hamiltonian_form(g)
    values = []
    for x, y in chart.points():
        vals = [pq.poisson_bracket(g, F, pq.PhaseState(x, y, px, py)) for px, py in BASIS]
        if nf is not None:
            c0, c3 = vals[0], vals[1]
            c1 = 0.5 * (vals[2] - vals[3]) - c3
            c2 = 0.5 * (vals[2] + vals[3]) - c0
            fv = nf.f(x, y)
            k = -fv * fv / 2.0
            _, norm = pointwise.sys_residuals(nf.f, F, x, y)
            values.append(pointwise.max_normalized((k * c0 / fv, k * c1, k * c2, k * c3 / fv),
                                                   norm))
        else:
            aj, bj, cj = hf.jets_at(x, y)
            fnorm = (1.0 + abs(aj.v) + abs(bj.v) + abs(cj.v) + abs(aj.dx) + abs(bj.dx)
                     + abs(cj.dx) + abs(aj.dy) + abs(bj.dy) + abs(cj.dy))
            a2, b2, c2 = F.jets_at(x, y)
            cnorm = 1.0 + abs(a2.v) + abs(b2.v) + abs(c2.v)
            values.append(max(abs(v) / (fnorm * cnorm) for v in vals))
    return worst_of(values, chart)


# --- fields ------------------------------------------------------------------------


def test_generated_fields_on_chart_match_pointwise(instances):
    for inst in instances:
        pair = inst["pair"]
        for name, field in coefficient_fields(pair).items():
            assert_grid_matches_points(field, pair.g.chart)


def test_composed_fields_on_chart_match_pointwise(instances):
    """Fields behind rectification: linear and separable compositions, and
    the quadrature maps under them, whose grid evaluation inverts the maps
    on whole arrays while the per-point route inverts them point by point."""
    inst = next(i for i in instances if i["family"] == "jordan_block")
    pair = inst["pair"]
    nf, F, _ = pq.to_null_form(pair.g, pair.F)
    change = pq.AdmissibleChange("0.1 + x + 0.05*x^2", "y + 0.02*y^3")
    nf2, F2 = pq.apply_admissible_change(nf, F, change)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    shear = np.array([[1.0, 0.2], [-0.1, 0.9]])
    for field in (nf2.f, F2.a, F2.b, F2.c, nf.f.compose_linear(swap), nf.f.compose_linear(shear)):
        assert_grid_matches_points(field, nf2.chart, rtol=1e-14)
    # quadrature maps (Birkhoff-Kolokoltsov normalization) under the fields
    bk = pq.bk_normalize(nf2, F2)
    for field in (bk.metric.f, bk.integral.b):
        assert_grid_matches_points(field, bk.metric.chart, rtol=1e-14)


# --- sweeps --------------------------------------------------------------------------


def test_verify_matches_pointwise(instances):
    for inst in instances[::10]:
        pair = inst["pair"]
        chart = pair.g.chart
        nf = pq.null_form_of(pair.g)
        for F in (pair.F, perturbed(pair.F)):
            if nf is not None:
                rep = pq.verify_integral(nf, F, method="sys")
                assert (rep.max_residual, rep.worst_point) == reference_sys(nf, F, chart)
                rep = pq.verify_integral(nf, F, method="bracket")
                assert (rep.max_residual, rep.worst_point) == \
                    reference_bracket(nf.to_metric2(), nf, F, chart)
            rep = pq.verify_integral(pair.g, F, method="bracket")
            assert (rep.max_residual, rep.worst_point) == \
                reference_bracket(pair.g, None, F, chart)


def test_classify_pair_matches_pointwise(instances):
    for inst in instances[::3]:
        g, gbar = inst["pair"].g, inst["pair"].gbar
        res = pq.classify_pair(g, gbar)
        ref = assert_classified_pointwise(res, g, gbar)
        tags = [c.tag for c in ref]
        counts = {t: tags.count(t) for t in set(tags)}
        assert res.counts == counts
        assert res.fraction == max(counts.values()) / len(tags)


def test_triviality_matches_pointwise(instances):
    for inst in instances[::6]:
        g, F = inst["pair"].g, inst["pair"].F
        hf = pq.hamiltonian_form(g)
        for form in (F, hf.scaled(3.0)):
            fvals = np.array([f(x, y) for x, y in g.chart.points() for f in (form.a, form.b, form.c)])
            hvals = np.array([f(x, y) for x, y in g.chart.points() for f in (hf.a, hf.b, hf.c)])
            lam = float(fvals @ hvals) / float(hvals @ hvals)
            res = pq.triviality_check(form, g)
            assert res.scale == lam
            assert res.deviation == float(np.max(np.abs(fvals - lam * hvals)))


# NumPy's Python-level helpers: each call runs microseconds of Python where a C
# entry point (a ufunc, an ndarray method, np.where, np.bincount or
# np.count_nonzero) computes the same elements by the same operations
_PYTHON_HELPERS = ("numpy/lib/_stride_tricks_impl.py", "numpy/lib/_arraysetops_impl.py",
                   "numpy/_core/shape_base.py", "numpy/_core/fromnumeric.py")


def test_grid_steps_call_no_python_level_numpy_helper():
    """generate, verify (auto, bracket on the null form, perturbed control),
    classify_pair and triviality_check (3H and F) on 21x21 charts built
    beforehand enter none of _PYTHON_HELPERS, nor np.select."""
    specs = [pq.LiouvilleSpec("3 + x/5 - x^2/10", "0.55 + y/10", "+",
                              pq.Chart((-0.5, 0.5), (-0.5, 0.5), (21, 21))),
             pq.ComplexLiouvilleSpec("z^2", pq.Chart((0.5, 1.5), (0.5, 1.2), (21, 21))),
             pq.JordanBlockSpec("1.5 + y/5", pq.Chart((-0.4, 0.4), (-0.5, 0.5), (21, 21)))]
    entered = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_filename.replace(os.sep, "/")
            if name.endswith(_PYTHON_HELPERS) or (
                    name.endswith("numpy/lib/_function_base_impl.py")
                    and frame.f_code.co_name == "select"):
                entered[f"{name.rsplit('/', 1)[-1]}:{frame.f_code.co_name}"] += 1

    sys.setprofile(hook)
    try:
        for spec in specs:
            pair = pq.generate(spec)
            g, F = pair.g, pair.F
            pq.verify_integral(g, F)
            nf = pq.null_form_of(g)
            if nf is not None:
                pq.verify_integral(nf, F, method="bracket")
            pq.verify_integral(g, perturbed(F))
            pq.classify_pair(g, pair.gbar)
            pq.triviality_check(pq.hamiltonian_form(g).scaled(3.0), g)
            pq.triviality_check(F, g)
    finally:
        sys.setprofile(None)
    assert not entered, dict(entered)


# --- random expressions ----------------------------------------------------------------

GRID_CHART = pq.Chart((0.3, 1.7), (-0.9, 0.8), (7, 6))

_leaves = st.one_of(st.sampled_from([Var("x"), Var("y")]),
                    st.floats(-3.0, 3.0, allow_nan=False).map(Num))


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: BinOp(*t)),
        st.tuples(children, st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 2.5]))
        .map(lambda t: BinOp("^", t[0], Num(t[1]))),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), children)
        .map(lambda t: Call(*t)),
    )


expressions = st.recursive(_leaves, _extend, max_leaves=8)


# a constant whose derivatives overflow, though ^0 discards them
DISCARDED_OVERFLOW = Neg(BinOp("^", BinOp("^", Num(1.1367431632993034e-224), Num(-1.0)),
                               Num(0.0)))
# a ^0 of a variable base whose derivatives overflow: an error on floats and
# grids alike
DROPPED_OVERFLOW = BinOp("^", BinOp("^", BinOp("*", Var("x"), Num(1e-200)), Num(-2.0)), Num(0.0))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expressions)
@example(DISCARDED_OVERFLOW)
@example(DROPPED_OVERFLOW)
def test_grid_jets_agree_with_scalar_jets(e):
    x, y = GRID_CHART.mesh
    jet = pq.jet_function(e)
    try:
        grid = jet(x, y)
    except DomainError as err:
        # the error names a grid point, and the scalar route fails there too
        assert err.point in set(GRID_CHART.points())
        try:
            j = jet(*err.point)
        except DomainError:
            return
        assert not all(np.isfinite(getattr(j, s)) for s in SLOTS)
        return
    for i, (px, py) in enumerate(GRID_CHART.points()):
        j = jet(px, py)
        for s in SLOTS:
            g = np.broadcast_to(getattr(grid, s), x.shape).flat[i]
            assert g == pytest.approx(getattr(j, s), rel=1e-9, abs=1e-9), (s, px, py)


# how eval_jet reports, on floats, a derivative slot that fails where the
# value does not
DERIVATIVE_FAILURES = ("numerical overflow", "division by zero")
# GRID_CHART's coordinates are round enough that numpy's ** agrees with pow
# on them; these are not
IRREGULAR_MESH = (GRID_CHART.mesh[0] * (math.pi / 3.0), GRID_CHART.mesh[1] * (math.e / 3.0))
X, Y, ZERO = Var("x"), Var("y"), BinOp("-", Var("x"), Var("x"))


def _outcome(f, *args):
    """(value as float64 bytes, None), or (None, the error) when f raises."""
    try:
        return np.asarray(f(*args), dtype=float).tobytes(), None
    except (DomainError, ArithmeticError, ValueError) as err:
        return None, (type(err), str(err))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expressions)
@example(BinOp("^", Num(0.0), Num(0.5)))
@example(BinOp("^", ZERO, Num(-1.0)))
@example(BinOp("^", Call("log", Y), Num(0.0)))
@example(BinOp("^", Call("exp", BinOp("*", Num(300.0), X)), Num(3.0)))
@example(BinOp("/", Y, ZERO))
@example(BinOp("/", Num(1.0), BinOp("/", Num(1.0), ZERO)))
@example(Call("sqrt", ZERO))
@example(Call("abs", BinOp("-", Y, Y)))
@example(BinOp("^", X, Y))
def test_value_path_is_the_jets_value(e):
    """The float value kernel, which Metric2's pointwise reads run, is
    eval_jet(e, ...).v bit for bit wherever eval_jet succeeds, and eval_jet
    raises wherever the kernel raises.  The kernel may succeed where
    eval_jet fails only when a derivative slot alone overflows or divides
    by zero."""
    value = codegen.kernel_function((e,), "value", lambda: "the test")
    for args in list(GRID_CHART.points())[::5]:
        jets, jet_error = _outcome(lambda x, y: pq.eval_jet(e, x, y).v, *args)
        values, value_error = _outcome(lambda x, y: value(x, y)[0], *args)
        if jet_error is None:
            assert values == jets, args
        elif value_error is None:
            assert jet_error[1].startswith(DERIVATIVE_FAILURES), (jet_error, args)
        if value_error is not None:
            assert jet_error is not None, (value_error, args)


# --- compiled code against the reference walkers ------------------------------------


def _wide_extend(children):
    # powers with any exponent, constant or not, besides _extend's literals
    return st.one_of(_extend(children),
                     st.tuples(children, children).map(lambda t: BinOp("^", *t)))


# with literals whose jets overflow, and a variable of the wrong context
wide_expressions = st.recursive(
    st.one_of(_leaves, st.sampled_from([Num(5e-324), Num(1e300), Num(-0.0), Var("z")])),
    _wide_extend, max_leaves=8)
complex_expressions = st.recursive(
    st.one_of(st.just(Var("z")), st.floats(-3.0, 3.0, allow_nan=False).map(Num)),
    lambda children: st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: BinOp(*t)),
        st.tuples(children, st.sampled_from([0.0, 1.0, 2.0, -1.0, -2.0, 0.5]))
        .map(lambda t: BinOp("^", t[0], Num(t[1]))),
        st.tuples(children, children).map(lambda t: BinOp("^", *t)),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: Call(*t))),
    max_leaves=6)
POINTS = list(GRID_CHART.points())[::5]
COMPLEX_POINTS = [IRREGULAR_MESH[0] + 1j * IRREGULAR_MESH[1],
                  GRID_CHART.mesh[0] + 1j * GRID_CHART.mesh[1],
                  *(complex(px, py) for px, py in POINTS)]


def _slots(f, args, names):
    """The named slots of f(*args) as arrays, or f's error as (type, message,
    grid point)."""
    try:
        j = f(*args)
    except (DomainError, ArithmeticError, ValueError) as err:
        return None, (type(err), str(err), getattr(err, "point", None))
    return [np.asarray(getattr(j, s)) for s in names], None


def assert_matches_oracle(compiled, reference, args, names):
    """Both raise the same error (type, message, point), a DomainError, or
    every slot is equal under == (so a folded zero may differ in its sign)
    and NaN where the reference's is NaN."""
    got, got_error = _slots(compiled, args, names)
    want, want_error = _slots(reference, args, names)
    assert got_error == want_error, args
    assert got_error is None or issubclass(got_error[0], DomainError), (got_error, args)
    for name, g, w in zip(names, got or (), want or ()):
        assert np.array_equal(*np.broadcast_arrays(g, w), equal_nan=True), (name, args)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_expressions)
@example(Call("log", Num(5e-324)))              # f' overflows: 0 * inf in a folded slot
@example(BinOp("/", X, Num(5e-324)))
@example(BinOp("*", Num(0.0), Call("exp", Num(1000.0))))
@example(BinOp("^", Call("exp", X), ZERO))      # a variable exponent of constant value
@example(BinOp("^", X, Num(math.inf)))
@example(BinOp("^", X, Num(math.nan)))
@example(BinOp("^", Y, Call("log", Num(1.3e-284))))  # a constant whose jet has a NaN slot
@example(BinOp("^", ZERO, BinOp("^", Call("exp", Num(800.0)), Num(0.0))))
@example(BinOp("^", X, Call("sin", BinOp("*", Num(1e300), Num(1e300)))))  # sin(inf) raises
@example(Call("sin", BinOp("*", Num(1e300), Num(1e300))))      # math's ValueError on floats
@example(BinOp("+", Call("log", BinOp("-", X, Num(2.0))), Var("z")))
@example(BinOp("*", X, DISCARDED_OVERFLOW))
def test_compiled_jets_match_the_oracle(e):
    jet = pq.jet_function(e)
    for args in [GRID_CHART.mesh, IRREGULAR_MESH, *POINTS]:
        assert_matches_oracle(jet, lambda x, y: oracle.eval_jet(e, x, y), args, SLOTS)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(complex_expressions)
@example(BinOp("^", Var("z"), Num(0.5)))
@example(BinOp("^", Num(1.37e-159), Num(-1.0)))   # f'' fails first: division by zero
@example(BinOp("/", Num(1.0), BinOp("-", Var("z"), Var("z"))))
@example(BinOp("^", Var("z"), BinOp("-", Var("z"), Var("z"))))
@example(Call("abs", Call("log", Num(0.0))))
def test_compiled_complex_jets_match_the_oracle(e):
    jet = pq.complex_function(e)
    for z in COMPLEX_POINTS:
        assert_matches_oracle(jet, lambda z: oracle.eval_complex(e, z), (z,), ("v", "dv", "ddv"))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(wide_expressions, complex_expressions))
def test_generated_source_names_nothing_else(e):
    """Compiled source holds numbers, and names from a fixed set: the
    variables, the functions, the parameters (literal slots k0, k1, ...),
    generated temporaries and the helpers."""
    allowed = set(codegen._NAMESPACES[False, True]) | {
        "x", "y", "z", "f", "E", "N", "L", "X", "S", "R", "P", "B", "abs", "real", "imag",
        "def", "return", "if", "raise", "OverflowError", "None", "True"}
    shape = codegen._shape(e)
    for kind in ("jet", "value", "complex"):
        for grid in (False, True):
            source = codegen._Emitter(kind, grid, not grid, shape).source(e)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type == tokenize.NAME:
                    assert tok.string in allowed or tok.string[0] in "tk" and \
                        tok.string[1:].isdigit(), tok.string
                else:
                    assert tok.type in (tokenize.NUMBER, tokenize.OP, tokenize.NEWLINE,
                                        tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                                        tokenize.ENDMARKER), tok


@pytest.mark.parametrize("node", [Var("__import__('os')"), Call("system", X), Num("1)"),
                                  BinOp("**", X, Y), Num(True)])
def test_emitter_rejects_foreign_nodes(node, monkeypatch):
    """A hand-built node that the parser cannot produce is refused before
    any source is compiled."""
    compiled = []
    monkeypatch.setattr(codegen, "compile", lambda *args: compiled.append(args), raising=False)
    for e in (node, BinOp("+", X, node), Neg(Call("log", node))):
        for evaluate in (lambda: pq.eval_jet(e, 1.0, 2.0),
                         lambda: pq.eval_jet(e, *GRID_CHART.mesh),
                         lambda: codegen.kernel_function((e,), "value", str)(1.0, 2.0),
                         lambda: pq.eval_complex(e, 1j)):
            with pytest.raises(TypeError):
                evaluate()
    assert compiled == []


round_trips = st.one_of(
    expressions,
    expressions.map(pq.expr.simplify),
    st.tuples(expressions, st.sampled_from(["x", "y"])).map(lambda t: pq.diff(*t)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(round_trips)
@example(BinOp("^", Num(-2.0), Num(2.0)))
@example(BinOp("-", X, Num(-0.0)))
@example(Neg(Num(-2.0)))
def test_render_round_trip_evaluates_alike(e):
    """parse(render(e)) has e's value bit for bit and e's derivatives, or
    raises e's error, on floats and on arrays."""
    jet, back = pq.jet_function(e), pq.jet_function(pq.parse(pq.render(e)))
    for args in [GRID_CHART.mesh, IRREGULAR_MESH, *POINTS]:
        got, got_error = _slots(back, args, SLOTS)
        want, want_error = _slots(jet, args, SLOTS)
        assert got_error == want_error, args
        if want is not None:
            assert got[0].tobytes() == want[0].tobytes(), args
            for name, g, w in zip(SLOTS, got, want):
                assert np.array_equal(*np.broadcast_arrays(g, w), equal_nan=True), (name, args)


def test_complex_grid_jets_agree_with_scalar_jets():
    x, y = GRID_CHART.mesh
    for text in ("z", "z^2", "exp(z)", "z + z^3", "1/(z + 3) - log(z) * sqrt(z)", "z^(-2)"):
        e = pq.parse(text, variables=("z",))
        grid = pq.eval_complex(e, x + 1j * y)
        for i, (px, py) in enumerate(GRID_CHART.points()):
            c = pq.eval_complex(e, complex(px, py))
            for s in ("v", "dv", "ddv"):
                g = np.broadcast_to(getattr(grid, s), x.shape).flat[i]
                assert g == pytest.approx(getattr(c, s), rel=1e-14, abs=1e-14)


# --- the code store ---------------------------------------------------------------------


@contextlib.contextmanager
def _fresh_store():
    """codegen's code store, empty, for the duration."""
    kept = codegen._store
    codegen._store = collections.OrderedDict()
    try:
        yield codegen._store
    finally:
        codegen._store = kept


def _literals(e) -> list:
    """The values of e's number literals in pre-order."""
    match e:
        case Num(v):
            return [v]
        case Neg(arg) | Call(_, arg):
            return _literals(arg)
        case BinOp(_, left, right):
            return _literals(left) + _literals(right)
    return []


def _relabel(e, values):
    """e with its number literals, in pre-order, taken from the iterator values."""
    match e:
        case Num():
            return Num(next(values))
        case Neg(arg):
            return Neg(_relabel(arg, values))
        case Call(func, arg):
            return Call(func, _relabel(arg, values))
        case BinOp(op, left, right):
            return BinOp(op, _relabel(left, values), _relabel(right, values))
    return e


def _built(root, kind: str) -> list:
    """Each function of root (folded and exact, floats and GRID_CHART) as
    the store gives it, applied: slot types and bytes, or the error's type,
    message, rendered node and grid point."""
    out = []
    for grid in (False, True):
        points = [GRID_CHART.mesh] if grid else POINTS
        if kind == "complex":
            points = [(x + 1j * np.asarray(y),) for x, y in points]
        for exact in (False, True):
            fn = codegen._Compiled(root, kind, exact)(grid)
            for args in points:
                try:
                    with np.errstate(all="ignore"):
                        j = fn(*args)
                except (DomainError, ArithmeticError, ValueError) as err:
                    out.append((type(err), str(err), getattr(err, "where", None),
                                getattr(err, "point", None)))
                    continue
                slots = j if kind == "value" else [getattr(j, s) for s in type(j).__slots__]
                out.append([(type(s), np.asarray(s).dtype, np.asarray(s).tobytes())
                            for s in slots])
    return out


store_cases = st.one_of(wide_expressions.map(lambda e: (e, "jet")),
                        wide_expressions.map(lambda e: ((e,), "value")),
                        complex_expressions.map(lambda e: (e, "complex")))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(store_cases, st.data())
def test_stored_code_equals_a_fresh_compile(case, data):
    """An expression whose shape another one stored gets, from that code,
    the bits and errors of its own fresh compile.  Its literals are redrawn
    from the first's: kept, made equal to another, set to 0, 1 or -0.0, or
    drawn anew, so equal literals turn unequal and the reverse, and an
    exponent changes (a new shape)."""
    root, kind = case
    many = isinstance(root, tuple)
    e = root[0] if many else root
    values = _literals(e)
    other = st.sampled_from([0.0, 1.0, -0.0, 2.0, -1.0, *values])
    redrawn = [data.draw(st.one_of(st.just(v), other, st.floats(-3.0, 3.0, allow_nan=False)))
               for v in values]
    e2 = _relabel(e, iter(redrawn))
    root2 = (e2,) if many else e2
    with _fresh_store() as store:
        _built(root, kind)
        stored = len(store)
        shared = _built(root2, kind)
        same = codegen._shape(root2)[0] == codegen._shape(root)[0]
        event("same shape" if same else "new shape")
        if same:
            assert len(store) == stored     # every function came from the store
    with _fresh_store():
        assert _built(root2, kind) == shared


def test_numbering_a_tree_leaves_no_cycle():
    """_shape's recursive walk refers to itself through its cell; kept, that
    cycle would hold the numbering, and with it the tree, until the cyclic
    collector ran.  With the collector off, numbering a fresh expression or
    tuple of roots leaves it nothing to find."""
    roots = (pq.parse("x*y + sin(x)^2 - exp(y)/(1 + x^2)"), pq.parse("x*y + 3"))
    for e in (roots[0], roots):
        gc.collect()
        gc.disable()
        try:
            codegen._shape(e)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0


def test_messages_name_their_own_literals():
    """log(x - 2) and log(x - 3) share their code, and each error renders
    its own expression, on floats and on a grid."""
    with _fresh_store() as store:
        for k in (2, 3):
            e = pq.parse(f"log(x - {k})")
            for args in ((1.5, 0.5), GRID_CHART.mesh):
                with pytest.raises(DomainError, match="log of a non-positive value") as err:
                    pq.eval_jet(e, *args)
                assert err.value.where == f"log(x-{k}.0)"
            assert len(store) == 2          # one code for floats, one for arrays


def test_the_store_keeps_its_bound(monkeypatch):
    """Past its bound the store drops the least recently used shape, and
    that shape compiles again to the same code and bits."""
    monkeypatch.setattr(codegen, "_STORE_SIZE", 3)
    shapes = [pq.parse(f"sin(x)^{k} + 2*y") for k in range(1, 8)]   # exponents are shape
    with _fresh_store() as store:
        want = _built(shapes[0], "jet")             # four functions: the store is full
        first = codegen._Compiled(shapes[0], "jet")
        first(True)
        for e in shapes[1:]:
            codegen._Compiled(e, "jet")(True)
            assert len(store) == 3
        again = codegen._Compiled(shapes[0], "jet")
        again(True)
        assert again.fresh and again.code is not first.code
        assert again.code.code == first.code.code
        assert _built(shapes[0], "jet") == want


# --- failures ---------------------------------------------------------------------------


class TestNonFinite:
    CHART = pq.Chart((-0.5, 1.0), (0.0, 1.0), (7, 5))

    def test_overflow_scalar(self):
        with pytest.raises(DomainError):
            pq.eval_jet(pq.parse("exp(x)^1000"), 1.0, 0.0)
        with pytest.raises(DomainError):
            pq.eval_jet(pq.parse("x^(1e400)"), 2.0, 0.0)
        with pytest.raises(DomainError):
            pq.eval_complex(pq.parse("exp(z)", variables=("z",)), complex(1000.0, 0.0))
        with pytest.raises(DomainError):
            pq.ScalarField.from_expr(pq.parse("exp(x)^1000")).jet(1.0, 0.0)

    def test_overflow_on_grid_names_point_and_subexpression(self):
        with pytest.raises(DomainError) as ei:
            pq.NullFormMetric.from_expr("exp(x)^1000", self.CHART)
        assert ei.value.point == (0.75, 0.0)
        assert "exp(x)^1000" in str(ei.value)
        assert "grid point" in str(ei.value)

    def test_verify_rejects_overflowing_integral(self):
        nf = pq.NullFormMetric.from_expr("2 + x", self.CHART)
        F = pq.QuadraticForm.from_exprs("exp(x)^1000", "0", "1", self.CHART)
        with pytest.raises(DomainError):
            pq.verify_integral(nf, F)

    def test_division_by_zero_field_names_point(self):
        f = 1.0 / pq.ScalarField.from_expr(pq.parse("x - 0.25"))
        with pytest.raises(DomainError) as ei:
            f.on(self.CHART)
        assert ei.value.point == (0.25, 0.0)

    def test_cli_overflow_is_bad_input(self, tmp_path, capsys):
        cfg = {"command": "verify",
               "chart": {"x_range": [-0.5, 1.0], "y_range": [0, 1], "grid": [7, 5]},
               "metric": {"f": "exp(x)^1000"},
               "integral": {"a": "1", "b": "0", "c": "1"}}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        assert run(path) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "grid point" in err


class TestChartBounds:
    def test_non_finite_range_rejected(self):
        with pytest.raises(InvariantViolation):
            pq.Chart((0.0, float("inf")), (0.0, 1.0))
        with pytest.raises(InvariantViolation):
            pq.Chart((0.0, 1.0), (float("nan"), 1.0))

    def test_grid_point_limit(self):
        side = int(MAX_GRID_POINTS ** 0.5)
        pq.Chart((0.0, 1.0), (0.0, 1.0), (side, MAX_GRID_POINTS // side))
        with pytest.raises(InvariantViolation):
            pq.Chart((0.0, 1.0), (0.0, 1.0), (side, MAX_GRID_POINTS // side + 1))

    @pytest.mark.parametrize("chart", [
        {"x_range": [0, 1e400], "y_range": [0, 1]},
        {"x_range": [0, 1], "y_range": [0, 1], "grid": [2000, 2000]},
    ])
    def test_cli_rejects_chart(self, tmp_path, capsys, chart):
        cfg = {"command": "classify", "chart": chart,
               "metric_pair": {"g": {"f": "1"}, "gbar": {"f": "2"}}}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg).replace("Infinity", "1e400"))
        assert run(path) == 2
        assert "config error" in capsys.readouterr().err

    def test_schema_documents_the_limit(self):
        schema = json.loads(resources.files("projeq").joinpath("config.schema.json").read_text())
        grid = schema["properties"]["chart"]["properties"]["grid"]
        assert grid["items"]["maximum"] ** 2 == MAX_GRID_POINTS
        assert str(MAX_GRID_POINTS) in grid["description"]


def run_and_list_scipy(code: str) -> list[str]:
    """Run code in a fresh interpreter with projeq on the path; its stdout
    lines, then whether any scipy module was loaded."""
    code += "\nimport sys; print(any(m.startswith('scipy') for m in sys.modules))"
    src = os.path.dirname(os.path.dirname(pq.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.split()


def test_import_leaves_scipy_unloaded():
    """projeq imports numpy alone: importing it loads no scipy module."""
    assert run_and_list_scipy("import projeq") == ["False"]


def test_rectification_leaves_scipy_unloaded():
    """One rectification per case loads no scipy module.  Each input went
    through an admissible change first, so that its BK maps integrate a
    varying derivative."""
    code = """
import projeq as pq
square = pq.Chart((-0.5, 0.5), (-0.5, 0.5), (9, 9))
for spec in (pq.LiouvilleSpec("3 + x/4 - x^2/5", "0.55 + y/7", "-", square),
             pq.ComplexLiouvilleSpec("z^2", pq.Chart((0.5, 1.5), (0.5, 1.2), (9, 9))),
             pq.JordanBlockSpec("3/2 + y/10 - y^3/20", square)):
    pair = pq.generate(spec)
    nf, F, _ = pq.to_null_form(pair.g, pair.F)
    nf, F = pq.apply_admissible_change(nf, F, pq.AdmissibleChange("x + x^2/8", "y + y^3/20"))
    print(pq.rectification_pipeline(nf, F).case)
"""
    assert run_and_list_scipy(code) == ["1", "2", "3", "False"]
