"""Generators for the three normal-form families of projectively equivalent
metric pairs and their quadratic integrals, plus the Killing-free Jordan
variant and the complexified-Liouville identity check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .codegen import complex_function
from .codegen import eval_complex  # noqa: F401  (bench/tracer.py counts calls of normal_forms.eval_complex)
from .expr import Expr, Jet2, diff, parse, real_parts
from .fields import ScalarField
from .geometry import Chart, Metric2
from .dynamics import QuadraticForm


def _as_expr(e, variables) -> Expr:
    if isinstance(e, str):
        return parse(e, variables=variables)
    return e


# --- family specifications -----------------------------------------------------


@dataclass(frozen=True)
class LiouvilleSpec:
    X: str | Expr          # function of x
    Y: str | Expr          # function of y
    sign: str              # '+' or '-'
    chart: Chart


@dataclass(frozen=True)
class ComplexLiouvilleSpec:
    h: str | Expr          # holomorphic function of z
    chart: Chart


@dataclass(frozen=True)
class JordanBlockSpec:
    Y: str | Expr          # function of y
    chart: Chart


@dataclass(frozen=True)
class JordanKillingFreeSpec:
    Ytilde: str | Expr     # function of y
    chart: Chart


@dataclass
class GeneratedPair:
    g: Metric2
    gbar: Metric2
    F: QuadraticForm | None
    family: str


# --- helpers --------------------------------------------------------------------


def _check(chart: Chart, ok, message: str):
    """Raise at the first grid point where the (nx, ny) mask ok fails."""
    point = chart.first_point(np.logical_not(ok))
    if point is not None:
        raise InvariantViolation(message, point)


def _z(x, y):
    try:
        return complex(x, y)
    except TypeError:           # coordinate arrays
        return x + 1j * y


def holomorphic_parts(h: Expr) -> tuple[ScalarField, ScalarField]:
    """(Re h, Im h) as real scalar fields of (x, y); jets come from the
    complex derivatives via the Cauchy-Riemann structure.  Their expressions,
    which pointwise metric kernels compile, are real_parts(h) where h
    expands and opaque leaves otherwise: NumPy's exp, sin and cos may round
    unlike math's, so grid sweeps of an expansion could disagree with its
    pointwise jets in a slot that cancels."""

    h_jet = complex_function(h)

    def re_jet(x, y):
        c = h_jet(_z(x, y))
        return Jet2(c.v.real, c.dv.real, -c.dv.imag,
                    c.ddv.real, -c.ddv.imag, -c.ddv.real)

    def im_jet(x, y):
        c = h_jet(_z(x, y))
        return Jet2(c.v.imag, c.dv.imag, c.dv.real,
                    c.ddv.imag, c.ddv.real, -c.ddv.imag)

    re, im = real_parts(h) or (None, None)
    return ScalarField(re_jet, re), ScalarField(im_jet, im)


# --- generators ---------------------------------------------------------------


def gen_liouville(spec: LiouvilleSpec) -> GeneratedPair:
    """g = (X - Y)(dx^2 +- dy^2); gbar = (1/Y - 1/X)(dx^2/X +- dy^2/Y);
    F = (X py^2 +- Y px^2) / (X - Y), the F sign tied to the metric sign."""
    if spec.sign not in ("+", "-"):
        raise InvariantViolation(f"sign must be '+' or '-', got {spec.sign!r}")
    sgn = 1.0 if spec.sign == "+" else -1.0
    X = ScalarField.from_expr(_as_expr(spec.X, ("x",)))
    Y = ScalarField.from_expr(_as_expr(spec.Y, ("y",)))
    chart = spec.chart
    xv, yv = X.on(chart).v, Y.on(chart).v
    _check(chart, xv - yv != 0.0, "X - Y vanishes on the chart")
    _check(chart, (xv != 0.0) & (yv != 0.0), "X or Y vanishes on the chart (gbar undefined)")

    diffXY = X - Y
    zero = ScalarField.constant(0.0)
    g = Metric2(diffXY, zero, diffXY * sgn, chart)
    factor = 1.0 / Y - 1.0 / X
    gbar = Metric2(factor / X, zero, (factor / Y) * sgn, chart)
    F = QuadraticForm(Y * sgn / diffXY, zero, X / diffXY, chart)
    return GeneratedPair(g, gbar, F, "liouville")


def gen_complex_liouville(spec: ComplexLiouvilleSpec) -> GeneratedPair:
    """g = 2 Im(h) dx dy; gbar built from Re(h), Im(h); F = px^2 - py^2
    + 2 (Re h / Im h) px py."""
    h = _as_expr(spec.h, ("z",))
    re, im = holomorphic_parts(h)
    chart = spec.chart
    rv, iv = re.on(chart).v, im.on(chart).v
    _check(chart, iv != 0.0, "Im(h) vanishes on the chart")
    with np.errstate(over="ignore"):        # an overflow is not 0
        _check(chart, iv ** 2 + rv ** 2 != 0.0, "|h| vanishes on the chart (gbar undefined)")

    zero = ScalarField.constant(0.0)
    g = Metric2(zero, im, zero, chart)  # ds^2 = 2 Im(h) dx dy
    rho = im * im + re * re
    s2 = (im / rho) * (im / rho)
    gbar = Metric2(-s2, re * im / (rho * rho), s2, chart)
    F = QuadraticForm(ScalarField.constant(1.0), (re / im) * 2.0,
                      ScalarField.constant(-1.0), chart)
    return GeneratedPair(g, gbar, F, "complex_liouville")


def gen_jordan_block(spec: JordanBlockSpec) -> GeneratedPair:
    """g = (1 + x Y') dx dy; gbar = ((1 + x Y')/Y^4)(-2Y dx dy + (1 + x Y') dy^2);
    F = px^2 - 2 (Y / (1 + x Y')) px py."""
    Y_expr = _as_expr(spec.Y, ("y",))
    Y = ScalarField.from_expr(Y_expr)
    Yp = ScalarField.from_expr(diff(Y_expr, "y"))
    xf = ScalarField.coordinate("x")
    f = 1.0 + xf * Yp
    chart = spec.chart
    _check(chart, f.on(chart).v > 0.0, "1 + x Y'(y) must stay positive on the chart")
    _check(chart, Y.on(chart).v != 0.0, "Y vanishes on the chart (gbar undefined)")

    zero = ScalarField.constant(0.0)
    g = Metric2(zero, f * 0.5, zero, chart)
    y4 = Y * Y * Y * Y
    gbar = Metric2(zero, -(f * Y) / y4, (f * f) / y4, chart)
    F = QuadraticForm(ScalarField.constant(1.0), (Y / f) * -2.0, zero, chart)
    return GeneratedPair(g, gbar, F, "jordan_block")


def gen_jordan_killing_free(spec: JordanKillingFreeSpec) -> GeneratedPair:
    """g = (Ytilde(y) + x) dx dy; gbar = -(2(Ytilde + x)/y^3) dx dy
    + ((Ytilde + x)^2 / y^4) dy^2."""
    Yt = ScalarField.from_expr(_as_expr(spec.Ytilde, ("y",)))
    xf = ScalarField.coordinate("x")
    yf = ScalarField.coordinate("y")
    w = Yt + xf
    chart = spec.chart
    _check(chart, w.on(chart).v != 0.0, "Ytilde(y) + x vanishes on the chart")
    _check(chart, chart.mesh[1] != 0.0, "y = 0 lies on the chart")

    zero = ScalarField.constant(0.0)
    y3 = yf * yf * yf
    g = Metric2(zero, w * 0.5, zero, chart)
    gbar = Metric2(zero, -w / y3, (w * w) / (y3 * yf), chart)
    return GeneratedPair(g, gbar, None, "jordan_killing_free")


def generate(spec) -> GeneratedPair:
    match spec:
        case LiouvilleSpec():
            return gen_liouville(spec)
        case ComplexLiouvilleSpec():
            return gen_complex_liouville(spec)
        case JordanBlockSpec():
            return gen_jordan_block(spec)
        case JordanKillingFreeSpec():
            return gen_jordan_killing_free(spec)
    raise TypeError(f"not a normal-form spec: {spec!r}")


# --- complexified Liouville identity ----------------------------------------------


def remark1_identity_residual(h: str | Expr, x, y) -> float:
    """Expand -1/4 (conj(h) - h)(dzbar^2 - dz^2) into real coordinates and
    compare against 2 Im(h) dx dy at the points z = x + iy (floats, or arrays
    of one shape); returns the largest coefficient deviation.  h is compiled
    once for all the points."""
    h = _as_expr(h, ("z",))
    w = complex_function(h)(np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)).v
    # dz^2 -> (1, 2i, -1) and dzbar^2 -> (1, -2i, -1) on (dx^2, dx dy, dy^2)
    pref = -0.25 * (w.conjugate() - w)
    coeffs = [pref * (1 - 1), pref * (-2j - 2j), pref * (-1 - (-1))]
    target = [0.0, 2.0 * w.imag, 0.0]
    resid = 0.0
    for c, t in zip(coeffs, target):
        resid = max(resid, float(np.max(abs(c.real - t))), float(np.max(abs(c.imag))))
    return resid
