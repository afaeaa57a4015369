"""Coordinate rectification: admissible changes, quadrature normalization of
the integral's extreme coefficients, and the three case solvers recovering
normal-form data from a null-form metric plus a quadratic integral."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (AmbiguousCase, CoefficientVanishes, InvalidArgument, NotAnIntegral,
                     NotAxisAligned, NotCase1, NotCase3, NotHolomorphic, RectifyError,
                     SignatureMismatch, TrivialIntegral, YhatVanishes, check_tol)
from .expr import Expr, parse
from .fields import (ExprMap, IdentityMap, Monotone1D, QuadratureMap, QuinticHermite,
                     ScalarField, _spread, _where)
from .geometry import Chart, Metric2, metric_at
from .dynamics import QuadraticForm
from .equivalence import NullFormMetric, null_form_of, triviality_check, verify_integral

DEFAULT_CASE_TOL = 1e-6
DEFAULT_SYS_TOL = 1e-8
_ZERO_COEFF_RTOL = 1e-7   # below this (relative) a coefficient counts as identically 0
_CASE1_SAMPLES = 129      # samples of X and Y along the diagonals: Hermite knots


# --- admissible coordinate changes ------------------------------------------------


@dataclass
class AdmissibleChange:
    """x_new = phi(x_old), y_new = psi(y_old), both strictly increasing."""

    phi: str | Expr
    psi: str | Expr

    def maps(self, chart: Chart) -> tuple[Monotone1D, Monotone1D]:
        for name, e in (("phi", self.phi), ("psi", self.psi)):
            if not isinstance(e, str | Expr):
                raise InvalidArgument(f"{name} must be an expression or its text, got {e!r}")
        phi = parse(self.phi, variables=("x",)) if isinstance(self.phi, str) else self.phi
        psi = parse(self.psi, variables=("y",)) if isinstance(self.psi, str) else self.psi
        return (ExprMap(phi, "x", *chart.x_range), ExprMap(psi, "y", *chart.y_range))


def transform_separable(nf: NullFormMetric, F: QuadraticForm,
                        xmap: Monotone1D, ymap: Monotone1D) -> tuple[NullFormMetric, QuadraticForm]:
    """Pull the null-form metric and the integral through a separable change.

    Transformation law (from the momenta p_old = p_new * dnew/dold):
    a_new = a phi'^2, b_new = b phi' psi', c_new = c psi'^2, and
    f_new = f / (phi' psi') so that ds^2 = f dx dy is invariant.
    """
    new_chart = Chart(xmap.range, ymap.range, nf.chart.grid)
    f_new = nf.f.compose_separable(xmap, ymap, -1, -1)
    a_new = F.a.compose_separable(xmap, ymap, 2, 0)
    b_new = F.b.compose_separable(xmap, ymap, 1, 1)
    c_new = F.c.compose_separable(xmap, ymap, 0, 2)
    return (NullFormMetric(f_new, new_chart), QuadraticForm(a_new, b_new, c_new, new_chart))


def apply_admissible_change(f, F: QuadraticForm, change: AdmissibleChange):
    """(f, F) pulled through an admissible change; f may be a NullFormMetric
    or a bare ScalarField (then F's chart is used)."""
    nf = f if isinstance(f, NullFormMetric) else NullFormMetric(f, F.chart)
    xmap, ymap = change.maps(nf.chart)
    return transform_separable(nf, F, xmap, ymap)


# --- Birkhoff-Kolokoltsov normalization ---------------------------------------------


@dataclass
class BKResult:
    xmap: Monotone1D
    ymap: Monotone1D
    metric: NullFormMetric
    integral: QuadraticForm
    sign_a: int
    sign_c: int          # 0 when c is identically zero
    base_point: tuple[float, float]


def _bk_axis_map(coef: ScalarField, axis: str, lo: float, hi: float, ref: float,
                 base: float) -> Monotone1D:
    """Quadrature map with derivative 1 / sqrt(|coef|) along one axis."""

    def deriv_jet(t):
        j = coef.jet(t, ref) if axis == "x" else coef.jet(ref, t)
        a = j.v
        a1 = j.dx if axis == "x" else j.dy
        a2 = j.dxx if axis == "x" else j.dyy
        s = (a > 0.0) * 2.0 - 1.0       # sign, for floats and arrays
        mag = abs(a)
        # the C library's pow for floats and arrays alike, so that both round
        # the same (as compiled expressions do, see codegen._Emitter.pw)
        power = np.float_power if isinstance(mag, np.ndarray) else pow
        with np.errstate(all="ignore"):     # QuadratureMap rejects non-finite jets
            m15 = power(mag, -1.5)
            d0 = power(mag, -0.5)
            d1 = -0.5 * s * a1 * m15
            d2 = -0.5 * s * a2 * m15 + 0.75 * a1 * a1 * power(mag, -2.5)
        return (d0, d1, d2)

    return QuadratureMap(deriv_jet, base, lo, hi)


def _vanishing(aj, bj, cj) -> tuple[bool, bool]:
    """Whether a and c count as identically zero on the grid: max |value| at
    most _ZERO_COEFF_RTOL times the largest |value| of a, b and c."""
    scale = max(max(float(np.abs(j.v).max()) for j in (aj, bj, cj)), 1e-300)
    return tuple(bool(np.abs(j.v).max() <= _ZERO_COEFF_RTOL * scale) for j in (aj, cj))


def bk_normalize(nf: NullFormMetric, F: QuadraticForm,
                 axis_tol: float = DEFAULT_CASE_TOL) -> BKResult:
    """Rectify coordinates by integrating dx / sqrt(|a|) and dy / sqrt(|c|).

    In the new coordinates the extreme coefficients become sign(a_old) and
    sign(c_old).  An axis whose coefficient is identically zero keeps its
    coordinate (identity map).  Raises NotAxisAligned when a depends on y
    (or c on x) beyond tolerance, i.e. the input is not an integral.
    """
    check_tol(axis_tol, "axis_tol")
    chart = nf.chart
    aj, bj, cj = F.on(chart)
    zero_a, zero_c = _vanishing(aj, bj, cj)

    def axis_plan(coef, j, zero, axis, lo, hi):
        vals = j.v.ravel()
        if zero:
            return 0, IdentityMap(lo, hi)
        # relative cross-axis derivative: a_y for axis 'x', c_x for 'y'
        cross = j.dy if axis == "x" else j.dx
        coef_scale = float(np.abs(vals).max() + 1e-300)
        var = float((np.abs(cross) / (coef_scale + np.abs(j.dx) + np.abs(j.dy))).max())
        if var > axis_tol:
            raise NotAxisAligned(
                f"coefficient {'a' if axis == 'x' else 'c'} varies across "
                f"{'y' if axis == 'x' else 'x'} (relative variation {var:.3e}); "
                "the input is not a first integral of this metric")
        if vals.min() < 0.0 < vals.max() or np.abs(vals).min() < 1e-8 * np.abs(vals).max():
            loc = chart.point(np.abs(vals).argmin())[0 if axis == "x" else 1]
            raise CoefficientVanishes(axis, loc)
        sign = 1 if vals[0] > 0.0 else -1
        ref = chart.center[1 if axis == "x" else 0]
        base = 0.5 * (lo + hi)
        return sign, _bk_axis_map(coef, axis, lo, hi, ref, base)

    sign_a, xmap = axis_plan(F.a, aj, zero_a, "x", *chart.x_range)
    sign_c, ymap = axis_plan(F.c, cj, zero_c, "y", *chart.y_range)
    nf2, F2 = transform_separable(nf, F, xmap, ymap)
    return BKResult(xmap, ymap, nf2, F2, sign_a, sign_c,
                    (0.5 * sum(chart.x_range), 0.5 * sum(chart.y_range)))


# --- case solvers ------------------------------------------------------------------


def _diag_point(chart: Chart, target: np.ndarray, kind: str):
    """Chart points (x, y) with x+y = target (kind 'sum') or x-y = target
    ('diff'), one per target value."""
    (xlo, xhi), (ylo, yhi) = chart.x_range, chart.y_range
    cx = 0.5 * (xlo + xhi)
    if kind == "sum":
        x = np.clip(cx + 0.5 * (target - cx - 0.5 * (ylo + yhi)), xlo, xhi)
        y = target - x
    else:
        x = np.clip(cx + 0.5 * (target + 0.5 * (ylo + yhi) - cx), xlo, xhi)
        y = x - target
    off = (y < ylo) | (y > yhi)         # slide along the diagonal into the chart
    y = np.clip(y, ylo, yhi)
    x = np.where(off, target - y if kind == "sum" else target + y, x)
    return np.clip(x, xlo, xhi), y


@dataclass
class Case1Result:
    """Liouville recovery: X on u = x+y, Y on v = x-y (normal-form scale,
    i.e. the metric reads (X - Y)(du^2 - dv^2) up to the reported factor)."""

    u_grid: np.ndarray
    X_values: np.ndarray
    v_grid: np.ndarray
    Y_values: np.ndarray
    X: QuinticHermite = field(repr=False, default=None)
    Y: QuinticHermite = field(repr=False, default=None)
    reconstruction_residual: float = 0.0
    gauge: dict = field(default_factory=dict)
    family = "liouville"


def solve_case1(nf: NullFormMetric, F: QuadraticForm,
                tol: float = DEFAULT_CASE_TOL) -> Case1Result:
    """a = 1, c = 1 form: fb + 2f is a function of x - y alone and fb - 2f of
    x + y alone; read off Y and X, reconstruct f and b, report the residual."""
    check_tol(tol)
    chart = nf.chart

    def p_and_q(fj, bj):
        fb = fj * bj
        return fb + 2.0 * fj, fb - 2.0 * fj     # = Y_s(x - y), X_s(x + y)

    fj, bj = nf.f.on(chart), F.b.on(chart)
    pj, qj = p_and_q(fj, bj)
    ps = 1.0 + abs(pj.v) + abs(pj.dx) + abs(pj.dy)
    qs = 1.0 + abs(qj.v) + abs(qj.dx) + abs(qj.dy)
    worst = float(np.maximum(abs(pj.dx + pj.dy) / ps, abs(qj.dx - qj.dy) / qs).max())
    if worst > tol:
        raise NotCase1(f"fb+2f / fb-2f are not functions of one rotated variable "
                       f"(relative residual {worst:.3e})")

    (xlo, xhi), (ylo, yhi) = chart.x_range, chart.y_range
    us = np.linspace(xlo + ylo, xhi + yhi, _CASE1_SAMPLES)
    vs = np.linspace(xlo - yhi, xhi - ylo, _CASE1_SAMPLES)
    # both diagonals in one evaluation of f and b: X reads the first half, Y
    # the second (every step acts entry by entry)
    xq, yq = _diag_point(chart, us, "sum")
    xp, yp = _diag_point(chart, vs, "diff")
    xd, yd = np.concatenate((xq, xp)), np.concatenate((yq, yp))
    p, q = p_and_q(nf.f.jet(xd, yd), F.b.jet(xd, yd))
    n = _CASE1_SAMPLES
    # jets along the diagonals: d/du = (d/dx + d/dy) / 2, d/dv = (d/dx - d/dy) / 2
    Xs = [_spread(j, xd.shape)[:n] for j in
          (q.v, (q.dx + q.dy) / 2.0, (q.dxx + 2.0 * q.dxy + q.dyy) / 4.0)]
    Ys = [_spread(j, xd.shape)[n:] for j in
          (p.v, (p.dx - p.dy) / 2.0, (p.dxx - 2.0 * p.dxy + p.dyy) / 4.0)]
    # normal-form-scale functions: ds^2 = (X_T - Y_T)(du^2 - dv^2)
    X = QuinticHermite(us, *(j / -16.0 for j in Xs))
    Y = QuinticHermite(vs, *(j / -16.0 for j in Ys))

    x, y = chart.mesh
    Xv, Yv = X(x + y), Y(x - y)
    f_rec = 4.0 * (Xv - Yv)             # du^2 - dv^2 = 4 dx dy
    b_rec = -2.0 * (Xv + Yv) / (Xv - Yv)
    fscale = np.abs(fj.v).max()
    resid = float(max(np.abs(f_rec - fj.v).max() / fscale,
                      (np.abs(b_rec - bj.v) / (1.0 + np.abs(bj.v))).max()))

    return Case1Result(us, -Xs[0] / 16.0, vs, -Ys[0] / 16.0, X, Y,
                       resid, {"rotation": "u = x + y, v = x - y",
                               "function_scale": -1.0 / 16.0,
                               "one_variable_residual": worst})


@dataclass
class Case2Result:
    """Complex-Liouville recovery: h = fb + 2if sampled on the chart grid."""

    xs: np.ndarray
    ys: np.ndarray
    h_samples: np.ndarray          # complex, shape (nx, ny)
    cr_residual: float
    gauge: dict = field(default_factory=dict)
    family = "complex_liouville"


def solve_case2(nf: NullFormMetric, F: QuadraticForm,
                tol: float = DEFAULT_CASE_TOL) -> Case2Result:
    """a = 1, c = -1 form: (fb, 2f) satisfy the Cauchy-Riemann equations;
    return the sampled holomorphic h = fb + 2if."""
    check_tol(tol)
    chart = nf.chart
    fj = nf.f.on(chart)
    rj = fj * F.b.on(chart)
    ij = fj * 2.0
    s = 1.0 + abs(rj.dx) + abs(rj.dy) + abs(ij.dx) + abs(ij.dy)
    r = (abs(rj.dx - ij.dy) + abs(rj.dy + ij.dx)) / s
    i = int(r.argmax())
    worst = float(r.flat[i])
    if worst > tol:
        raise NotHolomorphic(worst, chart.point(i))
    # h = fb + 2if is 4x the h whose normal form reads 2 Im(h) dx dy
    h = rj.v + 1j * ij.v
    return Case2Result(chart.xs, chart.ys, h, worst,
                       {"h_scale": 4.0, "readoff": "h = f b + 2 i f"})


@dataclass
class Case3Result:
    """Jordan-block recovery: after y_new with dy_new/dy_old = Yhat the
    metric matches (1 + x Y'(y_new)) dx dy_new and b = -2 Y / (1 + x Y')."""

    y_new_grid: np.ndarray
    Y_values: np.ndarray           # Y as a function of the final y coordinate
    y_old_grid: np.ndarray
    Yhat_values: np.ndarray        # Yhat as a function of the original y
    beta: Monotone1D
    final_residual: float
    gauge: dict = field(default_factory=dict)
    family = "jordan_block"


def solve_case3(nf: NullFormMetric, F: QuadraticForm,
                tol: float = DEFAULT_CASE_TOL) -> Case3Result:
    """a = 1, c = 0 form: fb = -2 Y(y), f = x Y'(y) + Yhat(y); the quadrature
    reparametrization dy_new = Yhat dy_old rectifies Yhat to 1."""
    check_tol(tol)
    chart = nf.chart
    (xlo, xhi), (ylo, yhi) = chart.x_range, chart.y_range
    x_ref, y0 = chart.center
    ys = chart.ys

    def jets(t):
        """(Y, Y', Y'') and (Yhat, Yhat', Yhat'') at t, a float or an array
        (then floats, or arrays of t's shape), from one evaluation of f and b
        on t and the two difference points of each entry."""
        # Yhat'' needs Y''', which order-2 jets do not carry: a difference of
        # Yhat' (it enters only second-order map slots), central inside and
        # one-sided of second order where a chart end is within eps
        eps = 1e-5
        side = (t < ylo + eps) * 1.0 - (t > yhi - eps) * 1.0    # +1 at ylo, -1 at yhi
        inside = side == 0.0
        ts = np.array((t, t + _where(inside, -1.0, side) * eps,
                       t + _where(inside, 1.0, 2.0 * side) * eps))
        fj = nf.f.jet(x_ref, ts)
        fbj = fj * F.b.jet(x_ref, ts)       # fb = -2 Y
        fv, fd, fbv, fbd, fbdd = (_spread(s, ts.shape)
                                  for s in (fj.v, fj.dy, fbj.v, fbj.dy, fbj.dyy))
        Y = (-0.5 * fbv[0], -0.5 * fbd[0], -0.5 * fbdd[0])
        d1 = fd[0] - x_ref * Y[2]
        da, db = fd[1:] + 0.5 * x_ref * fbdd[1:]        # Yhat' at the difference points
        d2 = _where(inside, (db - da) / (2.0 * eps),
                    side * (4.0 * da - 3.0 * d1 - db) / (2.0 * eps))
        both = (Y, (fv[0] - x_ref * Y[1], d1, d2))
        if isinstance(t, np.ndarray):
            return both
        return tuple(tuple(float(s) for s in j) for j in both)

    # Y must not depend on x; Yhat_x = f_x - Y' must vanish
    fj = nf.f.on(chart)
    fbj = fj * F.b.on(chart)
    (_, yp, _), (yhat_vals, _, _) = jets(ys)
    s = 1.0 + abs(fbj.v) + abs(fbj.dx) + abs(fbj.dy)
    worst = float(np.maximum(abs(fbj.dx) / s,
                             abs(fj.dx - yp) / (1.0 + abs(fj.v) + abs(fj.dx))).max())
    if worst > tol:
        raise NotCase3(f"Y or Yhat depends on x (relative residual {worst:.3e})")

    if yhat_vals.min() <= 0.0:
        if yhat_vals.max() <= 0.0:
            raise NotCase3("Yhat is negative; flip the y orientation of the input")
        raise YhatVanishes(float(ys[int(np.abs(yhat_vals).argmin())]))

    beta = QuadratureMap(lambda t: jets(t)[1], y0, ylo, yhi)     # dy_new/dy_old = Yhat
    nf_fin, F_fin = transform_separable(nf, F, IdentityMap(xlo, xhi), beta)

    new_chart = nf_fin.chart
    # F's sweep before the reads at y_old, so that the fields below f and F
    # still keep their reads on the new mesh's preimage
    fv = nf_fin.f.on(new_chart).v
    av, bv, cv = (j.v for j in F_fin.on(new_chart))
    yn_grid = new_chart.ys
    y_old = beta.inverse(yn_grid)
    (Y_new, Yp, _), (yhat_old, _, _) = jets(y_old)
    gT = 1.0 + new_chart.xs[:, None] * (Yp / yhat_old)     # 1 + x Y'_new
    resid = float(max((np.abs(fv - gT) / (1.0 + np.abs(gT))).max(),
                      (np.abs(bv + 2.0 * Y_new / gT) / (1.0 + np.abs(bv))).max(),
                      np.abs(av - 1.0).max(), np.abs(cv).max()))

    return Case3Result(yn_grid, Y_new, ys, yhat_vals, beta, resid,
                       {"base_point": (x_ref, y0),
                        "x_independence_residual": worst})


# --- null-form conversion -----------------------------------------------------------


@dataclass
class NullFormChange:
    """Linear change to admissible (null) coordinates: old = M @ new."""

    M: np.ndarray
    chart: Chart


def to_null_form(g, F: QuadraticForm):
    """Express (g, F) in admissible coordinates ds^2 = f dx dy, f > 0.

    Handles metrics already in null form and metrics whose null directions
    are constant across the chart (then an exact linear change suffices).
    Varying null directions would need integrating the direction fields into
    coordinate curves; such inputs are rejected with a clear message.
    """
    if isinstance(g, NullFormMetric):
        return g, F, NullFormChange(np.eye(2), g.chart)
    if g.signature != ("+", "-"):
        raise SignatureMismatch(
            "rectification needs signature (+,-); Riemannian inputs follow the "
            "classical Dini path, which is outside this pipeline's scope")
    nf = null_form_of(g)
    if nf is not None:
        return nf, F, NullFormChange(np.eye(2), g.chart)

    # null slopes m: g11 + 2 g12 m + g22 m^2 = 0
    g11, g12, g22 = g.values
    if (abs(g22) < 1e-12 * (abs(g11) + abs(g12) + 1e-300)).any():
        raise RectifyError("null direction along dy; swap coordinates first")
    root = np.sqrt(-g.det)      # det < 0: signature (+,-)
    sp, sm = (-g12 + root) / g22, (-g12 - root) / g22
    mp, mm = float(sp.flat[0]), float(sm.flat[0])
    if (abs(sp - mp) > 1e-9 * (1.0 + abs(mp))).any() or \
            (abs(sm - mm) > 1e-9 * (1.0 + abs(mm))).any():
        raise RectifyError(
            "the metric's null directions vary across the chart; supply the "
            "metric in null form (f dx dy) to rectify it")

    delta = mp - mm
    M = np.array([[1.0 / delta, -1.0 / delta],
                  [1.0 + mm / delta, -mm / delta]])     # old = M @ new
    nf, F_new, chart_new, M = _linear_null_change(g, F, M)
    return nf, F_new, NullFormChange(M, chart_new)


def _inscribed_chart(chart: Chart, M: np.ndarray) -> Chart:
    """Largest centered axis-aligned rectangle (in new coords) whose image
    under old = M @ new stays inside the old chart."""
    A = np.linalg.inv(M)
    c_old = np.array(chart.center)
    c_new = A @ c_old
    corners_old = [np.array([x, y]) for x in chart.x_range for y in chart.y_range]
    box = np.array([A @ p for p in corners_old])
    h = 0.5 * (box.max(axis=0) - box.min(axis=0))
    s_best = np.inf
    for su in (-1.0, 1.0):
        for sv in (-1.0, 1.0):
            e = M @ np.array([su * h[0], sv * h[1]])    # old-coord excursion
            for comp, (lo, hi), c in zip(e, (chart.x_range, chart.y_range), c_old):
                if comp > 0.0:
                    s_best = min(s_best, (hi - c) / comp)
                elif comp < 0.0:
                    s_best = min(s_best, (lo - c) / comp)
    h *= 0.999 * min(s_best, 1.0)
    return Chart((c_new[0] - h[0], c_new[0] + h[0]),
                 (c_new[1] - h[1], c_new[1] + h[1]), chart.grid)


def _linear_null_change(g: Metric2, F: QuadraticForm, M: np.ndarray):
    chart_new = _inscribed_chart(g.chart, M)
    # orientation: f = 2 (M^T g M)_{12} must be positive
    c = chart_new.center
    x0, y0 = (M @ np.array(c))
    m_old, _, _ = metric_at(g, float(x0), float(y0))
    gn = M.T @ m_old @ M
    if gn[0, 1] < 0.0:
        M = M @ np.diag([1.0, -1.0])
        chart_new = _inscribed_chart(g.chart, M)
    g11 = g.g11.compose_linear(M)
    g12 = g.g12.compose_linear(M)
    g22 = g.g22.compose_linear(M)
    m11, m12, m21, m22 = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    f = (g11 * (m11 * m12) + g12 * (m11 * m22 + m12 * m21) + g22 * (m21 * m22)) * 2.0
    A = np.linalg.inv(M)
    a = F.a.compose_linear(M)
    b = F.b.compose_linear(M)
    cc = F.c.compose_linear(M)
    a_new = a * (A[0, 0] ** 2) + b * (A[0, 0] * A[0, 1]) + cc * (A[0, 1] ** 2)
    b_new = a * (2 * A[0, 0] * A[1, 0]) + b * (A[0, 0] * A[1, 1] + A[0, 1] * A[1, 0]) \
        + cc * (2 * A[0, 1] * A[1, 1])
    c_new = a * (A[1, 0] ** 2) + b * (A[1, 0] * A[1, 1]) + cc * (A[1, 1] ** 2)
    return (NullFormMetric(f, chart_new), QuadraticForm(a_new, b_new, c_new, chart_new),
            chart_new, M)


# --- the full pipeline ---------------------------------------------------------------


@dataclass
class RectificationReport:
    family: str
    case: int
    result: object                  # Case1Result | Case2Result | Case3Result
    flipped_integral: bool
    swapped_axes: bool
    bk: BKResult
    sys_residual: float
    gauge: dict

    def to_dict(self):
        d = {
            "family": self.family,
            "case": self.case,
            "flipped_integral": self.flipped_integral,
            "swapped_axes": self.swapped_axes,
            "sys_residual": self.sys_residual,
            "gauge": {k: (list(v) if isinstance(v, tuple) else v)
                      for k, v in self.gauge.items()},
        }
        r = self.result
        if isinstance(r, Case1Result):
            d["parameters"] = {
                "u": r.u_grid.tolist(), "X": r.X_values.tolist(),
                "v": r.v_grid.tolist(), "Y": r.Y_values.tolist(),
            }
            d["reconstruction_residual"] = r.reconstruction_residual
        elif isinstance(r, Case2Result):
            d["parameters"] = {
                "x": r.xs.tolist(), "y": r.ys.tolist(),
                "h_re": r.h_samples.real.tolist(), "h_im": r.h_samples.imag.tolist(),
            }
            d["reconstruction_residual"] = r.cr_residual
        else:
            d["parameters"] = {
                "y_new": r.y_new_grid.tolist(), "Y": r.Y_values.tolist(),
                "y_old": r.y_old_grid.tolist(), "Yhat": r.Yhat_values.tolist(),
            }
            d["reconstruction_residual"] = r.final_residual
        return d


def _swap_axes(nf: NullFormMetric, F: QuadraticForm):
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    chart = Chart(nf.chart.y_range, nf.chart.x_range, (nf.chart.grid[1], nf.chart.grid[0]))
    f2 = nf.f.compose_linear(swap)
    return (NullFormMetric(f2, chart),
            QuadraticForm(F.c.compose_linear(swap), F.b.compose_linear(swap),
                          F.a.compose_linear(swap), chart))


def rectification_pipeline(g, F: QuadraticForm, tol: float = DEFAULT_CASE_TOL,
                           sys_tol: float = DEFAULT_SYS_TOL) -> RectificationReport:
    """Recover normal-form data from a metric plus quadratic integral:
    null form -> sign normalization of F -> quadrature rectification ->
    case dispatch on the signs of (a, c)."""
    check_tol(tol)
    check_tol(sys_tol, "sys_tol")
    g_metric = g.to_metric2() if isinstance(g, NullFormMetric) else g
    triv = triviality_check(F, g_metric)
    if triv.trivial:
        raise TrivialIntegral(
            f"F = {triv.scale:.6g} * H is a trivial integral; nothing to rectify")

    nf, F, _ = to_null_form(g, F)
    sys_rep = verify_integral(nf, F, "sys", sys_tol)
    if sys_rep.max_residual > sys_tol:
        raise NotAnIntegral(sys_rep.max_residual, sys_rep.worst_point)

    aj, bj, cj = F.on(nf.chart)
    zero_a, zero_c = _vanishing(aj, bj, cj)

    def sign_of(vals, zero, name):
        if zero:
            return 0
        if vals.min() > 0.0:
            return 1
        if vals.max() < 0.0:
            return -1
        raise AmbiguousCase(f"coefficient {name} changes sign inside the chart; "
                            "pick a chart on one side of its zero set")

    sa, sc = sign_of(aj.v, zero_a, "a"), sign_of(cj.v, zero_c, "c")
    swapped = False
    flipped = False
    if sa == 0 and sc == 0:
        raise TrivialIntegral("a = c = 0 on the chart: F is proportional to H")
    if sa == 0:
        nf, F = _swap_axes(nf, F)
        sa, sc = sc, sa
        swapped = True
    if sa < 0:
        F = F.scaled(-1.0)
        sa, sc = -sa, -sc
        flipped = True

    bk = bk_normalize(nf, F, tol)
    gauge = {"flipped_integral": flipped, "swapped_axes": swapped,
             "bk_base_point": bk.base_point}

    if sc > 0:
        result = solve_case1(bk.metric, bk.integral, tol)
        case = 1
    elif sc < 0:
        result = solve_case2(bk.metric, bk.integral, tol)
        case = 2
    else:
        result = solve_case3(bk.metric, bk.integral, tol)
        case = 3
    gauge.update(result.gauge)
    return RectificationReport(result.family, case, result, flipped, swapped,
                               bk, sys_rep.max_residual, gauge)
