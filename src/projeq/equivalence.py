"""Bridges between metric pairs and quadratic integrals: the projective
integral I, the null-coordinate PDE residuals, and the triviality test."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DomainError, InvalidArgument, InvariantViolation, SignatureMismatch,
                     check_tol)
from .expr import Num, parse
from .fields import ScalarField
from .geometry import Chart, Metric2
from .dynamics import PhaseState, QuadraticForm, bracket_from_jets, hamiltonian, \
    hamiltonian_form, poisson_bracket, quadratic_value  # noqa: F401 (importable from here)

DEFAULT_VERIFY_TOL = 1e-9
DEFAULT_TRIVIALITY_TOL = 1e-8
# g11 and g22 of a null-form metric, relative to g12
NULL_FORM_TOL = 1e-10

# momentum directions pinning a cubic in (px, py)
_MOMENTUM_BASIS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0))


@dataclass
class NullFormMetric:
    """ds^2 = f dx dy with f > 0 on the chart.

    Construction sweeps f over the chart's grid (ScalarField.on) to check
    its sign; f keeps that sweep for every later read of f.on(chart).  The
    null form of an exact null-form metric (null_form_of) holds a weak
    reference to that metric, which to_metric2 returns while it lives."""

    f: ScalarField
    chart: Chart
    _source: weakref.ref | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        point = self.chart.first_point(~(self.f.on(self.chart).v > 0.0))
        if point is not None:
            raise InvariantViolation("null-form coefficient f must be positive", point)

    @classmethod
    def from_expr(cls, f: str, chart: Chart) -> "NullFormMetric":
        return cls(ScalarField.from_expr(parse(f)), chart)

    def to_metric2(self) -> Metric2:
        """The metric g11 = g22 = 0, g12 = f/2.  For the null form of such a
        metric g, that is g itself while g lives; otherwise it is built on
        the first call and the same object on every later one.  The link to
        g is weak because g keeps its null form (Metric2.derived): a strong
        one would make a cycle that only the cyclic collector frees."""
        g = self._source() if self._source is not None else None
        return g if g is not None else self._metric2

    @cached_property
    def _metric2(self) -> Metric2:
        return _zero_diagonal(self)


def _zero_diagonal(nf: NullFormMetric) -> Metric2:
    """The metric (0, f/2, 0) of a null form, one zero field on the diagonal."""
    zero = ScalarField.constant(0.0)
    return Metric2(zero, nf.f * 0.5, zero, nf.chart)


def metric_in_null_form(f: str, chart: Chart) -> Metric2:
    """The metric f dx dy, f given as text: (0, f/2, 0), whose null form
    (null_form_of) is the null form parsed, so that its reads use f's own
    sweep rather than a second f = (f/2)*2.  The metric keeps that null form
    (Metric2.derived) and the null form refers back weakly, as the null
    form of a generated metric does, so the two form no cycle."""
    nf = NullFormMetric.from_expr(f, chart)
    g = _zero_diagonal(nf)
    nf._source = weakref.ref(g)
    g._derived[_null_form] = nf         # what null_form_of(g) returns from now on
    return g


def null_form_of(g: Metric2) -> NullFormMetric | None:
    """Recognize ds^2 = f dx dy; None if g11 or g22 exceeds NULL_FORM_TOL
    times |g12| at some grid point.  Decided once per metric
    (Metric2.derived): every call returns the same object."""
    return g.derived(_null_form)


def _null_form(g: Metric2) -> NullFormMetric | None:
    a, b, c = g.values
    bound = NULL_FORM_TOL * np.maximum(np.abs(b), 1e-300)
    if np.any((np.abs(a) > bound) | (np.abs(c) > bound)):
        return None
    nf = NullFormMetric(g.g12 * 2.0, g.chart)
    if _is_zero(g.g11) and _is_zero(g.g22):
        # g is the metric to_metric2 would build: (g12 * 2) * 0.5 has the
        # bits of g12 wherever f is finite, as the construction checked
        nf._source = weakref.ref(g)
    return nf


def _is_zero(f: ScalarField) -> bool:
    """f is the constant +0.0, as the zero entries to_metric2 builds are."""
    e = f.expr
    return type(e) is Num and e.value == 0.0 and math.copysign(1.0, e.value) > 0.0


# --- the projective integral I ------------------------------------------------


def projective_integral_momentum(g: Metric2, gbar: Metric2, s: PhaseState) -> float:
    """I(xi) = gbar(xi, xi) * (det g / det gbar)^(2/3), real cube root, on
    the velocity xi = g^{-1} p of a phase-space state."""
    a, b, c, det = g.entries_at(s.x, s.y)
    vx = (c * s.px - b * s.py) / det
    vy = (-b * s.px + a * s.py) / det
    a, b, c, det_gbar = gbar.entries_at(s.x, s.y)
    ratio = det / det_gbar
    if ratio <= 0.0:
        raise SignatureMismatch(
            f"det ratio {ratio:.3e} <= 0 at ({s.x:.4g}, {s.y:.4g}); signatures differ")
    quad = a * vx * vx + 2.0 * b * vx * vy + c * vy * vy
    return quad * ratio ** (2.0 / 3.0)


def fit_integral_combination(g: Metric2, gbar: Metric2, F: QuadraticForm,
                             states: list[PhaseState]):
    """Least-squares constants (alpha, beta) with I = alpha F + beta H over
    the given states; returns (alpha, beta, max abs residual, scale).  Two
    constants need at least two states (InvalidArgument), and every value of
    I, F and H must be finite (DomainError names the first state where one
    is not), so that no NaN reaches the least-squares solver."""
    states = list(states)
    if len(states) < 2:
        raise InvalidArgument(f"fitting (alpha, beta) needs at least two states, "
                              f"got {len(states)}")
    ivals = np.array([projective_integral_momentum(g, gbar, s) for s in states])
    fvals = np.array([quadratic_value(F, s) for s in states])
    hvals = np.array([hamiltonian(g, s) for s in states])
    design = np.column_stack([fvals, hvals])
    finite = np.isfinite(design).all(axis=1) & np.isfinite(ivals)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"I, F or H is not finite at state {i}: {states[i]!r}")
    (alpha, beta), *_ = np.linalg.lstsq(design, ivals, rcond=None)
    resid = float(np.max(np.abs(design @ np.array([alpha, beta]) - ivals)))
    scale = float(np.max(np.abs(ivals)) + 1e-300)
    return float(alpha), float(beta), resid, scale


# --- system (sys) residuals -----------------------------------------------------


def _max_normalized(r1, r2, r3, r4, norm):
    """max |r_i / norm| of the four sys residuals; an array when they are
    grid arrays.  Where the normalizer overflowed it is inf, not the 0 that
    dividing by it gives, so that no check passes on it."""
    r1, r2, r3, r4 = (abs(r / norm) for r in (r1, r2, r3, r4))
    worst = np.maximum(np.maximum(r1, r2), np.maximum(r3, r4))
    return np.where(norm == np.inf, np.inf, worst)[()]


def _sys_norm(fj, aj, bj, cj):
    with np.errstate(over="ignore"):        # _max_normalized reports an overflow
        return ((1.0 + abs(fj.v) + abs(fj.dx) + abs(fj.dy))
                * (1.0 + abs(aj.v) + abs(bj.v) + abs(cj.v)))


def _sys_from_jets(fj, aj, bj, cj):
    """The worst normalized sys residual from the jets of f and of (a, b, c);
    the jets may hold grid arrays.  The four PDE left-hand sides, whose
    simultaneous vanishing makes F an integral of the null-form flow, are
    r1 = a_y, r2 = f a_x + f b_y + 2 f_x a + f_y b,
    r3 = f b_x + f c_y + f_x b + 2 f_y c, r4 = c_x."""
    r1 = aj.dy
    r2 = fj.v * aj.dx + fj.v * bj.dy + 2.0 * fj.dx * aj.v + fj.dy * bj.v
    r3 = fj.v * bj.dx + fj.v * cj.dy + fj.dx * bj.v + 2.0 * fj.dy * cj.v
    r4 = cj.dx
    return _max_normalized(r1, r2, r3, r4, _sys_norm(fj, aj, bj, cj))


def _sys_from_bracket(vals, fj, F_jets):
    """The worst normalized sys residual recovered from the Poisson brackets
    {H, F} at the momentum basis (an independent route through the
    inverse-metric jets), with the normalizer of the sys route."""
    # cubic coefficients (C0..C3) of {H,F} from the basis evaluations:
    # (1,0): C0; (0,1): C3; (1,1): C0+C1+C2+C3; (1,-1): C0-C1+C2-C3
    c0 = vals[0]
    c3 = vals[1]
    c1 = 0.5 * (vals[2] - vals[3]) - c3
    c2 = 0.5 * (vals[2] + vals[3]) - c0
    fv = fj.v
    k = -fv * fv / 2.0
    return _max_normalized(k * c0 / fv, k * c1, k * c2, k * c3 / fv, _sys_norm(fj, *F_jets))


# --- verification reports ---------------------------------------------------------


@dataclass
class VerificationReport:
    method: str
    max_residual: float
    worst_point: tuple[float, float]
    tolerance: float
    passed: bool

    def to_dict(self):
        return {
            "method": self.method,
            "max_residual": self.max_residual,
            "worst_point": list(self.worst_point),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def verify_integral(metric, F: QuadraticForm, method: str = "auto",
                    tol: float = DEFAULT_VERIFY_TOL) -> VerificationReport:
    """Check {H, F} = 0 over the metric's chart grid.

    method 'sys' evaluates the null-coordinate PDE residuals (requires a
    null-form metric); 'bracket' evaluates the Poisson bracket at the
    momentum basis; 'auto' picks 'sys' when the metric is in null form.
    Residuals are normalized by local field magnitudes.
    """
    check_tol(tol)
    nf = metric if isinstance(metric, NullFormMetric) else None
    if nf is None and method in ("auto", "sys"):
        nf = null_form_of(metric)
    if method == "auto":
        method = "sys" if nf is not None else "bracket"
    chart = metric.chart

    if method == "sys":
        if nf is None:
            raise InvalidArgument("sys residuals require a null-form metric")
        r = _sys_from_jets(nf.f.on(chart), *F.on(chart))
    elif method == "bracket":
        g = metric.to_metric2() if nf is metric else metric
        h_jets = hamiltonian_form(g).on(chart)
        F_jets = F.on(chart)
        vals = [bracket_from_jets(h_jets, F_jets, px, py) for px, py in _MOMENTUM_BASIS]
        if nf is not None:
            r = _sys_from_bracket(vals, nf.f.on(chart), F_jets)
        else:
            aj, bj, cj = h_jets
            fnorm = (1.0 + abs(aj.v) + abs(bj.v) + abs(cj.v) + abs(aj.dx)
                     + abs(bj.dx) + abs(cj.dx) + abs(aj.dy) + abs(bj.dy) + abs(cj.dy))
            a2, b2, c2 = F_jets
            cnorm = 1.0 + abs(a2.v) + abs(b2.v) + abs(c2.v)
            r = np.max([abs(v) / (fnorm * cnorm) for v in vals], axis=0)
    else:
        raise InvalidArgument(f"unknown method {method!r}")
    overflow = chart.first_point(~np.isfinite(r))
    if overflow is not None:
        raise DomainError(f"{method} residual is not finite", point=overflow)
    i = int(np.argmax(r))
    worst = float(r.flat[i])
    worst_pt = chart.point(i) if worst > 0.0 else chart.center
    return VerificationReport(method, worst, worst_pt, tol, worst < tol)


# --- triviality (is F a constant multiple of H?) ------------------------------------


@dataclass
class TrivialityResult:
    trivial: bool
    scale: float          # the lambda minimizing |F - lambda H|
    deviation: float
    tolerance: float


def triviality_check(F: QuadraticForm, g: Metric2,
                     tol: float = DEFAULT_TRIVIALITY_TOL) -> TrivialityResult:
    """F is trivial iff F - lambda H vanishes (coefficient-wise on g's chart
    grid) for the deviation-minimizing lambda.  H's coefficients (g^11/2,
    g^12, g^22/2) come from the values and det g that g keeps, by the
    operations of a sweep of hamiltonian_form(g): a Jet2 quotient multiplies
    by the reciprocal."""
    check_tol(tol)
    F_jets = F.on(g.chart)
    a, b, c = g.values
    # coefficients interleaved point by point: (a, b, c) at each grid point
    with np.errstate(all="ignore"):
        iv = 1.0 / g.det
        h = np.stack((c * iv * 0.5, -b * iv, a * iv * 0.5), axis=-1)
    overflow = g.chart.first_point(~np.isfinite(h).all(axis=-1))
    if overflow is not None:
        raise DomainError("inverse metric takes a non-finite value", point=overflow)
    fvals = np.stack([j.v for j in F_jets], axis=-1).ravel()
    hvals = h.ravel()
    with np.errstate(all="ignore"):
        denom = float(hvals @ hvals)
        lam = float(fvals @ hvals) / denom if denom > 0.0 else 0.0
        dev = float(np.max(np.abs(fvals - lam * hvals)))
    if not np.isfinite(dev):
        raise DomainError("triviality deviation is not finite")
    scale = float(np.max(np.abs(fvals)) + 1e-300)
    return TrivialityResult(dev <= tol * scale, lam, dev, tol)
