"""Hamiltonian geodesic flow: energy, Poisson bracket, integration,
conservation logging, and the unparametrized-geodesic residual."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (ChartExit, DomainError, InvalidArgument, SingularMetric, StepFailure,
                     ZeroVelocity, check_tol)
from .expr import Jet2, parse
from .fields import ScalarField
from .geometry import Chart, Metric2, _christoffel, diagonal_scaled, inverse
from .geometry import christoffel_at  # noqa: F401  (bench/tracer.py counts its calls here)

DEFAULT_INTEGRATOR_TOL = 1e-10
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class PhaseState:
    x: float
    y: float
    px: float
    py: float


@dataclass
class QuadraticForm:
    """F = a px^2 + b px py + c py^2 with coefficient fields on a chart."""

    a: ScalarField
    b: ScalarField
    c: ScalarField
    chart: Chart

    @classmethod
    def from_exprs(cls, a: str, b: str, c: str, chart: Chart) -> "QuadraticForm":
        return cls(ScalarField.from_expr(parse(a)),
                   ScalarField.from_expr(parse(b)),
                   ScalarField.from_expr(parse(c)), chart)

    def jets_at(self, x: float, y: float) -> tuple[Jet2, Jet2, Jet2]:
        return self.a.jet(x, y), self.b.jet(x, y), self.c.jet(x, y)

    def on(self, chart: Chart) -> tuple[Jet2, Jet2, Jet2]:
        """Coefficient jets over the chart grid (see ScalarField.on)."""
        return self.a.on(chart), self.b.on(chart), self.c.on(chart)

    def scaled(self, k: float) -> "QuadraticForm":
        a, c = diagonal_scaled(self.a, self.c, k)
        return QuadraticForm(a, self.b * k, c, self.chart)


def hamiltonian_form(g: Metric2) -> QuadraticForm:
    """H = 1/2 g^{ij} p_i p_j written as a QuadraticForm (a, b, c) =
    (g^11/2, g^12, g^22/2); built once per metric (Metric2.derived)."""
    return g.derived(_hamiltonian_form)


def _hamiltonian_form(g: Metric2) -> QuadraticForm:
    i11, i12, i22 = g.inverse_fields()
    a, c = diagonal_scaled(i11, i22, 0.5)
    return QuadraticForm(a, i12, c, g.chart)


def hamiltonian(g: Metric2, s: PhaseState) -> float:
    return _hamiltonian(g, s.x, s.y, s.px, s.py)


def _hamiltonian(g, x, y, px, py):
    gxx, gxy, gyy = inverse(*g.entries_at(x, y))
    return 0.5 * (gxx * px * px + 2.0 * gxy * px * py + gyy * py * py)


def quadratic_value(F: QuadraticForm, s: PhaseState) -> float:
    return _quadratic_value(F, s.x, s.y, s.px, s.py)


def _quadratic_value(F, x, y, px, py):
    a, b, c = F.a(x, y), F.b(x, y), F.c(x, y)
    return a * px * px + b * px * py + c * py * py


def _as_form(A) -> QuadraticForm:
    if isinstance(A, Metric2):
        return hamiltonian_form(A)
    if isinstance(A, QuadraticForm):
        return A
    raise TypeError("expected a Metric2 (its Hamiltonian) or a QuadraticForm")


def poisson_bracket(A, B, s: PhaseState) -> float:
    """{A, B} = sum_i dA/dx_i dB/dp_i - dA/dp_i dB/dx_i for momentum
    quadratics; position derivatives come from jets, momentum derivatives
    are closed-form."""
    fa, fb = _as_form(A), _as_form(B)
    return bracket_from_jets(fa.jets_at(s.x, s.y), fb.jets_at(s.x, s.y), s.px, s.py)


def bracket_from_jets(jets_a, jets_b, px: float, py: float):
    """{A, B} at momentum (px, py) from the coefficient jets (a, b, c) of
    two momentum quadratics; the jets may hold grid arrays."""
    a1, b1, c1 = jets_a
    a2, b2, c2 = jets_b
    px2, pxpy, py2 = px * px, px * py, py * py

    ax1 = a1.dx * px2 + b1.dx * pxpy + c1.dx * py2
    ay1 = a1.dy * px2 + b1.dy * pxpy + c1.dy * py2
    apx1 = 2.0 * a1.v * px + b1.v * py
    apy1 = b1.v * px + 2.0 * c1.v * py

    ax2 = a2.dx * px2 + b2.dx * pxpy + c2.dx * py2
    ay2 = a2.dy * px2 + b2.dy * pxpy + c2.dy * py2
    apx2 = 2.0 * a2.v * px + b2.v * py
    apy2 = b2.v * px + 2.0 * c2.v * py

    return ax1 * apx2 - apx1 * ax2 + ay1 * apy2 - apy1 * ay2


@dataclass
class Trajectory:
    """Samples of a geodesic flow with per-sample conservation logs."""

    metric: Metric2
    times: np.ndarray
    states: np.ndarray                  # shape (n, 4): x, y, px, py
    hamiltonian_values: np.ndarray
    integral_values: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self):
        return len(self.times)


def _flow(i11, i12, i22, px, py):
    """Hamilton's equations for H = 1/2 p g^{-1} p from the jets of g^{-1}:
    the velocity (vx, vy) and the momentum's rate (dpx, dpy)."""
    vx = i11.v * px + i12.v * py
    vy = i12.v * px + i22.v * py
    dpx = -0.5 * (i11.dx * px * px + 2.0 * i12.dx * px * py + i22.dx * py * py)
    dpy = -0.5 * (i11.dy * px * px + 2.0 * i12.dy * px * py + i22.dy * py * py)
    return vx, vy, dpx, dpy


# Dormand-Prince 5(4) tableau (FSAL).  The flow is autonomous, so the
# stage times c_i are never read.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _advance(y, h, row, ks):
    """y + h * (row[0] ks[0] + row[1] ks[1] + ...) componentwise, each sum
    taken left to right in tableau order (builtin sum would compensate on
    Python >= 3.12, and a BLAS dot product picks its own order)."""
    terms = zip(row, ks)
    r, (k0, k1, k2, k3) = next(terms)
    s0, s1, s2, s3 = r * k0, r * k1, r * k2, r * k3
    for r, (k0, k1, k2, k3) in terms:
        s0 += r * k0
        s1 += r * k1
        s2 += r * k2
        s3 += r * k3
    y0, y1, y2, y3 = y
    return y0 + h * s0, y1 + h * s1, y2 + h * s2, y3 + h * s3


def _error_norm(y5, y4, tol):
    """RMS over the four components of (y5 - y4) / (tol (1 + |y5|))."""
    total = 0.0
    for a, b in zip(y5, y4):
        e = (a - b) / (tol * (1.0 + abs(a)))
        total += e * e
    return math.sqrt(total / 4.0)


def _finite(v) -> bool:
    """v is a real number and finite (math.isfinite raises TypeError on
    anything else)."""
    return isinstance(v, numbers.Real) and math.isfinite(v)


def integrate_geodesic(g: Metric2, s0: PhaseState, t_end: float,
                       tol: float = DEFAULT_INTEGRATOR_TOL,
                       integrals: dict[str, QuadraticForm] | None = None,
                       allow_null: bool = False,
                       max_steps: int = MAX_STEPS) -> Trajectory:
    """Integrate Hamilton's equations with an embedded RK 4/5 pair and PI
    step-size control, sampling at every accepted step.  A step runs on
    Python floats: the state and the stage slopes are 4-tuples."""
    check_tol(tol)
    if isinstance(max_steps, bool) or not isinstance(max_steps, numbers.Integral) \
            or max_steps < 1:
        raise InvalidArgument(f"max_steps must be a positive integer, got {max_steps!r}")
    if not _finite(t_end):
        raise InvalidArgument(f"t_end must be finite, got {t_end!r}")
    if not all(_finite(v) for v in (s0.x, s0.y, s0.px, s0.py)):
        raise InvalidArgument(f"initial state must be finite, got {s0!r}")
    integrals = integrals or {}
    if not g.chart.contains(s0.x, s0.y):
        raise ChartExit(0.0, s0)
    h0 = hamiltonian(g, s0)
    # a finite state may still overflow H or an integral, whose logs would
    # then start from inf and every drift read NaN
    for name, v in (("H", h0), *((n, quadratic_value(F, s0)) for n, F in integrals.items())):
        if not _finite(v):
            raise DomainError(f"{name} is not finite at the initial state {s0!r}")
    pscale = s0.px * s0.px + s0.py * s0.py
    if not allow_null and abs(h0) < 1e-12 * max(pscale, 1e-300):
        raise InvalidArgument("initial covector is (numerically) null; "
                              "pass allow_null=True to integrate null geodesics")

    jets = g.jets_at

    def rhs(x, y, px, py):
        return _flow(*jets(x, y)[4:], px, py)

    y = (float(s0.x), float(s0.y), float(s0.px), float(s0.py))
    t = 0.0
    ts = [0.0]
    ys = [y]
    k_first = rhs(*y)
    # conservative initial step from the RHS magnitude
    h = min(abs(t_end), max(1e-6, 0.01 / (max(map(abs, k_first)) + 1.0)))
    direction = 1.0 if t_end >= 0.0 else -1.0
    h *= direction
    err_prev = 1.0
    steps = 0

    while (t_end - t) * direction > 0.0:
        if steps >= max_steps:
            raise StepFailure(f"exceeded the budget of {max_steps} steps")
        if (t + h - t_end) * direction > 0.0:
            h = t_end - t
        ks = [k_first]
        try:
            for row in _DP_A:
                ks.append(rhs(*_advance(y, h, row, ks)))
        except SingularMetric:
            h *= 0.5
            if abs(h) < 1e-14 * max(abs(t_end), 1.0):
                raise StepFailure("step size underflow near a metric singularity")
            continue
        y5 = _advance(y, h, _DP_B5, ks)
        err = _error_norm(y5, _advance(y, h, _DP_B4, ks), tol)
        if err <= 1.0:
            t += h
            y = y5
            if not g.chart.contains(y[0], y[1]):
                raise ChartExit(t, PhaseState(*y), _build_trajectory(g, ts, ys, integrals))
            ts.append(t)
            ys.append(y)
            k_first = ks[6]  # FSAL
            fac = 0.9 * (err + 1e-16) ** -0.14 * err_prev ** 0.08
            # floored as in Hairer's DOPRI5, so that an error of 0 does not
            # shrink the step after it
            err_prev = max(err, 1e-4)
            steps += 1
        else:
            fac = max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, fac))
        if abs(h) < 1e-14 * max(abs(t_end), 1.0):
            raise StepFailure("step size underflow")

    return _build_trajectory(g, ts, ys, integrals)


def _build_trajectory(g, ts, ys, integrals):
    """The Trajectory of the sampled times and state tuples, with H and each
    integral logged per sample by the formulas of hamiltonian and
    quadratic_value."""
    hs = np.array([_hamiltonian(g, *s) for s in ys])
    logs = {name: np.array([_quadratic_value(F, *s) for s in ys])
            for name, F in integrals.items()}
    return Trajectory(g, np.array(ts), np.array(ys), hs, logs)


def projective_residual(g: Metric2, traj: Trajectory) -> float:
    """Max over samples of |r ^ v| / |v|^3 where r = gamma'' + Gamma_g(v, v),
    gamma'' taken analytically from the generating metric's Hamiltonian flow.
    Zero iff the curve is an unparametrized geodesic of g.  A sample whose
    residual is NaN or infinite raises DomainError naming it.  Each sample
    runs on floats: the symbols of g come from _christoffel, not an array.
    A trajectory with no samples is refused: it shows nothing."""
    if len(traj.states) == 0:
        raise InvalidArgument("projective residual of a trajectory with no samples")
    gen = traj.metric
    worst = 0.0
    for i, (x, y, px, py) in enumerate(traj.states.tolist()):
        i11, i12, i22 = gen.jets_at(x, y)[4:]
        vx, vy, dpx, dpy = _flow(i11, i12, i22, px, py)
        speed2 = vx * vx + vy * vy
        if speed2 < 1e-300:
            raise ZeroVelocity(f"zero velocity at sample {i}")
        # gamma''^k = d_i(g^{kl}) v^i p_l + g^{kl} p_l'
        ax = (i11.dx * vx + i11.dy * vy) * px + (i12.dx * vx + i12.dy * vy) * py \
            + i11.v * dpx + i12.v * dpy
        ay = (i12.dx * vx + i12.dy * vy) * px + (i22.dx * vx + i22.dy * vy) * py \
            + i12.v * dpx + i22.v * dpy
        (g000, g001, g011), (g100, g101, g111) = _christoffel(g, x, y)
        rx = ax + g000 * vx * vx + 2.0 * g001 * vx * vy + g011 * vy * vy
        ry = ay + g100 * vx * vx + 2.0 * g101 * vx * vy + g111 * vy * vy
        cross = abs(rx * vy - ry * vx)
        try:
            r = cross / speed2 ** 1.5
        except ZeroDivisionError:       # |v|^3 underflowed to 0: IEEE's inf, or NaN for 0/0
            r = math.inf if cross > 0.0 else math.nan
        if not math.isfinite(r):
            raise DomainError(f"projective residual {r} is not finite at sample {i}")
        worst = max(worst, r)
    return float(worst)    # a Leaf's function may return NumPy scalars


def export_trajectory(traj: Trajectory, path) -> None:
    """CSV with header t,x,y,px,py,H,F (F column omitted when no integral
    was registered, one column per registered integral otherwise)."""
    names = list(traj.integral_values)
    header = ["t", "x", "y", "px", "py", "H"] + (names if names else [])
    lines = [",".join(header)]
    for i in range(len(traj)):
        row = [traj.times[i], *traj.states[i], traj.hamiltonian_values[i]]
        row += [traj.integral_values[n][i] for n in names]
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
