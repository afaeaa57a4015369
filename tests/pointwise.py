"""Per-point references for quantities that projeq computes only over a
whole chart, or only from a phase-space state, or only on several point
sets at once.

The library has one route for each: the sys residuals and the pair tensor
G = g^{-1} gbar are grid sweeps, and the projective integral I is read on
the velocity of a state (projective_integral_momentum).  These functions
write each quantity out at one point from the public pointwise reads
(ScalarField.jet, QuadraticForm.jets_at, Metric2.entries_at), with the
library's operations in the library's order, so that the tests can hold
the sweeps to them bit for bit.

projective_residual reads the Christoffel symbols of g as six floats.
projective_residual_loop below reads them from christoffel_at's (2, 2, 2)
array instead, so that its arithmetic runs on NumPy float64 scalars, with
the library's operations in the library's order.

The case-1 and case-3 solvers evaluate f and b once on all the points a
step needs (both diagonals; a point set and its difference points).  The
two case references below evaluate each point set on its own instead, as
separate calls, with the solvers' operations in the solvers' order.
"""

from __future__ import annotations

import math

import numpy as np

from projeq.dynamics import _flow
from projeq.errors import DomainError, SignatureMismatch, ZeroVelocity
from projeq.fields import IdentityMap, QuadratureMap, QuinticHermite, _where
from projeq.geometry import christoffel_at
from projeq.rectify import (_CASE1_SAMPLES, Case1Result, Case3Result, _diag_point,
                            transform_separable)


def sys_residuals(f, F, x, y):
    """((r1, r2, r3, r4), norm) at (x, y): the four PDE left-hand sides
    whose simultaneous vanishing makes F = a px^2 + b px py + c py^2 an
    integral of the null form ds^2 = f dx dy,
    r1 = a_y, r2 = f a_x + f b_y + 2 f_x a + f_y b,
    r3 = f b_x + f c_y + f_x b + 2 f_y c, r4 = c_x,
    and their normalizer (1 + |f| + |f_x| + |f_y|) (1 + |a| + |b| + |c|)."""
    fj = f.jet(x, y)
    aj, bj, cj = F.jets_at(x, y)
    r1 = aj.dy
    r2 = fj.v * aj.dx + fj.v * bj.dy + 2.0 * fj.dx * aj.v + fj.dy * bj.v
    r3 = fj.v * bj.dx + fj.v * cj.dy + fj.dx * bj.v + 2.0 * fj.dy * cj.v
    r4 = cj.dx
    norm = ((1.0 + abs(fj.v) + abs(fj.dx) + abs(fj.dy))
            * (1.0 + abs(aj.v) + abs(bj.v) + abs(cj.v)))
    return (r1, r2, r3, r4), norm


def max_normalized(residuals, norm):
    """max |r_i / norm|; inf where the normalizer overflowed, as in the
    sweeps, which never let an overflow pass as 0."""
    if norm == math.inf:
        return math.inf
    return max(abs(r / norm) for r in residuals)


def bracket_from_sys(f, residuals, x, y, px, py):
    """{H, F} reassembled from the sys residuals, for H = 1/2 g^{ij} p_i p_j
    of the null form (the library's H normalization):
    {H, F} = -(2/f^2) (f r1 px^3 + r2 px^2 py + r3 px py^2 + f r4 py^3)."""
    r1, r2, r3, r4 = residuals
    fv = f(x, y)
    cubic = (fv * r1 * px ** 3 + r2 * px * px * py
             + r3 * px * py * py + fv * r4 * py ** 3)
    return -2.0 / (fv * fv) * cubic


def g_tensor_at(g, gbar, x, y):
    """G^i_j = sum_k g^{ik} gbar_{kj} at (x, y) as a 2x2 array, with
    g^{-1} = (g22, -g12, g11) / det g."""
    a, b, c, det = g.entries_at(x, y)
    abar, bbar, cbar, _ = gbar.entries_at(x, y)
    i11, i12, i22 = c / det, -b / det, a / det
    return np.array([[i11 * abar + i12 * bbar, i11 * bbar + i12 * cbar],
                     [i12 * abar + i22 * bbar, i12 * bbar + i22 * cbar]])


def projective_integral_I(g, gbar, x, y, xi):
    """I(xi) = gbar(xi, xi) (det g / det gbar)^(2/3) at (x, y), real cube
    root; raises SignatureMismatch where det g / det gbar <= 0."""
    det = g.entries_at(x, y)[3]
    a, b, c, det_bar = gbar.entries_at(x, y)
    ratio = det / det_bar
    if ratio <= 0.0:
        raise SignatureMismatch(f"det ratio {ratio:.3e} <= 0 at ({x:.4g}, {y:.4g})")
    vx, vy = xi
    return (a * vx * vx + 2.0 * b * vx * vy + c * vy * vy) * ratio ** (2.0 / 3.0)


def projective_residual_loop(g, traj):
    """projective_residual(g, traj) with the symbols of g indexed out of
    christoffel_at's array: max over samples of |r ^ v| / |v|^3, r = gamma''
    + Gamma_g(v, v), raising as the library does."""
    gen = traj.metric
    worst = 0.0
    for i, (x, y, px, py) in enumerate(traj.states.tolist()):
        i11, i12, i22 = gen.jets_at(x, y)[4:]
        vx, vy, dpx, dpy = _flow(i11, i12, i22, px, py)
        speed2 = vx * vx + vy * vy
        if speed2 < 1e-300:
            raise ZeroVelocity(f"zero velocity at sample {i}")
        ax = (i11.dx * vx + i11.dy * vy) * px + (i12.dx * vx + i12.dy * vy) * py \
            + i11.v * dpx + i12.v * dpy
        ay = (i12.dx * vx + i12.dy * vy) * px + (i22.dx * vx + i22.dy * vy) * py \
            + i12.v * dpx + i22.v * dpy
        gamma = christoffel_at(g, x, y)
        rx = ax + gamma[0, 0, 0] * vx * vx + 2.0 * gamma[0, 0, 1] * vx * vy + gamma[0, 1, 1] * vy * vy
        ry = ay + gamma[1, 0, 0] * vx * vx + 2.0 * gamma[1, 0, 1] * vx * vy + gamma[1, 1, 1] * vy * vy
        cross = abs(rx * vy - ry * vx)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = cross / speed2 ** 1.5
        if not math.isfinite(r):
            raise DomainError(f"projective residual {r} is not finite at sample {i}")
        worst = max(worst, r)
    return worst


def case1_by_point_set(nf, F):
    """solve_case1's result with f and b evaluated on each diagonal by its
    own calls: q on x + y = u, then p on x - y = v."""
    chart = nf.chart

    def p_and_q(fj, bj):
        fb = fj * bj
        return fb + 2.0 * fj, fb - 2.0 * fj

    fj, bj = nf.f.on(chart), F.b.on(chart)
    pj, qj = p_and_q(fj, bj)
    ps = 1.0 + abs(pj.v) + abs(pj.dx) + abs(pj.dy)
    qs = 1.0 + abs(qj.v) + abs(qj.dx) + abs(qj.dy)
    worst = float(np.max(np.maximum(abs(pj.dx + pj.dy) / ps, abs(qj.dx - qj.dy) / qs)))
    (xlo, xhi), (ylo, yhi) = chart.x_range, chart.y_range
    us = np.linspace(xlo + ylo, xhi + yhi, _CASE1_SAMPLES)
    vs = np.linspace(xlo - yhi, xhi - ylo, _CASE1_SAMPLES)
    xq, yq = _diag_point(chart, us, "sum")
    xp, yp = _diag_point(chart, vs, "diff")
    q = p_and_q(nf.f.jet(xq, yq), F.b.jet(xq, yq))[1]
    p = p_and_q(nf.f.jet(xp, yp), F.b.jet(xp, yp))[0]
    Xs = [np.broadcast_to(j, us.shape) for j in
          (q.v, (q.dx + q.dy) / 2.0, (q.dxx + 2.0 * q.dxy + q.dyy) / 4.0)]
    Ys = [np.broadcast_to(j, vs.shape) for j in
          (p.v, (p.dx - p.dy) / 2.0, (p.dxx - 2.0 * p.dxy + p.dyy) / 4.0)]
    X = QuinticHermite(us, *(j / -16.0 for j in Xs))
    Y = QuinticHermite(vs, *(j / -16.0 for j in Ys))
    x, y = chart.mesh
    Xv, Yv = X(x + y), Y(x - y)
    f_rec = 4.0 * (Xv - Yv)
    b_rec = -2.0 * (Xv + Yv) / (Xv - Yv)
    resid = float(max(np.max(np.abs(f_rec - fj.v)) / np.max(np.abs(fj.v)),
                      np.max(np.abs(b_rec - bj.v) / (1.0 + np.abs(bj.v)))))
    return Case1Result(us, -Xs[0] / 16.0, vs, -Ys[0] / 16.0, X, Y,
                       resid, {"rotation": "u = x + y, v = x - y",
                               "function_scale": -1.0 / 16.0,
                               "one_variable_residual": worst})


def case3_by_point_set(nf, F):
    """solve_case3's result with f and b evaluated on each point set by its
    own calls: Y's jets from one call of f b, Yhat' at each difference point
    from one call of f and one of f b, and Yhat's value and slope from one
    more call of f (six calls of f and three of b per set of points)."""
    chart = nf.chart
    (xlo, xhi), (ylo, yhi) = chart.x_range, chart.y_range
    x_ref, y0 = chart.center
    ys = chart.ys
    fb = nf.f * F.b

    def Y_jets(y):
        j = fb.jet(x_ref, y)
        return (-0.5 * j.v, -0.5 * j.dy, -0.5 * j.dyy)

    def yhat_d1(t):
        return nf.f.jet(x_ref, t).dy + 0.5 * x_ref * fb.jet(x_ref, t).dyy

    def yhat_jets(t):
        fj = nf.f.jet(x_ref, t)
        _, yp, ypp = Y_jets(t)
        v = fj.v - x_ref * yp
        d1 = fj.dy - x_ref * ypp
        eps = 1e-5
        side = (t < ylo + eps) * 1.0 - (t > yhi - eps) * 1.0
        inside = side == 0.0
        da = yhat_d1(t + _where(inside, -1.0, side) * eps)
        db = yhat_d1(t + _where(inside, 1.0, 2.0 * side) * eps)
        d2 = _where(inside, (db - da) / (2.0 * eps),
                    side * (4.0 * da - 3.0 * d1 - db) / (2.0 * eps))
        return (v, d1, d2)

    fj = nf.f.on(chart)
    fbj = fj * F.b.on(chart)
    yp = Y_jets(ys)[1]
    s = 1.0 + abs(fbj.v) + abs(fbj.dx) + abs(fbj.dy)
    worst = float(np.max(np.maximum(abs(fbj.dx) / s,
                                    abs(fj.dx - yp) / (1.0 + abs(fj.v) + abs(fj.dx)))))
    yhat_vals = np.broadcast_to(yhat_jets(ys)[0], ys.shape)
    beta = QuadratureMap(yhat_jets, y0, ylo, yhi)
    nf_fin, F_fin = transform_separable(nf, F, IdentityMap(xlo, xhi), beta)
    new_chart = nf_fin.chart
    yn_grid = new_chart.ys
    y_old = beta.inverse(yn_grid)
    Yv, Yp, _ = Y_jets(y_old)
    gT = 1.0 + new_chart.xs[:, None] * (Yp / yhat_jets(y_old)[0])
    fv = nf_fin.f.on(new_chart).v
    av, bv, cv = (j.v for j in F_fin.on(new_chart))
    resid = float(max(np.max(np.abs(fv - gT) / (1.0 + np.abs(gT))),
                      np.max(np.abs(bv + 2.0 * Yv / gT) / (1.0 + np.abs(bv))),
                      np.max(np.abs(av - 1.0)), np.max(np.abs(cv))))
    return Case3Result(yn_grid, np.broadcast_to(Yv, yn_grid.shape), ys, yhat_vals, beta,
                       resid, {"base_point": (x_ref, y0), "x_independence_residual": worst})
