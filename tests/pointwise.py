"""Per-point references for quantities that projeq computes only over a
whole chart, or only from a phase-space state.

The library has one route for each: the sys residuals and the pair tensor
G = g^{-1} gbar are grid sweeps, and the projective integral I is read on
the velocity of a state (projective_integral_momentum).  These functions
write each quantity out at one point from the public pointwise reads
(ScalarField.jet, QuadraticForm.jets_at, Metric2.entries_at), with the
library's operations in the library's order, so that the tests can hold
the sweeps to them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from projeq.errors import SignatureMismatch


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
