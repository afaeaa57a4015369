"""Scalar fields evaluable to order-2 jets, and monotone coordinate maps.

A ScalarField wraps a function (x, y) -> Jet2 and supports pointwise
arithmetic, so that derived coefficients (inverse-metric entries, pulled-back
integrals, ...) keep exact derivatives.  Monotone1D maps model the separable
coordinate changes x_new = phi(x_old), y_new = psi(y_old): they expose forward
jets up to third order (third order is what the second-order jets of a
composed field need) and a numerically inverted evaluation.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NonMonotone
from .expr import Expr, Jet2, diff, eval_jet

_SLOTS = ("v", "dx", "dy", "dxx", "dxy", "dyy")


def brentq(f, a, b, **kwargs):
    """scipy.optimize.brentq, imported on first use: scipy is slow to import
    and only rectification needs it."""
    from scipy.optimize import brentq as _brentq
    return _brentq(f, a, b, **kwargs)


class ScalarField:
    """A real scalar field of (x, y) with exact order-2 jets.

    The wrapped function takes floats or NumPy arrays of coordinates; every
    constructor below keeps that, so a field can be evaluated point by point
    (jet, __call__) or over a whole chart at once (on)."""

    __slots__ = ("_jet",)

    def __init__(self, jet_fn):
        self._jet = jet_fn

    def jet(self, x: float, y: float) -> Jet2:
        return self._jet(x, y)

    def __call__(self, x: float, y: float) -> float:
        return self._jet(x, y).v

    def on(self, chart) -> Jet2:
        """The jet over the chart grid: each slot an (nx, ny) array, entry
        [i, j] at (xs[i], ys[j]), i.e. in chart.points() order.  A NaN or
        infinite entry raises DomainError naming the first such grid point."""
        x, y = chart.mesh()
        with np.errstate(all="ignore"):
            j = self._jet(x, y)
        slots = [np.broadcast_to(np.asarray(getattr(j, s), dtype=float), x.shape)
                 for s in _SLOTS]
        bad = ~np.isfinite(slots[0])
        for s in slots[1:]:
            bad |= ~np.isfinite(s)
        if bad.any():
            raise DomainError("field takes a non-finite value (overflow or division "
                              "by zero)", point=chart.first_point(bad))
        return Jet2(*slots)

    # constructors -----------------------------------------------------------
    @classmethod
    def from_expr(cls, e: Expr) -> "ScalarField":
        return cls(lambda x, y: eval_jet(e, x, y))

    @classmethod
    def constant(cls, c: float) -> "ScalarField":
        jet = Jet2(float(c))
        return cls(lambda x, y: jet)

    @classmethod
    def coordinate(cls, name: str) -> "ScalarField":
        if name == "x":
            return cls(lambda x, y: Jet2(x, 1.0, 0.0))
        if name == "y":
            return cls(lambda x, y: Jet2(y, 0.0, 1.0))
        raise ValueError(name)

    # arithmetic ---------------------------------------------------------------
    def __add__(self, o):
        o = _as_field(o)
        return ScalarField(lambda x, y: self._jet(x, y) + o._jet(x, y))

    __radd__ = __add__

    def __sub__(self, o):
        o = _as_field(o)
        return ScalarField(lambda x, y: self._jet(x, y) - o._jet(x, y))

    def __rsub__(self, o):
        o = _as_field(o)
        return ScalarField(lambda x, y: o._jet(x, y) - self._jet(x, y))

    def __neg__(self):
        return ScalarField(lambda x, y: -self._jet(x, y))

    def __mul__(self, o):
        o = _as_field(o)
        return ScalarField(lambda x, y: self._jet(x, y) * o._jet(x, y))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _as_field(o)
        return ScalarField(lambda x, y: self._jet(x, y) / o._jet(x, y))

    def __rtruediv__(self, o):
        o = _as_field(o)
        return ScalarField(lambda x, y: o._jet(x, y) / self._jet(x, y))

    def __pow__(self, k):
        return ScalarField(lambda x, y: self._jet(x, y) ** k)

    def cached(self) -> "ScalarField":
        """Memoize jets by evaluation point (per-point sweeps revisit the same
        points many times once fields are built from composed maps).  Array
        input is evaluated at once, and its finite points join the memo."""
        memo: dict = {}
        inner = self._jet

        def jet(x, y):
            key = (x, y)
            try:
                j = memo.get(key)
            except TypeError:           # arrays are unhashable
                return _remember(memo, inner(x, y), x, y)
            if j is None:
                j = memo[key] = inner(x, y)
            return j

        return ScalarField(jet)

    # composition ----------------------------------------------------------------
    def compose_linear(self, m: np.ndarray, shift=(0.0, 0.0)) -> "ScalarField":
        """Field in new coordinates (u, v) with (x_old, y_old) = m @ (u, v) + shift."""
        m11, m12 = float(m[0][0]), float(m[0][1])
        m21, m22 = float(m[1][0]), float(m[1][1])
        sx, sy = shift

        def jet(u, v):
            f = self._jet(m11 * u + m12 * v + sx, m21 * u + m22 * v + sy)
            return Jet2(
                f.v,
                f.dx * m11 + f.dy * m21,
                f.dx * m12 + f.dy * m22,
                f.dxx * m11 * m11 + 2.0 * f.dxy * m11 * m21 + f.dyy * m21 * m21,
                f.dxx * m11 * m12 + f.dxy * (m11 * m22 + m12 * m21) + f.dyy * m21 * m22,
                f.dxx * m12 * m12 + 2.0 * f.dxy * m12 * m22 + f.dyy * m22 * m22,
            )

        return ScalarField(jet)

    def compose_separable(self, xmap: "Monotone1D", ymap: "Monotone1D") -> "ScalarField":
        """Field of the new coordinates (u, v) = (xmap(x), ymap(y))."""

        def jet(u, v):
            t = xmap.inverse(u)
            s = ymap.inverse(v)
            _, xd1, xd2, _ = xmap.fjet(t)
            _, yd1, yd2, _ = ymap.fjet(s)
            wx = 1.0 / xd1           # dt/du
            wy = 1.0 / yd1
            wxx = -xd2 * wx * wx * wx
            wyy = -yd2 * wy * wy * wy
            f = self._jet(t, s)
            return Jet2(
                f.v,
                f.dx * wx,
                f.dy * wy,
                f.dxx * wx * wx + f.dx * wxx,
                f.dxy * wx * wy,
                f.dyy * wy * wy + f.dy * wyy,
            )

        return ScalarField(jet)


def _as_field(o):
    if isinstance(o, ScalarField):
        return o
    return ScalarField.constant(float(o))


def _remember(memo: dict, j: Jet2, x, y) -> Jet2:
    """Store the finite points of an array jet in a per-point memo."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    cols = [np.broadcast_to(getattr(j, s), shape).ravel() for s in _SLOTS]
    finite = np.isfinite(cols[0])
    for c in cols[1:]:
        finite &= np.isfinite(c)
    keys = zip(np.broadcast_to(x, shape).ravel().tolist(),
               np.broadcast_to(y, shape).ravel().tolist())
    for key, ok, *slots in zip(keys, finite.tolist(), *(c.tolist() for c in cols)):
        if ok:
            memo.setdefault(key, Jet2(*slots))
    return j


# --- monotone 1D coordinate maps -----------------------------------------------


class Monotone1D:
    """Strictly increasing map t -> value on [tmin, tmax]."""

    def __init__(self, tmin: float, tmax: float):
        if not tmax > tmin:
            raise NonMonotone(f"degenerate range [{tmin}, {tmax}]")
        self.tmin = float(tmin)
        self.tmax = float(tmax)
        self._inv_memo: dict = {}

    def fjet(self, t: float) -> tuple[float, float, float, float]:
        """(value, first, second, third derivative) at t."""
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.fjet(t)[0]

    @property
    def range(self) -> tuple[float, float]:
        return (self(self.tmin), self(self.tmax))

    def inverse(self, u, xtol: float = 1e-13):
        """t with self(t) = u; arrays are inverted point by point."""
        if isinstance(u, np.ndarray):
            return np.reshape([self.inverse(v, xtol) for v in u.ravel().tolist()], u.shape)
        t = self._inv_memo.get(u)
        if t is None:
            t = self._inv_memo[u] = self._invert(u, xtol)
        return t

    def _invert(self, u: float, xtol: float) -> float:
        lo, hi = self.tmin, self.tmax
        flo, fhi = self(lo) - u, self(hi) - u
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo > 0.0 or fhi < 0.0:
            # tolerate round-off at the endpoints
            if abs(flo) < 1e-9 * (abs(u) + 1.0):
                return lo
            if abs(fhi) < 1e-9 * (abs(u) + 1.0):
                return hi
            raise NonMonotone(f"value {u!r} outside the map range {self.range}")
        return brentq(lambda t: self(t) - u, lo, hi, xtol=xtol)

    def validate_monotone(self, samples: int = 65):
        for t in np.linspace(self.tmin, self.tmax, samples):
            d = self.fjet(float(t))[1]
            if not d > 0.0:
                raise NonMonotone(f"derivative {d:.3e} <= 0 at t = {t:.6g}")

    def inverted(self) -> "Monotone1D":
        return _InverseMap(self)


class ExprMap(Monotone1D):
    """Map given by an expression in a single variable."""

    def __init__(self, e: Expr, var: str, tmin: float, tmax: float):
        super().__init__(tmin, tmax)
        self.expr = e
        self.var = var
        self._d3 = diff(diff(diff(e, var), var), var)
        self.validate_monotone()

    def __call__(self, t):
        # value-only path: root finding in inverse() hits this in a loop
        j = eval_jet(self.expr, t, 0.0) if self.var == "x" else eval_jet(self.expr, 0.0, t)
        return j.v

    def fjet(self, t):
        if self.var == "x":
            j = eval_jet(self.expr, t, 0.0)
            d3 = eval_jet(self._d3, t, 0.0).v
            return (j.v, j.dx, j.dxx, d3)
        j = eval_jet(self.expr, 0.0, t)
        d3 = eval_jet(self._d3, 0.0, t).v
        return (j.v, j.dy, j.dyy, d3)


class LinearMap(Monotone1D):
    def __init__(self, scale: float, offset: float, tmin: float, tmax: float):
        super().__init__(tmin, tmax)
        if not scale > 0.0:
            raise NonMonotone(f"linear map scale {scale} <= 0")
        self.scale = float(scale)
        self.offset = float(offset)

    def fjet(self, t):
        return (self.scale * t + self.offset, self.scale, 0.0, 0.0)

    def inverse(self, u, xtol=1e-13):
        return (u - self.offset) / self.scale


class IdentityMap(LinearMap):
    def __init__(self, tmin: float, tmax: float):
        super().__init__(1.0, 0.0, tmin, tmax)


class QuadratureMap(Monotone1D):
    """Map defined by its derivative: value(t) = integral of deriv from t0.

    deriv_jet(t) must return (d, d', d'') of the derivative function, for a
    float or an array t; values come from the exact antiderivative of a dense
    cubic-spline fit of the derivative, which keeps positional error far
    below the 1e-6 tolerances downstream.
    """

    def __init__(self, deriv_jet, t0: float, tmin: float, tmax: float, samples: int = 513):
        super().__init__(tmin, tmax)
        self.t0 = float(t0)
        self._deriv_jet = deriv_jet
        from scipy.interpolate import CubicSpline

        ts = np.linspace(tmin, tmax, samples)
        ds = np.array([deriv_jet(float(t))[0] for t in ts])
        if not np.all(ds > 0.0):
            raise NonMonotone("quadrature map derivative is not positive")
        spline = CubicSpline(ts, ds)
        self._anti = spline.antiderivative()
        self._base = float(self._anti(self.t0))
        self.validate_monotone()

    def __call__(self, t):
        value = self._anti(t) - self._base
        return value if isinstance(t, np.ndarray) else float(value)

    def fjet(self, t):
        d0, d1, d2 = self._deriv_jet(t)
        return (self(t), d0, d1, d2)


class _InverseMap(Monotone1D):
    def __init__(self, fwd: Monotone1D):
        lo, hi = fwd.range
        super().__init__(lo, hi)
        self._fwd = fwd

    def fjet(self, u):
        t = self._fwd.inverse(u)
        _, d1, d2, d3 = self._fwd.fjet(t)
        w1 = 1.0 / d1
        w2 = -d2 * w1 ** 3
        w3 = (3.0 * d2 * d2 - d1 * d3) * w1 ** 5
        return (t, w1, w2, w3)

    def inverse(self, t, xtol=1e-13):
        return self._fwd(t)


def map_derivative_field(m: Monotone1D, axis: str) -> ScalarField:
    """phi'(t_old) as a scalar field of the NEW coordinates.

    axis 'x': value at (u, v) is phi'(phi^{-1}(u)); similarly for 'y'.
    """

    def jet(u, v):
        t = m.inverse(u if axis == "x" else v)
        _, d1, d2, d3 = m.fjet(t)
        w = 1.0 / d1                       # dt/dnew
        g1 = d2 * w                        # d(phi')/dnew
        g2 = (d3 * d1 - d2 * d2) * w ** 3  # d2(phi')/dnew2
        if axis == "x":
            return Jet2(d1, g1, 0.0, g2, 0.0, 0.0)
        return Jet2(d1, 0.0, g1, 0.0, 0.0, g2)

    return ScalarField(jet)
