"""Scalar fields evaluable to order-2 jets, and monotone coordinate maps.

A ScalarField wraps a function (x, y) -> Jet2, records an operation + - * /
on other fields, or reads another field through a coordinate change
(compose_linear, compose_separable), so that derived coefficients
(inverse-metric entries, pulled-back integrals, ...) keep exact derivatives.
It carries the field as an expression too, which arithmetic extends node by
node and in which a field known only by its function, or a composed one, is
an opaque Leaf; Metric2 compiles the expressions of its entries into one
kernel for its pointwise reads.

Every read names its points by a key: the chart whose grid they are, a
composition's point set, or None for a read off the grid that nothing
names.  A field keeps its last grid sweep, and an arithmetic field's sweep
applies its operation to the sweeps its operands keep rather than
evaluating them again.  A composed field reads its inner field under the
key of the points it reads there: the maps' kept inversions for a separable
change, the matrix and its caller's key for a linear one.  Of the fields in
between, one read by two or more arithmetic fields keeps its last result
under a chart beside its sweep, and its last result under a point set in a
slot of its own, so that it is evaluated once per chart and once per point
set; one with a single reader keeps nothing.  Keys hold arrays, numbers and
bytes only, so what fields keep forms no reference cycle.

Monotone1D maps model the separable coordinate changes x_new = phi(x_old),
y_new = psi(y_old): they expose forward jets up to third order (third order
is what the second-order jets of a composed field need) and a numerically
inverted evaluation, by bracketed Newton steps on the value and slope the
map gives from one call.  A map is immutable, so each keeps its last
_SOLVED_INPUTS inversions, and beside each the forward jets there once they
are asked for: composed fields invert the same maps on the same inputs many
times over, and each such input is solved, and its jets walked, once.

QuinticHermite interpolates a function of one variable from its exact
order-2 jets at knots; QuadratureMap integrates it, and the case-1 solver
reads the Liouville functions through it.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidArgument, NonMonotone
from .codegen import jet_function
from .codegen import eval_jet  # noqa: F401  (bench/tracer.py counts calls of fields.eval_jet)
from .expr import BinOp, Expr, Jet2, Leaf, Neg, Num, Var, diff

_SLOTS = ("v", "dx", "dy", "dxx", "dxy", "dyy")
_XTOL = 1e-13                       # converged root finder step: absolute part
_RTOL = 4.0 * np.finfo(float).eps   # and relative part, as in scipy's brentq
_MAX_STEPS = 100
_MONOTONE_SAMPLES = 65              # derivative samples of validate_monotone
_QUADRATURE_SAMPLES = _MONOTONE_SAMPLES   # Hermite knots of a QuadratureMap: the same samples
_SOLVED_INPUTS = 4                  # inversions each map keeps, least recently used out first


def _input_key(u):
    """The key of an input among a map's kept inversions: its type, dtype,
    shape and bytes, so that equal values of one kind share an entry."""
    a = np.asarray(u)
    return (type(u), a.dtype.str, a.shape, a.tobytes())


def _where(cond, x, y):
    """np.where for an array condition, plain selection for a bool (so that a
    float solve stays on floats)."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _read_only(a, chart):
    """A jet slot as a read-only float array of the chart's grid shape: a
    view of it where it is one already, chart.zeros for the number +0.0, else
    broadcast (a constant slot may be a number; -0.0 keeps its sign)."""
    shape = chart.zeros.shape
    if isinstance(a, np.ndarray):
        if a.shape == shape and a.dtype == float:
            a = a.view()
            a.flags.writeable = False
            return a
    elif a == 0.0 and math.copysign(1.0, a) > 0.0:
        return chart.zeros
    return np.broadcast_to(np.asarray(a, dtype=float), shape)


def brentq(g, a: float, b: float, ga, gb):
    """A root in [a, b] of an increasing function, given ga and gb, its
    values at a and b, as floats or as arrays of one shape (then g acts
    elementwise and the roots are an array): a where ga >= 0, b where
    gb <= 0.  g(t) returns the value and the slope at t, from one call.

    Bracketed Newton, from the secant point of [a, b].  Each entry keeps
    the bracket its evaluations narrow; a Newton step that leaves it (or a
    slope that is not positive) gives way to the bracket's midpoint.  An
    entry is frozen once a step moves it by at most _XTOL + _RTOL |t|, so
    its iterates do not depend on the other entries: an array solve equals
    the solves of its entries one by one, bit for bit, wherever g gives the
    same values for arrays as for floats.  The name is that of scipy's root
    finder, which an earlier version replaced, because bench/tracer.py
    counts root finds by wrapping fields.brentq."""
    active = (ga < 0.0) & (gb > 0.0)
    lo, hi, t = a, b, _where(ga >= 0.0, a, b)
    if not np.count_nonzero(active):
        return t
    # a step far past the bracket, or the discarded arithmetic of entries
    # that are not active, may overflow or divide by zero
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = _where(active, a - ga * (b - a) / (gb - ga), t)
        for _ in range(_MAX_STEPS):
            if not np.count_nonzero(active):
                return t
            gt, dt = g(t)
            lo = _where(gt < 0.0, t, lo)
            hi = _where(gt > 0.0, t, hi)
            step = t - gt / _where(dt > 0.0, dt, np.nan)
            # closed: a converged step may round onto an end of the bracket
            step = _where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
            moving = active & (gt != 0.0)
            active = moving & (abs(step - t) > _XTOL + _RTOL * abs(step))
            t = _where(moving, step, t)
    raise NonMonotone("map inversion did not converge")


class ScalarField:
    """A real scalar field of (x, y) with exact order-2 jets.

    The wrapped function takes floats or NumPy arrays of coordinates; every
    constructor below keeps that, so a field can be evaluated point by point
    (jet, __call__) or over a whole chart at once (on).  `expr` is the same
    field as an expression; without one given it is a Leaf calling the
    function.  A field made by + - * / has no function: it records its
    operation and operands, and every read applies that operation (_at).
    A composed field has none either: every read pulls its inner field
    through the coordinate change (_pull)."""

    __slots__ = ("_jet", "expr", "_swept", "_keyed", "_op", "_pull", "_readers",
                 "__weakref__")

    def __init__(self, jet_fn, expr: Expr | None = None):
        self._jet = jet_fn
        self.expr = Leaf(jet_fn) if expr is None else expr
        # (chart, checked Jet2 or None, _at's Jet2) of the last sweep; the
        # checked jet is None until on() is called on that chart
        self._swept = None
        self._keyed = None          # (point-set key, _at's Jet2) of the last keyed read
        self._op = None             # (Jet2 operation, operands) of an arithmetic field
        self._pull = None           # (x, y, key) -> Jet2 of a composed field
        self._readers = 0           # arithmetic fields made with this one as an operand

    def jet(self, x: float, y: float) -> Jet2:
        return self._at(x, y, None)

    def __call__(self, x: float, y: float) -> float:
        return self._at(x, y, None).v

    def on(self, chart) -> Jet2:
        """The jet over the chart grid: each slot a read-only (nx, ny) array,
        entry [i, j] at (xs[i], ys[j]), i.e. in chart.points() order.  A NaN
        or infinite entry raises DomainError naming the first such grid point.

        A field is immutable, so it keeps its last sweep and answers a sweep
        on an equal chart with it: each field is evaluated once per chart,
        however many steps read it.  A sweep that raises keeps nothing."""
        kept = self._swept
        if kept is not None and kept[1] is not None and (kept[0] is chart or kept[0] == chart):
            return kept[1]
        with np.errstate(all="ignore"):
            j = self._at(*chart.mesh, chart)
            slots = [_read_only(getattr(j, s), chart) for s in _SLOTS]
            # a sum of finite slots is finite unless it overflows: only then,
            # or where a slot is not finite, is the exact mask needed
            total = slots[0] + slots[1] + slots[2] + slots[3] + slots[4] + slots[5]
        if not np.isfinite(total).all():
            bad = ~np.isfinite(slots[0])
            for s in slots[1:]:
                bad |= ~np.isfinite(s)
            if bad.any():
                self._swept = kept
                raise DomainError("field takes a non-finite value (overflow or division "
                                  "by zero)", point=chart.first_point(bad))
        jets = Jet2(*slots)
        self._swept = (chart, jets, j)
        return jets

    def _at(self, x, y, key) -> Jet2:
        """The jet at (x, y), unchecked.  `key` says what these points are:
        the chart whose mesh (x, y) is, a _PointSet under a composition, or
        None for a read off the grid that nothing names.  A result kept under
        an equal key answers with the jet that read returned; else an
        arithmetic field applies its operation to its operands' _at, a
        composed field reads its inner field (_pull) and any other field
        calls its function.  So every route applies the same operations to
        the same values, and raises or turns non-finite at the same points.
        Under a key, a field with two or more readers keeps what it returns,
        a chart's read beside its sweep and a point set's in a slot of its
        own, so that each reader reads one evaluation."""
        if key is not None:
            kept = self._keyed if type(key) is _PointSet else self._swept
            if kept is not None and (kept[0] is key or kept[0] == key):
                return kept[-1]
        if self._op is not None:
            op, operands = self._op
            j = op(*[o._at(x, y, key) for o in operands])
        elif self._pull is not None:
            j = self._pull(x, y, key)
        else:
            j = self._jet(x, y)
        if key is not None and self._readers >= 2:
            if type(key) is _PointSet:
                self._keyed = (key, j)
            else:
                self._swept = (key, None, j)
        return j

    # constructors -----------------------------------------------------------
    @classmethod
    def from_expr(cls, e: Expr) -> "ScalarField":
        return cls(jet_function(e), e)

    @classmethod
    def constant(cls, c: float) -> "ScalarField":
        jet = Jet2(float(c))
        return cls(lambda x, y: jet, Num(float(c)))

    @classmethod
    def coordinate(cls, name: str) -> "ScalarField":
        if name == "x":
            return cls(lambda x, y: Jet2(x, 1.0, 0.0), Var("x"))
        if name == "y":
            return cls(lambda x, y: Jet2(y, 0.0, 1.0), Var("y"))
        raise ValueError(name)

    # arithmetic: one record for every read and the expression ------------------
    def __add__(self, o):
        return _arithmetic("+", self, _as_field(o))

    __radd__ = __add__

    def __sub__(self, o):
        return _arithmetic("-", self, _as_field(o))

    def __rsub__(self, o):
        return _arithmetic("-", _as_field(o), self)

    def __neg__(self):
        return _arithmetic("-", self)

    def __mul__(self, o):
        return _arithmetic("*", self, _as_field(o))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _arithmetic("/", self, _as_field(o))

    def __rtruediv__(self, o):
        return _arithmetic("/", _as_field(o), self)

    # composition ----------------------------------------------------------------
    def compose_linear(self, m: np.ndarray) -> "ScalarField":
        """Field in new coordinates (u, v) with (x_old, y_old) = m @ (u, v).
        Under a key, it reads this field under the key (m's bytes, that key),
        so that fields composed with one m share the reads of the fields
        below; under None, under the key of the points it computes."""
        m11, m12 = float(m[0][0]), float(m[0][1])
        m21, m22 = float(m[1][0]), float(m[1][1])
        mbytes = np.array([m11, m12, m21, m22]).tobytes()

        def pull(u, v, key):
            x, y = m11 * u + m12 * v, m21 * u + m22 * v
            f = self._at(x, y, _PointSet(x, y) if key is None else _PointSet(mbytes, key))
            return Jet2(
                f.v,
                f.dx * m11 + f.dy * m21,
                f.dx * m12 + f.dy * m22,
                f.dxx * m11 * m11 + 2.0 * f.dxy * m11 * m21 + f.dyy * m21 * m21,
                f.dxx * m11 * m12 + f.dxy * (m11 * m22 + m12 * m21) + f.dyy * m21 * m22,
                f.dxx * m12 * m12 + 2.0 * f.dxy * m12 * m22 + f.dyy * m22 * m22,
            )

        return _composed(pull)

    def compose_separable(self, xmap: "Monotone1D", ymap: "Monotone1D",
                          kx: int, ky: int) -> "ScalarField":
        """The field in the new coordinates (u, v) = (xmap(x), ymap(y)) times
        xmap'(x)^kx ymap'(y)^ky: the transformation law of a coefficient of
        those weights.  Each evaluation inverts each map once, with its
        forward jets there; fields composed with the same maps share both
        through the inputs each map keeps (Monotone1D.inverse_jets), and read
        this field under the key of those kept inversions, so that they share
        the reads of the fields below too."""

        def pull(u, v, key):
            t, xd1, xd2, xd3 = xmap.inverse_jets(u)
            s, yd1, yd2, yd3 = ymap.inverse_jets(v)
            wx = 1.0 / xd1           # dt/du
            wy = 1.0 / yd1
            wxx = -xd2 * wx * wx * wx
            wyy = -yd2 * wy * wy * wy
            f = self._at(t, s, _PointSet(t, s))
            composed = Jet2(
                f.v,
                f.dx * wx,
                f.dy * wy,
                f.dxx * wx * wx + f.dx * wxx,
                f.dxy * wx * wy,
                f.dyy * wy * wy + f.dy * wyy,
            )
            # xmap' and ymap' as fields of (u, v); products, not **, so that
            # floats and arrays round alike
            dphi = Jet2(xd1, xd2 * wx, 0.0, (xd3 * xd1 - xd2 * xd2) * wx * wx * wx, 0.0, 0.0)
            dpsi = Jet2(yd1, 0.0, yd2 * wy, 0.0, 0.0, (yd3 * yd1 - yd2 * yd2) * wy * wy * wy)
            for d, k in ((dphi, kx), (dpsi, ky)):
                for _ in range(abs(k)):
                    composed = composed * d if k > 0 else composed / d
            return composed

        return _composed(pull)


class _PointSet:
    """The key of the points a composition reads its inner field at.  Either
    the coordinates themselves, compared by identity: the maps' kept
    inversions (t, s), which are read-only and one object for every field
    composed with those maps, or the points a linear change computes for a
    read that no key names.  Or a linear change's matrix bytes and its
    caller's key, compared by equality.  A key holds only arrays, numbers,
    bytes and other keys, never a field or a map, so the results kept under
    it form no reference cycle."""

    __slots__ = ("a", "b")
    __hash__ = None

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __eq__(self, other):
        if type(other) is not _PointSet:
            return NotImplemented
        a, b = self.a, other.a
        if type(a) is bytes:
            return type(b) is bytes and a == b and (self.b is other.b or self.b == other.b)
        return a is b and self.b is other.b


def _composed(pull) -> ScalarField:
    """The field that pull(x, y, key) reads, with an opaque Leaf as its
    expression."""
    field = ScalarField(None, Leaf(lambda x, y: pull(x, y, None)))
    field._pull = pull
    return field


def _as_field(o):
    if isinstance(o, ScalarField):
        return o
    return ScalarField.constant(float(o))


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _arithmetic(symbol: str, *operands: ScalarField) -> ScalarField:
    """The field symbol(*operands), with '-' of one operand its negation: no
    function, the record (Jet2 operation, operands) and the expression.  Each
    operand counts the new field among its readers."""
    if len(operands) == 1:
        op, expr = operator.neg, Neg(operands[0].expr)
    else:
        op, expr = _BINARY[symbol], BinOp(symbol, operands[0].expr, operands[1].expr)
    field = ScalarField(None, expr)
    field._op = (op, operands)
    for o in operands:
        o._readers += 1
    return field


# --- monotone 1D coordinate maps -----------------------------------------------


class Monotone1D:
    """Strictly increasing map t -> value on [tmin, tmax]."""

    def __init__(self, tmin: float, tmax: float):
        if not tmax > tmin:
            raise NonMonotone(f"degenerate range [{tmin}, {tmax}]")
        self.tmin = float(tmin)
        self.tmax = float(tmax)
        # inverse's recent inputs -> [result] or [result, *forward jets there],
        # oldest first
        self._solved = {}

    def fjet(self, t: float) -> tuple[float, float, float, float]:
        """(value, first, second, third derivative) at t."""
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.fjet(t)[0]

    def _value_slope(self, t):
        """(value, first derivative) at t: what the root finder reads."""
        return self.fjet(t)[:2]

    @cached_property
    def range(self) -> tuple[float, float]:
        return (self(self.tmin), self(self.tmax))

    def inverse(self, u):
        """t with self(t) = u, for a float or elementwise for an array.  A
        value within round-off (1e-9 relative) of an end of the range gives
        that end; one further outside raises NonMonotone.

        The last _SOLVED_INPUTS inputs solved are kept (see _input_key) and
        answered with the stored result: the root finder is deterministic,
        so that is the fresh solve bit for bit.  Arrays come back read-only,
        since later calls share them."""
        key = _input_key(u)
        entry = self._solved.pop(key, None)
        if entry is None:
            t = self._solve(u)
            if isinstance(t, np.ndarray):
                t.flags.writeable = False
            entry = [t]
            if len(self._solved) >= _SOLVED_INPUTS:
                del self._solved[next(iter(self._solved))]
        self._solved[key] = entry
        return entry[0]

    def _solve(self, u):
        """inverse(u), solved by the root finder."""
        vlo, vhi = self.range
        glo, ghi = vlo - u, vhi - u
        slack = 1e-9 * (abs(u) + 1.0)
        ok = (glo < slack) & (ghi > -slack)
        if np.count_nonzero(ok) < np.size(ok):
            value = float(np.asarray(u)[np.logical_not(ok)].flat[0])
            raise NonMonotone(f"value {value!r} outside the map range {self.range}")

        def g(t):
            v, d = self._value_slope(t)
            return v - u, d

        return brentq(g, self.tmin, self.tmax, glo, ghi)

    def inverse_jets(self, u):
        """(t, first, second, third derivative at t) for t = inverse(u): the
        inversion with the forward jets there.  A kept inversion keeps its
        jets beside it from their first request on (read-only, like t), so
        that inverse alone walks no jets."""
        t = self.inverse(u)
        entry = self._solved.get(_input_key(u))
        if entry is None:           # an inverted map reads its forward map, keeping none
            return (t, *self.fjet(t)[1:])
        if len(entry) == 1:
            jets = self.fjet(t)[1:]
            for j in jets:
                if isinstance(j, np.ndarray):
                    j.flags.writeable = False
            entry.extend(jets)
        return tuple(entry)

    def validate_monotone(self):
        ts = np.linspace(self.tmin, self.tmax, _MONOTONE_SAMPLES)
        d = np.broadcast_to(self._value_slope(ts)[1], ts.shape)
        bad = ~(d > 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonMonotone(f"derivative {d[i]:.3e} <= 0 at t = {ts[i]:.6g}")

    def inverted(self) -> "Monotone1D":
        return _InverseMap(self)


class ExprMap(Monotone1D):
    """Map given by an expression in a single variable.  Its values, the
    slopes the root finder reads with them, and its jets come from two
    compiled jet functions: those of the expression and of its third
    derivative, or one where the third derivative is a constant, which is
    kept as its float.  Both run array code only: a float is evaluated as a
    one-entry array, so that floats and arrays get the same bits from one
    compiled function each."""

    def __init__(self, e: Expr, var: str, tmin: float, tmax: float):
        super().__init__(tmin, tmax)
        self.expr = e
        self.var = var
        self._jet = jet_function(e)
        d3 = diff(diff(diff(e, var), var), var)
        self._d3 = float(d3.value) if type(d3) is Num else jet_function(d3)
        self._slots = ("dx", "dxx") if var == "x" else ("dy", "dyy")
        self.validate_monotone()

    def _along(self, f, t):
        """The value and the first and second derivative along the map's
        variable of f's jet at t; at a float, as floats from a one-entry
        array."""
        scalar = not isinstance(t, np.ndarray)
        a = np.array([t], dtype=float) if scalar else t
        j = f(a, 0.0) if self.var == "x" else f(0.0, a)
        slots = (j.v, getattr(j, self._slots[0]), getattr(j, self._slots[1]))
        if not scalar:
            return slots
        # a slot known to be constant may be a number
        return tuple(s.item() if isinstance(s, np.ndarray) else float(s) for s in slots)

    def __call__(self, t):
        return self._along(self._jet, t)[0]

    def _value_slope(self, t):
        return self._along(self._jet, t)[:2]

    def fjet(self, t):
        d3 = self._d3 if type(self._d3) is float else self._along(self._d3, t)[0]
        return (*self._along(self._jet, t), d3)


class IdentityMap(Monotone1D):
    """t -> t on [tmin, tmax].  Its value is t + 0.0, so -0.0 maps to 0.0,
    and its inverse u - 0.0 keeps -0.0.  It keeps its inversions like any
    map, so that fields composed with it read one kept array per input."""

    def fjet(self, t):
        return (t + 0.0, 1.0, 0.0, 0.0)

    def _solve(self, u):
        return u - 0.0


class QuinticHermite:
    """The piecewise quintic through values d, first derivatives d1 and
    second derivatives d2 at increasing knots ts: twice continuously
    differentiable, and equal to any function that is a quintic on each knot
    interval.  Evaluates at a float or elementwise at an array, beyond the
    knots by the end pieces.  A float goes through the same NumPy operations
    as a one-entry array, so that floats and arrays agree bit for bit."""

    def __init__(self, ts, d, d1, d2):
        ts = np.asarray(ts, dtype=float)
        d, d1, d2 = (np.broadcast_to(np.asarray(j, dtype=float), ts.shape) for j in (d, d1, d2))
        h = np.diff(ts)
        # the piece on [t_i, t_i + h] as a polynomial in s = (t - t_i) / h
        y0, y1 = d[:-1], d[1:]
        v0, v1 = h * d1[:-1], h * d1[1:]
        a0, a1 = h * h * d2[:-1], h * h * d2[1:]
        dy = y1 - y0
        c = [y0, v0, 0.5 * a0,
             10.0 * dy - 6.0 * v0 - 4.0 * v1 - 1.5 * a0 + 0.5 * a1,
             -15.0 * dy + 8.0 * v0 + 7.0 * v1 + 1.5 * a0 - a1,
             6.0 * dy - 3.0 * v0 - 3.0 * v1 - 0.5 * a0 + 0.5 * a1]
        # each piece's integral, exact for the quintic, summed from ts[0]
        area = (0.5 * h * (y0 + y1) + h * h / 10.0 * (d1[:-1] - d1[1:])
                + h * h * h / 120.0 * (d2[:-1] + d2[1:]))
        start = np.concatenate(([0.0], np.cumsum(area)[:-1]))
        self._ts, self._h = ts, h
        # Horner coefficients per piece (one row each), lowest power first
        self._value = np.stack(c, axis=1)
        self._slope = np.stack([k * c[k] / h for k in range(1, 6)], axis=1)
        self._area = np.stack([start] + [h * c[k] / (k + 1) for k in range(6)], axis=1)

    def _horner(self, table, t):
        a = np.asarray(t, dtype=float)
        flat = a.reshape(-1)
        # the piece of each entry; the end pieces extend beyond the knots
        i = np.searchsorted(self._ts[1:-1], flat, side="right")
        s = (flat - self._ts[i]) / self._h[i]
        rows = table[i]
        r = rows[:, -1] * s
        for k in range(table.shape[1] - 2, 0, -1):
            r += rows[:, k]
            r *= s
        r += rows[:, 0]
        return r.reshape(a.shape) if isinstance(t, np.ndarray) else float(r[0])

    def __call__(self, t):
        return self._horner(self._value, t)

    def derivative(self, t):
        return self._horner(self._slope, t)

    def antiderivative(self, t):
        """The integral from the first knot to t."""
        return self._horner(self._area, t)


class QuadratureMap(Monotone1D):
    """Map defined by its derivative: value(t) = integral of deriv from t0.

    deriv_jet(t) must return (d, d', d'') of the derivative function, for a
    float or an array t.  Values are the exact integral of the quintic
    Hermite interpolant of those jets at _QUADRATURE_SAMPLES knots, which
    keeps positional error far below the 1e-6 tolerances downstream; the
    derivative slots of fjet are deriv_jet's own.
    """

    def __init__(self, deriv_jet, t0: float, tmin: float, tmax: float):
        super().__init__(tmin, tmax)
        self.t0 = float(t0)
        self._deriv_jet = deriv_jet
        # the knots are validate_monotone's samples: checking them suffices
        ts = np.linspace(tmin, tmax, _QUADRATURE_SAMPLES)
        if not np.all(np.diff(ts) > 0.0):
            raise InvalidArgument(f"range [{tmin!r}, {tmax!r}] is too narrow for "
                                  f"{_QUADRATURE_SAMPLES} distinct quadrature knots")
        jets = deriv_jet(ts)
        if not all(np.isfinite(j).all() for j in jets):
            raise DomainError("quadrature map derivative is not finite")
        if not np.all(np.broadcast_to(jets[0], ts.shape) > 0.0):
            raise NonMonotone("quadrature map derivative is not positive")
        self._fit = QuinticHermite(ts, *jets)
        self._base = self._fit.antiderivative(self.t0)

    def __call__(self, t):
        return self._fit.antiderivative(t) - self._base

    def _value_slope(self, t):
        # the fit is the exact derivative of the values
        return self(t), self._fit(t)

    def fjet(self, t):
        d0, d1, d2 = self._deriv_jet(t)
        return (self(t), d0, d1, d2)


class _InverseMap(Monotone1D):
    def __init__(self, fwd: Monotone1D):
        lo, hi = fwd.range
        super().__init__(lo, hi)
        self._fwd = fwd

    def __call__(self, u):
        return self._fwd.inverse(u)

    def fjet(self, u):
        t, d1, d2, d3 = self._fwd.inverse_jets(u)
        w1 = 1.0 / d1
        # products, not **, so that floats and arrays round alike
        w2 = -d2 * (w1 * w1 * w1)
        w3 = (3.0 * d2 * d2 - d1 * d3) * (w1 * w1 * w1 * w1 * w1)
        return (t, w1, w2, w3)

    def inverse(self, t):
        return self._fwd(t)
