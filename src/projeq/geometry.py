"""Metrics on rectangular charts and the pointwise pair classification."""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidArgument, InvariantViolation, SingularMetric, check_tol
from .codegen import kernel_function
from .expr import Expr, Num, parse, render
from .fields import ScalarField

DEFAULT_CLASSIFY_TOL = 1e-8

# Grid sweeps hold a few dozen (nx, ny) arrays at once, and each field keeps
# its last keyed read (six arrays, 3 MB at 256 x 256) while it lives, so
# memory grows with the number of grid points.  At 256 x 256 a complex z^2
# generate, verify, classify, triviality and rectify run peaks at about 80 MB
# of RSS, and a Liouville rectification after an admissible change at about
# 114 MB (tools/field_evals.py).
MAX_GRID_POINTS = 65_536


@dataclass(frozen=True)
class Chart:
    """Rectangular coordinate domain with its sampling grid: the axes xs, ys,
    their (nx, ny) mesh in points() order and an (nx, ny) array of zeros,
    computed once and read-only (a sweep gives a slot that is the number
    +0.0 as zeros).  The ranges and the grid are pairs (tuples or lists,
    kept as tuples), the ranges' entries finite real numbers whose width
    hi - lo is finite too, and the grid's integers."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    grid: tuple[int, int] = (21, 21)
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    ys: np.ndarray = field(init=False, repr=False, compare=False)
    mesh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    zeros: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("x_range", "y_range", "grid"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)) or len(value) != 2:
                raise InvariantViolation(f"chart {name} must be a pair, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in self.grid):
            raise InvariantViolation(f"chart grid entries must be integers, got {self.grid!r}")
        if not all(isinstance(v, numbers.Real) and math.isfinite(v)
                   for v in (*self.x_range, *self.y_range)):
            raise InvariantViolation("chart ranges must be finite real numbers, got "
                                     f"{self.x_range!r} and {self.y_range!r}")
        if not (self.x_range[1] > self.x_range[0] and self.y_range[1] > self.y_range[0]):
            raise InvariantViolation("chart ranges must be non-degenerate")
        for name in ("x_range", "y_range"):
            lo, hi = getattr(self, name)
            # the grid steps are fractions of the width: an infinite one
            # makes NaN and infinite grid points
            if not math.isfinite(float(hi) - float(lo)):
                raise InvariantViolation(f"chart {name} width must be finite, got {(lo, hi)!r}")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise InvariantViolation("chart grid must be at least 2x2")
        if self.grid[0] * self.grid[1] > MAX_GRID_POINTS:
            raise InvariantViolation(
                f"chart grid {self.grid[0]}x{self.grid[1]} exceeds the maximum of "
                f"{MAX_GRID_POINTS} grid points")
        xs = np.linspace(self.x_range[0], self.x_range[1], self.grid[0])
        ys = np.linspace(self.y_range[0], self.y_range[1], self.grid[1])
        mesh = tuple(np.meshgrid(xs, ys, indexing="ij"))
        zeros = np.zeros_like(mesh[0])
        for a in (xs, ys, *mesh, zeros):
            a.flags.writeable = False
        for name, value in (("xs", xs), ("ys", ys), ("mesh", mesh), ("zeros", zeros)):
            object.__setattr__(self, name, value)

    def points(self):
        return itertools.product(self.xs.tolist(), self.ys.tolist())

    def point(self, index: int) -> tuple[float, float]:
        """The grid point at a flat index in points() order."""
        i, j = divmod(int(index), self.grid[1])
        return float(self.xs[i]), float(self.ys[j])

    def first_point(self, mask) -> tuple[float, float] | None:
        """The first grid point, in points() order, where the (nx, ny) mask
        holds; None when it holds nowhere.  A mask of another shape is
        broadcast to the grid; mask.argmax() is the first entry that holds,
        or 0 when none does."""
        if not (isinstance(mask, np.ndarray) and mask.shape == self.grid):
            mask = np.broadcast_to(mask, self.grid)
        i = int(mask.argmax())
        return self.point(i) if mask.flat[i] else None

    def contains(self, x: float, y: float, pad: float = 0.0) -> bool:
        return (self.x_range[0] - pad <= x <= self.x_range[1] + pad
                and self.y_range[0] - pad <= y <= self.y_range[1] + pad)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_range[0] + self.x_range[1]),
                0.5 * (self.y_range[0] + self.y_range[1]))


_SIGNATURES = (("+", "+"), ("-", "-"), ("+", "-"))


def determinant(a, b, c):
    """det g = a c - b^2 of the entries (g11, g12, g22) = (a, b, c), given as
    floats, arrays or ScalarFields, as for inverse()."""
    return a * c - b * b


def inverse(a, b, c, det):
    """(g^11, g^12, g^22) = (c, -b, a) / det g.  Where g11 and g22 are one
    object (the zero field of a null form), g^11 and g^22 are one quotient:
    the same operation, so the same bits, computed once."""
    i11 = c / det
    return i11, -b / det, i11 if a is c else a / det


_FLOAT_MAX = sys.float_info.max


def singular(a, b, c, det):
    """The one singular-metric test: |det g| negligible against the squared
    entries a^2 + 2 b^2 + c^2.  On floats max() does what np.maximum does,
    NaN included, without making arrays.  Where that sum overflows, the test
    is taken on the entries divided by the largest of them."""
    norm2 = a * a + 2.0 * b * b + c * c
    if isinstance(norm2, np.ndarray):
        sing = abs(det) < 1e-12 * np.maximum(norm2, 1e-300)
        over = norm2 == math.inf
        if over.any():
            a, b, c, det = (np.broadcast_to(v, over.shape)[over] for v in (a, b, c, det))
            sing[over] = _singular_rescaled(a, b, c, det, np.maximum(np.maximum(abs(a), abs(b)),
                                                                     abs(c)))
        return sing
    if norm2 == math.inf:
        return _singular_rescaled(a, b, c, det, max(abs(a), abs(b), abs(c)))
    return abs(det) < 1e-12 * max(norm2, 1e-300)


def _singular_rescaled(a, b, c, det, m):
    """singular() with every term divided by m^2, m the largest |entry|.  m
    is capped at the largest float, so an infinite entry is judged as it
    would be without the rescaling."""
    m = np.minimum(m, _FLOAT_MAX) if isinstance(m, np.ndarray) else min(m, _FLOAT_MAX)
    a, b, c = a / m, b / m, c / m
    return abs(det) / m / m < 1e-12 * (a * a + 2.0 * b * b + c * c)


def _signature_code(a, c, det):
    """Index into _SIGNATURES: 2 unless det g > 0, then 0 or 1 by the sign
    of the trace a + c."""
    return 2 - (det > 0.0) * (1 + (a + c > 0.0))


class Metric2:
    """Symmetric metric (g11, g12, g22) of scalar fields on a chart.

    Construction sweeps the entries over the chart's grid (ScalarField.on),
    keeps their read-only (nx, ny) values as `values` and det g as `det`,
    and checks that the metric is nowhere singular() nor changes signature.
    Off the grid there are two reads, entries_at (floats) and jets_at, each
    a kernel compiled from the entries' expressions on first use (see
    codegen.kernel_function); both raise SingularMetric where the metric is
    singular().  A metric is immutable, so each form derived from it
    (derived) is built once and kept with it.
    """

    def __init__(self, g11: ScalarField, g12: ScalarField, g22: ScalarField, chart: Chart):
        self.g11 = g11
        self.g12 = g12
        self.g22 = g22
        self.chart = chart
        self.values = (g11.on(chart).v, g12.on(chart).v, g22.on(chart).v)
        with np.errstate(over="ignore", invalid="ignore"):    # _validate judges overflows
            self.det = determinant(*self.values)
            self.signature = self._validate()
        self.det.flags.writeable = False
        self._derived = {}

    @classmethod
    def from_exprs(cls, g11: str, g12: str, g22: str, chart: Chart) -> "Metric2":
        """The metric of three expressions.  Where g11 and g22 are one number,
        bit for bit (as the "0" of a metric in null form), they are one
        field, so that g^11 and g^22 are one quotient (see inverse)."""
        e11, e22 = parse(g11), parse(g22)
        f11 = ScalarField.from_expr(e11)
        f22 = f11 if _same_number(e11, e22) else ScalarField.from_expr(e22)
        return cls(f11, ScalarField.from_expr(parse(g12)), f22, chart)

    def _validate(self):
        (a, b, c), det = self.values, self.det
        overflow = self.chart.first_point(~np.isfinite(det))
        if overflow is not None:
            raise DomainError("det g is not finite", point=overflow)
        sing = singular(a, b, c, det)
        sig = _signature_code(a, c, det)
        bad = sing | (sig != sig.flat[0])
        i = int(bad.argmax())
        if bad.flat[i]:
            x, y = self.chart.point(i)
            if sing.flat[i]:
                raise SingularMetric(x, y, float(det.flat[i]))
            raise InvariantViolation(
                f"metric signature changes across the chart "
                f"({_SIGNATURES[sig.flat[0]]} vs {_SIGNATURES[sig.flat[i]]})", (x, y))
        return _SIGNATURES[sig.flat[0]]

    # pointwise reads: each the compiled kernel itself, built on first use -------
    @cached_property
    def entries_at(self):
        """The function (x, y) -> (g11, g12, g22, det g) as floats; it raises
        SingularMetric where the metric is singular()."""
        return self._compile("value", 4)

    @cached_property
    def jets_at(self):
        """The function (x, y) -> the jets of g11, g12, g22, det g, g^11,
        g^12 and g^22; it raises SingularMetric where the metric is
        singular(), before inverting."""
        return self._compile("jet", 7)

    def _compile(self, kind: str, n: int):
        """The kernel of the first n of g11, g12, g22, det g and g^{-1}, the
        last two the metric's derived fields (see inverse_fields)."""
        a, b, c = self.g11, self.g12, self.g22
        det, inv = self.derived(_inverse_form)
        fields = (a, b, c, det, *inv)[:n]

        def where():
            return ", ".join(render(f.expr) for f in (a, b, c))

        return kernel_function(tuple(f.expr for f in fields), kind, where,
                               check=(4, singular, SingularMetric))

    def derived(self, make):
        """make(self), built on the first call with `make` and the same object
        on every later one (None included).  So every reader of a form derived
        from the metric (its inverse fields, its Hamiltonian, its null form)
        gets one object, and the sweeps its fields keep serve them all."""
        forms = self._derived
        if make not in forms:
            forms[make] = make(self)
        return forms[make]

    def inverse_fields(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        """(g^11, g^12, g^22) as fields, built once with det g (see derived):
        the Hamiltonian and both kernels read these fields."""
        return self.derived(_inverse_form)[1]

    def scaled(self, c: float) -> "Metric2":
        g11, g22 = diagonal_scaled(self.g11, self.g22, c)
        return Metric2(g11, self.g12 * c, g22, self.chart)


def _same_number(a: Expr, b: Expr) -> bool:
    """a and b are literal numbers with the same bits: 0 and -0.0 differ."""
    return (type(a) is Num and type(b) is Num and a.value == b.value
            and math.copysign(1.0, a.value) == math.copysign(1.0, b.value))


def diagonal_scaled(a, c, k):
    """(a k, c k), one product where a and c are one field (as in a null
    form, and in inverse() of one), so that both entries share its sweep."""
    ak = a * k
    return ak, ak if c is a else c * k


def _inverse_form(g: Metric2):
    """(det g, (g^11, g^12, g^22)) as fields."""
    a, b, c = g.g11, g.g12, g.g22
    det = determinant(a, b, c)
    return det, inverse(a, b, c, det)


def metric_at(g: Metric2, x: float, y: float):
    """(2x2 matrix, det, signature) at a point; raises SingularMetric where
    the metric is singular()."""
    a, b, c, det = g.entries_at(x, y)
    return np.array([[a, b], [b, c]]), det, _SIGNATURES[_signature_code(a, c, det)]


def christoffel_at(g: Metric2, x: float, y: float) -> np.ndarray:
    """Gamma[k][i][j] = 1/2 g^{kl} (d_i g_{lj} + d_j g_{li} - d_l g_{ij})
    as a (2, 2, 2) array, from the floats of _christoffel."""
    (g000, g001, g011), (g100, g101, g111) = _christoffel(g, x, y)
    return np.array([[[g000, g001], [g001, g011]], [[g100, g101], [g101, g111]]])


def _christoffel(g: Metric2, x: float, y: float):
    """The six distinct symbols ((Gamma^0_00, Gamma^0_01, Gamma^0_11),
    (Gamma^1_00, Gamma^1_01, Gamma^1_11)) at (x, y) as floats, written out
    for 2-D with the sums in index order (l = 0 first, from 0.0), so that
    each is bit for bit the sum over l."""
    a, b, c, det = g.jets_at(x, y)[:4]
    i11, i12, i22 = inverse(a.v, b.v, c.v, det.v)
    # (d_i g_{lj} + d_j g_{li} - d_l g_{ij}) for l = 0, 1, by (i, j)
    xx0, xx1 = a.dx + a.dx - a.dx, b.dx + b.dx - a.dy
    xy0, xy1 = b.dx + a.dy - b.dx, c.dx + b.dy - b.dy
    yy0, yy1 = b.dy + b.dy - c.dx, c.dy + c.dy - c.dy
    return ((0.5 * (0.0 + i11 * xx0 + i12 * xx1), 0.5 * (0.0 + i11 * xy0 + i12 * xy1),
             0.5 * (0.0 + i11 * yy0 + i12 * yy1)),
            (0.5 * (0.0 + i12 * xx0 + i22 * xx1), 0.5 * (0.0 + i12 * xy0 + i22 * xy1),
             0.5 * (0.0 + i12 * yy0 + i22 * yy1)))


def _pair_tensor(a, b, c, abar, bbar, cbar, det):
    """Entries (G11, G12, G21, G22) of G = g^{-1} gbar from the metric
    entries (floats or arrays), det = a c - b^2."""
    i11, i12, i22 = inverse(a, b, c, det)
    return (i11 * abar + i12 * bbar, i11 * bbar + i12 * cbar,
            i12 * abar + i22 * bbar, i12 * bbar + i22 * cbar)


@dataclass(frozen=True)
class Classification:
    """Pointwise eigenstructure of the pair tensor G.

    tag: real_distinct | complex_pair | jordan_block | proportional | ambiguous
    """

    tag: str
    tolerance: float
    eigenvalues: tuple[float, ...] = field(default_factory=tuple)


TAGS = ("proportional", "real_distinct", "complex_pair", "jordan_block", "ambiguous")


def _classify(g11, g12, g21, g22, tol: float):
    """Case codes (indices into TAGS) and eigen data (e0, e1) of 2x2
    matrices given entrywise, as floats or arrays.

    Proportional: G within tol * scale of a multiple of the identity (e0 its
    eigenvalue).  Otherwise the discriminant of the characteristic
    polynomial decides: real_distinct (eigenvalues e0 > e1), complex_pair
    (real part e0, imaginary part e1), jordan_block (double eigenvalue e0),
    and 'ambiguous' for points too close to a case boundary."""
    scale = np.sqrt(g11 * g11 + g12 * g12 + g21 * g21 + g22 * g22)
    half = 0.5 * (g11 + g22)
    bound = tol * scale
    # deviation from a scalar multiple of the identity
    nil = np.sqrt((g11 - half) ** 2 + g12 * g12 + g21 * g21 + (g22 - half) ** 2)
    # numerically stable discriminant of the characteristic polynomial
    disc = (g11 - g22) ** 2 + 4.0 * g12 * g21
    root = np.sqrt(np.abs(disc))
    # the first condition that holds gives the code
    code = np.where((scale == 0.0) | (nil <= bound), 0,
                    np.where((disc > 0.0) & (root > bound), 1,
                             np.where((disc < 0.0) & (0.5 * root > bound), 2,
                                      np.where(root <= bound, 3, 4))))
    e0 = np.where(code == 1, half + 0.5 * root, np.where(scale == 0.0, 0.0, half))
    e1 = np.where(code == 1, half - 0.5 * root, 0.5 * root)
    return code, e0, e1


def _classification(code: int, e0: float, e1: float, tol: float) -> Classification:
    return Classification(TAGS[code], tol, (e0, e1) if code in (1, 2) else (e0,))


def classify_at(G, tol: float = DEFAULT_CLASSIFY_TOL) -> Classification:
    """Classify a 2x2 matrix by its eigenstructure, with scale-relative
    tolerances.  Points too close to a case boundary come back 'ambiguous'.
    A G that is not a 2x2 matrix of finite numbers raises InvalidArgument,
    naming its shape or its first entry that is not finite."""
    check_tol(tol)
    try:
        G = np.asarray(G, dtype=float)
    except (TypeError, ValueError):
        raise InvalidArgument(f"G must be a 2x2 matrix of real numbers, got {G!r}") from None
    if G.shape != (2, 2):
        raise InvalidArgument(f"G must be a 2x2 matrix, got shape {G.shape}")
    bad = ~np.isfinite(G)
    k = int(bad.argmax())
    if bad.flat[k]:
        i, j = divmod(k, 2)
        raise InvalidArgument(f"G[{i}][{j}] is not finite: {G.item(k)!r}")
    code, e0, e1 = _classify(G[0, 0], G[0, 1], G[1, 0], G[1, 1], tol)
    return _classification(int(code), float(e0), float(e1), tol)


@dataclass
class PairClassification:
    """A pair's classification at every grid point of g's chart.

    codes (indices into TAGS) and the eigen data e0, e1 of every grid point
    are read-only (nx, ny) arrays in points() order.  counts maps each tag
    met to its number of grid points, in order of first occurrence; the
    modal case is the most frequent one (on a tie, the one met first),
    summary its Classification at its first grid point and fraction its
    share of the grid points."""

    summary: Classification
    fraction: float
    counts: dict
    codes: np.ndarray
    e0: np.ndarray
    e1: np.ndarray

    @property
    def tag(self):
        return self.summary.tag


def classify_pair(g: Metric2, gbar: Metric2, tol: float = DEFAULT_CLASSIFY_TOL) -> PairClassification:
    """Classify at every grid point of g's chart, from the values each metric
    keeps there (gbar is rebuilt on that chart if on another); report the
    modal case and the fraction of grid points agreeing with it.  The codes
    are counted by np.bincount, and each code met has its first grid point
    at the argmax of its mask: counts follow the order of those points, and
    a tie goes to the case met first."""
    check_tol(tol)
    chart = g.chart
    if gbar.chart != chart:
        gbar = Metric2(gbar.g11, gbar.g12, gbar.g22, chart)
    G = _pair_tensor(*g.values, *gbar.values, g.det)
    codes, e0, e1 = _classify(*G, tol)
    for a in (codes, e0, e1):
        a.flags.writeable = False
    flat = codes.ravel()
    n = np.bincount(flat, minlength=len(TAGS)).tolist()
    # each code met, at its first grid point, in the order they are met
    first = sorted((int((flat == code).argmax()), code) for code, k in enumerate(n) if k)
    i, m = max(first, key=lambda ic: n[ic[1]])        # on a tie, the one met first
    summary = _classification(m, e0.item(i), e1.item(i), tol)
    counts = {TAGS[code]: n[code] for _, code in first}
    return PairClassification(summary, n[m] / codes.size, counts, codes, e0, e1)
