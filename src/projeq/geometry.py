"""Metrics on rectangular charts and the pointwise pair classification."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, SingularMetric
from .codegen import kernel_function
from .expr import BinOp, Jet2, Neg, parse, render
from .fields import ScalarField

DEFAULT_CLASSIFY_TOL = 1e-8

# Grid sweeps hold a few dozen (nx, ny) arrays at once, so memory grows with
# the number of grid points; 256 x 256 keeps a sweep within tens of MB.
MAX_GRID_POINTS = 65_536


@dataclass(frozen=True)
class Chart:
    """Rectangular coordinate domain with its sampling grid."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    grid: tuple[int, int] = (21, 21)

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (*self.x_range, *self.y_range)):
            raise InvariantViolation("chart ranges must be finite")
        if not (self.x_range[1] > self.x_range[0] and self.y_range[1] > self.y_range[0]):
            raise InvariantViolation("chart ranges must be non-degenerate")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise InvariantViolation("chart grid must be at least 2x2")
        if self.grid[0] * self.grid[1] > MAX_GRID_POINTS:
            raise InvariantViolation(
                f"chart grid {self.grid[0]}x{self.grid[1]} exceeds the maximum of "
                f"{MAX_GRID_POINTS} grid points")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.grid[0])

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.grid[1])

    def points(self):
        for x in self.xs():
            for y in self.ys():
                yield float(x), float(y)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) coordinate arrays of shape (nx, ny), in points() order."""
        return tuple(np.meshgrid(self.xs(), self.ys(), indexing="ij"))

    def point(self, index: int) -> tuple[float, float]:
        """The grid point at a flat index in points() order."""
        i, j = divmod(int(index), self.grid[1])
        return float(self.xs()[i]), float(self.ys()[j])

    def first_point(self, mask) -> tuple[float, float] | None:
        """The first grid point, in points() order, where the (nx, ny) mask
        holds; None when it holds nowhere."""
        mask = np.broadcast_to(mask, self.grid)
        return self.point(np.argmax(mask)) if mask.any() else None

    def contains(self, x: float, y: float, pad: float = 0.0) -> bool:
        return (self.x_range[0] - pad <= x <= self.x_range[1] + pad
                and self.y_range[0] - pad <= y <= self.y_range[1] + pad)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_range[0] + self.x_range[1]),
                0.5 * (self.y_range[0] + self.y_range[1]))


_SIGNATURES = (("+", "+"), ("-", "-"), ("+", "-"))


def _signature_code(g11, g22, det):
    """Index into _SIGNATURES (floats or arrays)."""
    return np.where(det > 0.0, np.where(g11 + g22 > 0.0, 0, 1), 2)


def _signature_of(m: np.ndarray, det: float) -> tuple[str, str]:
    if det > 0.0:
        return ("+", "+") if m[0, 0] + m[1, 1] > 0.0 else ("-", "-")
    return ("+", "-")


def singular(det, norm2):
    """The one singular-metric test: |det| negligible against the squared
    entries (norm2 = g11^2 + 2 g12^2 + g22^2); floats or arrays.  On floats
    max() does what np.maximum does, NaN included, without making arrays."""
    floor = np.maximum(norm2, 1e-300) if isinstance(norm2, np.ndarray) else max(norm2, 1e-300)
    return abs(det) < 1e-12 * floor


def _singular_entries(a, b, c, det) -> bool:
    """singular() from the entries' values, as checked_jets_at applies it."""
    return singular(det, a ** 2 + 2 * b ** 2 + c ** 2)


class Metric2:
    """Symmetric metric (g11, g12, g22) of scalar fields on a chart.

    Construction checks that the determinant is nonzero and the signature
    constant across the chart's grid.

    Grid sweeps evaluate the entries' own functions (ScalarField.on).
    Pointwise reads run a kernel compiled from the entries' expressions on
    first use, one per kind: 'value' for values_at, 'jet' for the jets, det
    g and the jets of g^{-1}.
    """

    def __init__(self, g11: ScalarField, g12: ScalarField, g22: ScalarField, chart: Chart):
        self.g11 = g11
        self.g12 = g12
        self.g22 = g22
        self.chart = chart
        self._kernels = {}
        self.signature = self._validate()

    @classmethod
    def from_exprs(cls, g11: str, g12: str, g22: str, chart: Chart) -> "Metric2":
        return cls(ScalarField.from_expr(parse(g11)),
                   ScalarField.from_expr(parse(g12)),
                   ScalarField.from_expr(parse(g22)), chart)

    @classmethod
    def null_form(cls, f: ScalarField, chart: Chart) -> "Metric2":
        """ds^2 = f dx dy, i.e. g11 = g22 = 0, g12 = f/2."""
        zero = ScalarField.constant(0.0)
        return cls(zero, f * 0.5, zero, chart)

    def _validate(self):
        chart = self.chart
        a, b, c = self.values_on(chart)
        det = a * c - b * b
        sing = singular(det, a * a + 2.0 * b * b + c * c)
        sig = _signature_code(a, c, det)
        bad = sing | (sig != sig.flat[0])
        if bad.any():
            i = int(np.argmax(bad))
            x, y = chart.point(i)
            if sing.flat[i]:
                raise SingularMetric(x, y, float(det.flat[i]))
            raise InvariantViolation(
                f"metric signature changes across the chart "
                f"({_SIGNATURES[sig.flat[0]]} vs {_SIGNATURES[sig.flat[i]]})", (x, y))
        return _SIGNATURES[sig.flat[0]]

    def values_on(self, chart: Chart) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g11, g12, g22) over the chart grid as (nx, ny) arrays."""
        return self.g11.on(chart).v, self.g12.on(chart).v, self.g22.on(chart).v

    # pointwise data -----------------------------------------------------------
    def _kernel(self, kind: str):
        """The compiled pointwise reads of one kind, built on first use."""
        kernel = self._kernels.get(kind)
        if kernel is None:
            a, b, c = self.g11.expr, self.g12.expr, self.g22.expr

            def where():
                return ", ".join(map(render, (a, b, c)))

            if kind == "value":
                kernel = kernel_function((a, b, c), "value", where)
            else:
                det = BinOp("-", BinOp("*", a, c), BinOp("*", b, b))
                inverse = (BinOp("/", c, det), BinOp("/", Neg(b), det), BinOp("/", a, det))
                kernel = kernel_function((a, b, c, det, *inverse), "jet", where,
                                         stop=(4, _singular_entries))
            self._kernels[kind] = kernel
        return kernel

    def values_at(self, x: float, y: float):
        a, b, c = self._kernel("value")(x, y)
        m = np.array([[a, b], [b, c]])
        det = a * c - b * b
        return m, det, _signature_of(m, det)

    def jets_at(self, x: float, y: float) -> tuple[Jet2, Jet2, Jet2]:
        return self._kernel("jet")(x, y)[:3]

    def _checked(self, x: float, y: float) -> tuple[Jet2, ...]:
        """The jets of g11, g12, g22, det g and g^11, g^12, g^22; raises
        SingularMetric where the metric is singular()."""
        jets = self._kernel("jet")(x, y)
        if len(jets) == 4:
            raise SingularMetric(x, y, jets[3].v)
        return jets

    def checked_jets_at(self, x: float, y: float) -> tuple[Jet2, Jet2, Jet2, float]:
        """The jets of (g11, g12, g22) and the value of det g; raises
        SingularMetric where the metric is singular()."""
        a, b, c, det = self._checked(x, y)[:4]
        return a, b, c, det.v

    def inverse_jets_at(self, x: float, y: float) -> tuple[Jet2, Jet2, Jet2]:
        """Jets of (g^11, g^12, g^22)."""
        return self._checked(x, y)[4:]

    def inverse_fields(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        det = self.g11 * self.g22 - self.g12 * self.g12
        return self.g22 / det, -self.g12 / det, self.g11 / det

    def scaled(self, c: float) -> "Metric2":
        return Metric2(self.g11 * c, self.g12 * c, self.g22 * c, self.chart)


def metric_at(g: Metric2, x: float, y: float):
    """(2x2 matrix, det, signature) with a singularity check."""
    m, det, sig = g.values_at(x, y)
    if singular(det, float(np.sum(m * m))):
        raise SingularMetric(x, y, det)
    return m, det, sig


def christoffel_at(g: Metric2, x: float, y: float) -> np.ndarray:
    """Gamma[k][i][j] = 1/2 g^{kl} (d_i g_{lj} + d_j g_{li} - d_l g_{ij}),
    written out for 2-D with the sums in index order (l = 0 first, from
    0.0), so that it is bit for bit the sum over k, i, j, l."""
    a, b, c, det = g.checked_jets_at(x, y)
    rows = ((c.v / det, -b.v / det), (-b.v / det, a.v / det))
    # (d_i g_{lj} + d_j g_{li} - d_l g_{ij}) for l = 0, 1, by (i, j)
    xx = (a.dx + a.dx - a.dx, b.dx + b.dx - a.dy)
    xy = (b.dx + a.dy - b.dx, c.dx + b.dy - b.dy)
    yy = (b.dy + b.dy - c.dx, c.dy + c.dy - c.dy)
    return np.array([[[0.5 * (0.0 + gk * t0 + gl * t1) for t0, t1 in row]
                      for row in ((xx, xy), (xy, yy))] for gk, gl in rows])


def _pair_tensor(a, b, c, abar, bbar, cbar, det):
    """Entries (G11, G12, G21, G22) of G = g^{-1} gbar from the metric
    entries (floats or arrays), det = a c - b^2."""
    i11, i12, i22 = c / det, -b / det, a / det
    return (i11 * abar + i12 * bbar, i11 * bbar + i12 * cbar,
            i12 * abar + i22 * bbar, i12 * bbar + i22 * cbar)


def g_tensor_at(g: Metric2, gbar: Metric2, x: float, y: float) -> np.ndarray:
    """G^i_j = sum_alpha gbar_{j alpha} g^{i alpha}."""
    m, det, _ = metric_at(g, x, y)
    mbar, _, _ = metric_at(gbar, x, y)
    G = _pair_tensor(m[0, 0], m[0, 1], m[1, 1], mbar[0, 0], mbar[0, 1], mbar[1, 1], det)
    return np.array(G).reshape(2, 2)


@dataclass(frozen=True)
class Classification:
    """Pointwise eigenstructure of the pair tensor G.

    tag: real_distinct | complex_pair | jordan_block | proportional | ambiguous
    """

    tag: str
    tolerance: float
    eigenvalues: tuple[float, ...] = field(default_factory=tuple)

    @property
    def values(self):
        return self.eigenvalues


_TAGS = ("proportional", "real_distinct", "complex_pair", "jordan_block", "ambiguous")


def _classify(g11, g12, g21, g22, tol: float):
    """Case codes (indices into _TAGS) and eigen data (e0, e1) of 2x2
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
    code = np.select([(scale == 0.0) | (nil <= bound),
                      (disc > 0.0) & (root > bound),
                      (disc < 0.0) & (0.5 * root > bound),
                      root <= bound], [0, 1, 2, 3], default=4)
    e0 = np.where(code == 1, half + 0.5 * root, np.where(scale == 0.0, 0.0, half))
    e1 = np.where(code == 1, half - 0.5 * root, 0.5 * root)
    return code, e0, e1


def _classification(code: int, e0: float, e1: float, tol: float) -> Classification:
    return Classification(_TAGS[code], tol, (e0, e1) if code in (1, 2) else (e0,))


def classify_at(G, tol: float = DEFAULT_CLASSIFY_TOL) -> Classification:
    """Classify a 2x2 matrix by its eigenstructure, with scale-relative
    tolerances.  Points too close to a case boundary come back 'ambiguous'."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    G = np.asarray(G, dtype=float)
    code, e0, e1 = _classify(G[0, 0], G[0, 1], G[1, 0], G[1, 1], tol)
    return _classification(int(code), float(e0), float(e1), tol)


@dataclass
class PairClassification:
    summary: Classification
    fraction: float
    counts: dict
    per_point: list  # (x, y, Classification)

    @property
    def tag(self):
        return self.summary.tag


def classify_pair(g: Metric2, gbar: Metric2, tol: float = DEFAULT_CLASSIFY_TOL) -> PairClassification:
    """Classify at every grid point; report the modal case and the fraction
    of grid points agreeing with it."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    chart = g.chart
    a, b, c = g.values_on(chart)
    abar, bbar, cbar = gbar.values_on(chart)
    det = a * c - b * b
    det_bar = abar * cbar - bbar * bbar
    sing = singular(det, a * a + 2.0 * b * b + c * c)
    sing_bar = singular(det_bar, abar * abar + 2.0 * bbar * bbar + cbar * cbar)
    if (sing | sing_bar).any():
        i = int(np.argmax(sing | sing_bar))
        raise SingularMetric(*chart.point(i), float((det if sing.flat[i] else det_bar).flat[i]))
    G = _pair_tensor(a, b, c, abar, bbar, cbar, det)
    codes, e0, e1 = _classify(*G, tol)

    per_point = []
    counts: Counter = Counter()
    rep = {}
    points = itertools.product(chart.xs().tolist(), chart.ys().tolist())
    for (x, y), code, v0, v1 in zip(points, codes.ravel().tolist(),
                                    e0.ravel().tolist(), e1.ravel().tolist()):
        cl = _classification(code, v0, v1, tol)
        per_point.append((x, y, cl))
        counts[cl.tag] += 1
        rep.setdefault(cl.tag, cl)
    modal, n = counts.most_common(1)[0]
    return PairClassification(rep[modal], n / len(per_point), dict(counts), per_point)
