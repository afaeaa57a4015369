import collections
import logging
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import projeq as pq
from projeq import codegen
from projeq.cli import run
from projeq.errors import DomainError, InvariantViolation, SingularMetric
from projeq.expr import Leaf
from projeq.geometry import christoffel_at, classify_at, determinant, metric_at, singular

from conftest import assert_classified_pointwise

UNIT = pq.Chart((-1.0, 1.0), (-1.0, 1.0), (5, 5))
SLOTS = ("v", "dx", "dy", "dxx", "dxy", "dyy")
# off-grid points as fractions of the chart's ranges
OFF_GRID = [(fx, fy) for fx in (0.13, 0.38, 0.62, 0.87) for fy in (0.07, 0.41, 0.71, 0.93)]
KERNEL_LOG = re.compile(
    r"(jet|value) kernel, (compiled|from the store): (\d+) nodes, (\d+) leaves, [0-9.]+ ms")


def euclidean(chart=UNIT):
    return pq.Metric2.from_exprs("1", "0", "1", chart)


def fd_christoffel(g, x, y, h=1e-5):
    """Finite-difference oracle for the Christoffel symbols."""
    def mat(a, b):
        m, _, _ = metric_at(g, a, b)
        return m

    dg = np.empty((2, 2, 2))
    dg[0] = (mat(x + h, y) - mat(x - h, y)) / (2 * h)
    dg[1] = (mat(x, y + h) - mat(x, y - h)) / (2 * h)
    m, det, _ = metric_at(g, x, y)
    ginv = np.array([[m[1, 1], -m[0, 1]], [-m[0, 1], m[0, 0]]]) / det
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][l][j] + dg[j][l][i] - dg[l][i][j])
                    for l in range(2))
    return gamma


def loop_christoffel(g, x, y):
    """The sum over k, i, j, l in index order: the reference that
    christoffel_at's closed form must match bit for bit."""
    j11, j12, j22 = g.jets_at(x, y)[:3]
    det = j11.v * j22.v - j12.v * j12.v
    ginv = np.array([[j22.v, -j12.v], [-j12.v, j11.v]]) / det
    dg = np.empty((2, 2, 2))
    dg[0] = [[j11.dx, j12.dx], [j12.dx, j22.dx]]
    dg[1] = [[j11.dy, j12.dy], [j12.dy, j22.dy]]
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                s = 0.0
                for l in range(2):
                    s += ginv[k, l] * (dg[i][l][j] + dg[j][l][i] - dg[l][i][j])
                gamma[k, i, j] = 0.5 * s
    return gamma


def reference_jets(g, x, y):
    """The jets of g11, g12, g22, det g and g^11, g^12, g^22 from the
    entries' own jet functions and Jet2 algebra, point by point; with
    x = y = None over g's chart grid."""
    if x is None:
        j11, j12, j22 = g.g11.on(g.chart), g.g12.on(g.chart), g.g22.on(g.chart)
    else:
        j11, j12, j22 = g.g11.jet(x, y), g.g12.jet(x, y), g.g22.jet(x, y)
    det = j11 * j22 - j12 * j12
    return j11, j12, j22, det, j22 / det, -j12 / det, j11 / det


def off_grid_points(chart):
    (xlo, xhi), (ylo, yhi) = chart.x_range, chart.y_range
    return [(xlo + fx * (xhi - xlo), ylo + fy * (yhi - ylo)) for fx, fy in OFF_GRID]


def kernel_logs(caplog):
    """(kind, nodes, leaves) of each kernel compile logged to 'projeq'."""
    found = [KERNEL_LOG.fullmatch(r.getMessage()) for r in caplog.records if r.name == "projeq"]
    assert all(found) and all(r.levelno == logging.DEBUG for r in caplog.records)
    return [(m[1], int(m[3]), int(m[4])) for m in found]


class TestChart:
    def test_grid_and_contains(self):
        c = pq.Chart((0.0, 1.0), (2.0, 4.0), (3, 5))
        assert list(c.xs) == [0.0, 0.5, 1.0]
        assert len(list(c.points())) == 15
        assert c.contains(0.5, 3.0)
        assert not c.contains(1.5, 3.0)
        assert c.contains(1.05, 3.0, pad=0.1)
        assert c.center == (0.5, 3.0)

    def test_degenerate_ranges_rejected(self):
        with pytest.raises(InvariantViolation):
            pq.Chart((1.0, 1.0), (0.0, 1.0))

    @pytest.mark.parametrize("args, message", [
        (((0, 1), (0, 1), (5,)), "chart grid must be a pair, got (5,)"),
        (((0, 1), (0, 1), (3, 3, 3)), "chart grid must be a pair, got (3, 3, 3)"),
        (((0, 1, 2), (0, 1)), "chart x_range must be a pair, got (0, 1, 2)"),
        (((0, 1), 1.0), "chart y_range must be a pair, got 1.0"),
        (((0, 1), (0, 1), (2.5, 3)), "chart grid entries must be integers, got (2.5, 3)"),
        (((0, 1), (0, 1), (True, 3)), "chart grid entries must be integers, got (True, 3)"),
        # math.isfinite raised TypeError on these
        ((("a", "b"), (0, 1)),
         "chart ranges must be finite real numbers, got ('a', 'b') and (0, 1)"),
        (((None, 1), (0, 1)),
         "chart ranges must be finite real numbers, got (None, 1) and (0, 1)"),
        (((0, 1), (0, 1j)), "chart ranges must be finite real numbers, got (0, 1) and (0, 1j)"),
        (((0, 1), (0, np.inf)),
         "chart ranges must be finite real numbers, got (0, 1) and (0, inf)"),
    ], ids=["short_grid", "long_grid", "long_range", "scalar_range", "float_grid",
            "bool_grid", "string_range", "none_range", "complex_range", "infinite_range"])
    def test_malformed_ranges_and_grids_rejected(self, args, message):
        with pytest.raises(InvariantViolation) as ei:
            pq.Chart(*args)
        assert str(ei.value) == message

    def test_list_grid_is_kept_as_a_tuple(self):
        """A chart given lists equals and hashes as the one given tuples."""
        c = pq.Chart([0.0, 1.0], [2.0, 4.0], [3, np.int64(5)])
        d = pq.Chart((0.0, 1.0), (2.0, 4.0), (3, 5))
        assert (c.x_range, c.y_range, c.grid) == ((0.0, 1.0), (2.0, 4.0), (3, 5))
        assert type(c.grid) is tuple and c == d and hash(c) == hash(d)

    def test_axes_are_kept_read_only_and_outside_equality(self):
        c = pq.Chart((0.0, 1.0), (2.0, 4.0), (3, 5))
        xs, ys = np.linspace(0.0, 1.0, 3), np.linspace(2.0, 4.0, 5)
        assert c.xs.tobytes() == xs.tobytes() and c.ys.tobytes() == ys.tobytes()
        for got, want in zip(c.mesh, np.meshgrid(xs, ys, indexing="ij")):
            assert got.tobytes() == want.tobytes() and got.shape == (3, 5)
        assert c.zeros.shape == (3, 5) and not c.zeros.any()
        for a in (c.xs, c.ys, *c.mesh, c.zeros):
            with pytest.raises(ValueError):
                a[0] = 9.0
        assert list(c.points()) == [c.point(i) for i in range(15)]
        assert c.first_point(c.mesh[1] > 3.0) == (0.0, 3.5)
        d = pq.Chart((0.0, 1.0), (2.0, 4.0), (3, 5))
        assert c == d and hash(c) == hash(d) and c != pq.Chart((0.0, 1.0), (2.0, 4.0), (3, 4))
        assert repr(c) == "Chart(x_range=(0.0, 1.0), y_range=(2.0, 4.0), grid=(3, 5))"


class TestMetric2:
    def test_euclidean_values(self):
        m, det, sig = metric_at(euclidean(), 0.3, 0.4)
        assert det == 1.0
        assert sig == ("+", "+")

    def test_lorentzian_signature(self):
        g = pq.Metric2.from_exprs("1", "0", "-1", UNIT)
        assert g.signature == ("+", "-")

    def test_null_form_signature(self):
        nf = pq.NullFormMetric.from_expr("2 + x", UNIT)
        assert nf.to_metric2().signature == ("+", "-")

    def test_singular_rejected(self):
        with pytest.raises(SingularMetric):
            pq.Metric2.from_exprs("x", "0", "1", UNIT)  # det -> 0 at x = 0

    def test_singular_where_the_squared_entries_overflow(self):
        # a^2 + 2 b^2 + c^2 overflows once an entry passes about 1.3e154;
        # the test then runs on the entries divided by the largest one
        g = pq.Metric2.from_exprs("1e155", "0", "-1e150", UNIT)   # |det| / a^2 = 1e-5
        assert g.signature == ("+", "-")
        g = pq.Metric2.from_exprs("1e155", "0", "1e150", UNIT)
        assert g.signature == ("+", "+")
        assert g.jets_at(0.3, 0.4)[4].v == 1e-155
        assert pq.hamiltonian(g, pq.PhaseState(0.3, 0.4, 1e80, 0.0)) == 0.5e5
        assert not singular(1e155, 0.0, 1e150, 1e305)
        with pytest.raises(SingularMetric):
            pq.Metric2.from_exprs("1e150", "1e150", "1e150", UNIT)   # det = 0
        # |det| = 5e299 is still negligible against c^2 = 1e600
        with pytest.raises(SingularMetric) as ei:
            pq.Metric2.from_exprs("0.5", "exp(1)", "1e300", UNIT)
        assert ei.value.det == 0.5 * 1e300 - math.e * math.e
        assert singular(0.5, math.e, 1e300, 0.5 * 1e300 - math.e * math.e)
        # NaN and infinite entries are judged as before
        nan, inf = math.nan, math.inf
        assert not singular(nan, 0.0, 1.0, nan)
        assert not singular(np.array([nan]), 0.0, 1.0, np.array([nan]))[0]
        assert singular(inf, 0.0, 1.0, 1.0) == singular(np.array([inf]), 0.0, 1.0, 1.0)[0]

    def test_signature_change_rejected(self):
        chart = pq.Chart((0.5, 2.0), (0.0, 1.0), (7, 3))
        with pytest.raises((InvariantViolation, SingularMetric)):
            pq.Metric2.from_exprs("x - 1", "0", "1", chart)

    def test_signature_change_between_grid_points_names_the_first(self):
        """g11 = x changes sign between two grid points, so no point is
        singular; the first point of the other signature is named."""
        with pytest.raises(InvariantViolation) as ei:
            pq.Metric2.from_exprs("x", "0", "1", pq.Chart((-1, 1), (0, 1), (20, 5)))
        assert "metric signature changes across the chart" in str(ei.value)
        assert str(ei.value).endswith("(first offending grid point 0.0526316, 0)")

    def test_overflow_off_the_grid_is_a_domain_error(self):
        g = pq.Metric2.from_exprs("exp(x)", "0", "1", pq.Chart((0, 1), (0, 1)))
        for read in (g.entries_at, g.jets_at):
            with pytest.raises(DomainError) as ei:
                read(800.0, 0.0)
            assert str(ei.value) == "numerical overflow in 'exp(x), 0.0, 1.0'"

    def test_near_singular_off_grid_point_rejected(self):
        # det = 1e-20 at x = 0.05, between grid points: nonzero, but below
        # 1e-12 times the squared entries.  Every read refuses it: both
        # kernels, and the reads built on them.
        g = pq.Metric2.from_exprs("1", "0", "(x - 0.05)^2 + 1e-20", UNIT)
        e = euclidean()
        for read in (g.jets_at, g.entries_at, lambda x, y: christoffel_at(g, x, y),
                     lambda x, y: metric_at(g, x, y),
                     lambda x, y: pq.hamiltonian(g, pq.PhaseState(x, y, 0.3, 0.4)),
                     lambda x, y: pq.projective_integral_momentum(
                         g, e, pq.PhaseState(x, y, 0.3, 0.4))):
            with pytest.raises(SingularMetric) as ei:
                read(0.05, 0.3)
            assert ei.value.det == 1e-20
            assert ei.value.point == (0.05, 0.3)
        # and reads the metric where it is regular
        c = g.g22(0.3, 0.3)
        assert g.entries_at(0.3, 0.3) == (1.0, 0.0, c, c)
        assert g.jets_at(0.3, 0.3)[3].v == c

    @settings(max_examples=60, deadline=None)
    @given(x0=st.floats(-0.9, 0.9), log_eps=st.floats(-24.0, -6.0),
           points=st.lists(st.tuples(st.one_of(st.floats(-3e-6, 3e-6), st.floats(-0.5, 0.5)),
                                     st.floats(-1.0, 1.0)), min_size=1, max_size=8))
    def test_reads_refuse_exactly_where_singular(self, x0, log_eps, points):
        """Near-singular metrics (1, 0, (x - x0)^2 + eps), read at random
        points, many within a few 1e-6 of x0: every read raises
        SingularMetric, with the same det bits, exactly where singular()
        holds on the fields' own float values; elsewhere entries_at gives
        those values and determinant() of them, bit for bit."""
        c22 = f"(x - ({x0!r}))^2 + {10.0 ** log_eps!r}"
        try:
            g = pq.Metric2.from_exprs("1", "0", c22, UNIT)
        except SingularMetric:
            assume(False)               # x0 on a grid line
        reads = (g.entries_at, g.jets_at, lambda x, y: christoffel_at(g, x, y),
                 lambda x, y: pq.hamiltonian(g, pq.PhaseState(x, y, 0.3, 0.4)))
        for dx, y in points:
            x = x0 + dx
            a, b, c = g.g11(x, y), g.g12(x, y), g.g22(x, y)
            det = determinant(a, b, c)
            if singular(a, b, c, det):
                for read in reads:
                    with pytest.raises(SingularMetric) as ei:
                        read(x, y)
                    assert ei.value.point == (x, y)
                    assert struct.pack("<d", ei.value.det) == struct.pack("<d", det)
            else:
                for read in reads:
                    read(x, y)
                entries = g.entries_at(x, y)
                assert struct.pack("<4d", *entries) == struct.pack("<4d", a, b, c, det)

    def test_kept_sweep_is_a_fresh_sweep(self, instances):
        """values and det are the entries' own grid sweep and det g over it,
        bit for bit, and cannot be written."""
        metrics = [euclidean(), pq.Metric2.from_exprs("2 + x", "x * y / 4", "3 - y", UNIT),
                   pq.NullFormMetric.from_expr("2 + x", UNIT).to_metric2()]
        metrics += [m for inst in instances[::5] for m in (inst["pair"].g, inst["pair"].gbar)]
        for g in metrics:
            a, b, c = (f.on(g.chart).v for f in (g.g11, g.g12, g.g22))
            for kept, fresh in zip((*g.values, g.det), (a, b, c, a * c - b * b)):
                assert kept.shape == g.chart.grid
                assert kept.tobytes() == fresh.tobytes()
                with pytest.raises(ValueError):
                    kept[0, 0] = 1.0

    def test_inverse_fields(self):
        g = pq.Metric2.from_exprs("2 + x", "x * y / 4", "3 - y", UNIT)
        i11, i12, i22 = g.inverse_fields()
        x, y = 0.3, -0.4
        m, det, _ = metric_at(g, x, y)
        inv = np.linalg.inv(m)
        assert i11(x, y) == pytest.approx(inv[0, 0], rel=1e-12)
        assert i12(x, y) == pytest.approx(inv[0, 1], rel=1e-12)
        assert i22(x, y) == pytest.approx(inv[1, 1], rel=1e-12)


class TestKernels:
    """Metric2's two pointwise reads, entries_at and jets_at, are compiled
    kernels; the entries' own jet functions and Jet2 algebra are the
    reference."""

    def test_reads_match_the_fields(self, instances):
        """jets_at and entries_at at off-grid points, for g
        and gbar of every instance, within 1e-15 of each slot's largest
        magnitude over the chart grid (assert_grid_matches_points' bar).

        Complex-Liouville kernels compute Re h and Im h from their real
        expansion, whose derivative slots round unlike the complex route
        (1 ulp in Re h' for h = z + z^3, 2.5e-15 after inverting gbar):
        those are held to 1e-14, about 45 ulps.  Elsewhere the arithmetic
        is the reference's and the bar holds with room."""
        for inst in instances:
            bar = 1e-14 if inst["family"] == "complex_liouville" else 1e-15
            for g in (inst["pair"].g, inst["pair"].gbar):
                scale = [max(float(np.max(np.abs(getattr(j, s)))), 1e-300)
                         for j in reference_jets(g, None, None) for s in SLOTS]
                for x, y in off_grid_points(g.chart):
                    want = [getattr(j, s) for j in reference_jets(g, x, y) for s in SLOTS]
                    got = [getattr(j, s) for j in g.jets_at(x, y) for s in SLOTS]
                    for w, v, sc in zip(want, got, scale, strict=True):
                        assert abs(v - w) <= bar * sc, (inst["family"], x, y)
                    a, b, c, det = g.entries_at(x, y)
                    values = (g.g11(x, y), g.g12(x, y), g.g22(x, y))
                    assert [a, b, c] == pytest.approx(values, rel=1e-15)
                    assert det == a * c - b * b

    def test_opaque_leaves_integrate_through_the_kernel(self, instances, caplog):
        """Fields known only by their functions (h = log z, which has no
        real expansion, and a metric after an admissible change) enter the
        kernel as leaves: the reads equal the reference's values and the
        geodesic flow runs on them."""
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (9, 9))
        log_pair = pq.generate(pq.ComplexLiouvilleSpec("log(z)", chart))
        assert isinstance(log_pair.g.g12.expr, Leaf)
        jordan = next(i["pair"] for i in instances if i["family"] == "jordan_block")
        nf, F, _ = pq.to_null_form(jordan.g, jordan.F)
        nf2, _ = pq.apply_admissible_change(
            nf, F, pq.AdmissibleChange("0.1 + x + 0.05*x^2", "y + 0.02*y^3"))
        changed = nf2.to_metric2()
        trajectories = []
        for g in (log_pair.g, log_pair.gbar, changed):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="projeq"):
                for x, y in off_grid_points(g.chart)[::3]:
                    want = [getattr(j, s) for j in reference_jets(g, x, y) for s in SLOTS]
                    got = [getattr(j, s) for j in g.jets_at(x, y) for s in SLOTS]
                    assert got == want, (x, y)
                s0 = pq.PhaseState(*g.chart.center, 0.2, 0.15)
                traj = pq.integrate_geodesic(g, s0, 0.3, tol=1e-10)
            assert [(kind, leaves > 0) for kind, _, leaves in kernel_logs(caplog)] == \
                [("jet", True), ("value", True)]
            assert len(traj) > 3
            drift = np.ptp(traj.hamiltonian_values) / abs(traj.hamiltonian_values[0])
            assert drift < 1e-8
            trajectories.append(traj)
        assert pq.projective_residual(log_pair.gbar, trajectories[0]) < 1e-6
        assert pq.projective_residual(log_pair.g, trajectories[1]) < 1e-6

    def test_compiles_are_logged_once_per_kind_at_debug(self, caplog, tmp_path, capsys):
        g = pq.Metric2.from_exprs("2 + x", "x * y / 4", "3 - y", UNIT)
        with caplog.at_level(logging.WARNING):
            g.entries_at(0.3, 0.2)
        assert caplog.records == []         # nothing at the default level
        with caplog.at_level(logging.DEBUG, logger="projeq"):
            g.entries_at(0.1, 0.2)          # compiled above, not again
            metric_at(g, 0.2, 0.1)
            g.jets_at(0.3, 0.2)
            christoffel_at(g, 0.1, 0.2)
            g.jets_at(-0.5, 0.5)
        logs = kernel_logs(caplog)
        assert [kind for kind, _, _ in logs] == ["jet"]
        assert logs[0][1] > 10 and logs[0][2] == 0
        # a CLI run writes only its report line
        cfg = tmp_path / "job.json"
        cfg.write_text('{"command": "geodesic", "chart": {"x_range": [-2, 2], '
                       '"y_range": [-2, 2], "grid": [5, 5]}, "metric": {"g11": "1 + x^2", '
                       '"g12": "0", "g22": "1"}, "initial_state": [0, 0, 0.6, 0.8], '
                       '"t_end": 0.5}')
        capsys.readouterr()
        assert run(cfg, output_dir=tmp_path) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1

    def test_kernel_log_says_where_its_code_came_from(self, caplog, monkeypatch):
        """A metric of the shape of one read before builds its kernels from
        the code store, and its DEBUG records say so; the default level
        still writes nothing."""
        monkeypatch.setattr(codegen, "_store", collections.OrderedDict())
        g = pq.Metric2.from_exprs("2 + x", "x * y / 4", "3 - y", UNIT)
        h = pq.Metric2.from_exprs("5 + x", "x * y / 7", "4 - y", UNIT)
        with caplog.at_level(logging.WARNING):
            g.entries_at(0.3, 0.2)
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="projeq"):
            h.entries_at(0.3, 0.2)
            h.jets_at(0.3, 0.2)
            g.jets_at(0.3, 0.2)
        found = [KERNEL_LOG.fullmatch(r.getMessage()) for r in caplog.records]
        assert [m.groups()[:2] for m in found] == [
            ("value", "from the store"), ("jet", "compiled"), ("jet", "from the store")]
        assert found[1].groups()[2:] == found[2].groups()[2:]     # the same nodes and leaves


class TestChristoffel:
    def test_euclidean_all_zero(self):
        gamma = christoffel_at(euclidean(), 0.2, -0.7)
        assert np.allclose(gamma, 0.0)

    def test_conformal_closed_form(self):
        # g = exp(2x)(dx^2 + dy^2): Gamma^x_xx = 1, Gamma^x_yy = -1,
        # Gamma^y_xy = 1, rest zero
        g = pq.Metric2.from_exprs("exp(2*x)", "0", "exp(2*x)", UNIT)
        gamma = christoffel_at(g, 0.3, 0.1)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        expected[0, 1, 1] = -1.0
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0
        assert np.allclose(gamma, expected, atol=1e-12)

    @pytest.mark.parametrize("exprs", [
        ("2 + x^2", "x * y / 3", "3 + y^2"),
        ("1 + x/2", "0", "-2 - y^2"),
        ("exp(x - y)", "1/4", "exp(x + y)"),
    ])
    def test_against_finite_differences(self, exprs):
        g = pq.Metric2.from_exprs(*exprs, UNIT)
        for x, y in [(0.3, 0.5), (-0.4, 0.2)]:
            assert np.allclose(christoffel_at(g, x, y), fd_christoffel(g, x, y),
                               atol=1e-8)

    def test_closed_form_is_the_loop_bit_for_bit(self, instances):
        for inst in instances:
            for g in (inst["pair"].g, inst["pair"].gbar):
                (xlo, xhi), (ylo, yhi) = g.chart.x_range, g.chart.y_range
                for fx, fy in ((0.5, 0.5), (0.13, 0.71), (0.87, 0.29)):
                    x, y = xlo + fx * (xhi - xlo), ylo + fy * (yhi - ylo)
                    got, want = christoffel_at(g, x, y), loop_christoffel(g, x, y)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (x, y)

    def test_symmetry_in_lower_indices(self):
        g = pq.Metric2.from_exprs("2 + x^2", "x * y / 3", "3 + y^2", UNIT)
        gamma = christoffel_at(g, 0.25, -0.5)
        assert np.allclose(gamma[:, 0, 1], gamma[:, 1, 0])


class TestGTensor:
    """G = g^{-1} gbar, read through classify_pair's eigen data."""

    def test_identity_for_equal_metrics(self):
        g = pq.Metric2.from_exprs("2 + x", "x * y / 4", "3 - y", UNIT)
        res = pq.classify_pair(g, g)
        assert res.counts == {"proportional": 25}
        assert np.allclose(res.e0, 1.0)
        assert_classified_pointwise(res, g, g)

    def test_scalar_for_proportional(self):
        g = euclidean()
        gbar = pq.Metric2.from_exprs("3", "0", "3", UNIT)
        res = pq.classify_pair(g, gbar)
        assert res.counts == {"proportional": 25}
        assert np.all(res.e0 == 3.0)


class TestClassifyAt:
    def test_real_distinct(self):
        c = classify_at(np.diag([2.0, 5.0]))
        assert c.tag == "real_distinct"
        assert c.eigenvalues == (5.0, 2.0)

    def test_complex_pair(self):
        c = classify_at(np.array([[1.0, -2.0], [2.0, 1.0]]))
        assert c.tag == "complex_pair"
        assert c.eigenvalues[0] == pytest.approx(1.0)
        assert c.eigenvalues[1] == pytest.approx(2.0)

    def test_jordan_block(self):
        assert classify_at(np.array([[3.0, 1.0], [0.0, 3.0]])).tag == "jordan_block"

    def test_proportional(self):
        assert classify_at(2.5 * np.eye(2)).tag == "proportional"

    def test_near_degenerate_is_ambiguous(self):
        # distinct eigenvalues separated by much less than tol * scale
        c = classify_at(np.diag([1.0, 1.0 + 1e-12]), tol=1e-8)
        assert c.tag in ("proportional", "jordan_block")  # not a confident split

    def test_scale_invariance(self):
        m = np.array([[2.0, 1.0], [0.5, 3.0]])
        assert classify_at(m).tag == classify_at(1e9 * m).tag == classify_at(1e-9 * m).tag

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            classify_at(np.eye(2), tol=0.0)


class TestClassifyPair:
    def test_proportional_pair(self):
        g = euclidean()
        gbar = pq.Metric2.from_exprs("2", "0", "2", UNIT)
        res = pq.classify_pair(g, gbar)
        assert res.tag == "proportional"
        assert res.fraction == 1.0

    def test_gbar_on_another_chart_is_read_on_g_chart(self, monkeypatch):
        g = pq.Metric2.from_exprs("2 + x", "x * y / 4", "3 - y", UNIT)
        other = pq.Chart((-2.0, 2.0), (-1.5, 1.5), (9, 4))
        gbar = pq.Metric2.from_exprs("1 + x^2", "0.1", "2 + y", other)
        assert_classified_pointwise(pq.classify_pair(g, gbar), g, gbar)

        # and without walking the grid point by point
        def no_walk(chart):
            raise AssertionError("classify_pair walked the chart's points")

        with monkeypatch.context() as m:
            m.setattr(pq.Chart, "points", no_walk)
            res = pq.classify_pair(g, gbar)
        assert_classified_pointwise(res, g, gbar)
        # singular on g's grid, though not on its own chart
        gbar = pq.Metric2.from_exprs("x", "0", "1", pq.Chart((0.5, 2.0), (-1.0, 1.0), (4, 4)))
        with pytest.raises(SingularMetric) as ei:
            pq.classify_pair(g, gbar)
        assert ei.value.point == (0.0, -1.0)

    @pytest.mark.parametrize("x_range, first, then, eigenvalues", [
        ((-1.0, 0.0), "real_distinct", "proportional", (2.0, 1.0)),
        ((0.0, 1.0), "proportional", "real_distinct", (2.0,)),
    ], ids=["real_distinct_first", "proportional_first"])
    def test_ties_go_to_the_case_met_first(self, x_range, first, then, eigenvalues):
        """Two grid points of each case: the modal case, its summary and
        the order of counts follow the first occurrence in points() order."""
        chart = pq.Chart(x_range, (-1.0, 1.0), (2, 2))
        res = pq.classify_pair(euclidean(chart), pq.Metric2.from_exprs("2 + x", "0", "2", chart))
        assert (res.tag, res.summary.eigenvalues, res.fraction) == (first, eigenvalues, 0.5)
        assert list(res.counts.items()) == [(first, 2), (then, 2)]
        assert all(type(n) is int for n in res.counts.values())

    def test_counts_sum_to_grid(self):
        g = euclidean()
        gbar = pq.Metric2.from_exprs("2 + x", "0", "1", UNIT)
        res = pq.classify_pair(g, gbar)
        assert sum(res.counts.values()) == 25


# --- invariance of the classification -----------------------------------------------


def test_power_of_two_scales_of_gbar_scale_the_eigen_data(instances):
    """Scaling gbar by 2^k (|k| <= 8) is exact in binary floating point:
    every grid point keeps its case, and e0, e1 scale by 2^k bit for bit."""
    for i, inst in enumerate(instances):
        g, gbar = inst["pair"].g, inst["pair"].gbar
        k = 2.0 ** (i % 17 - 8)
        res, scaled = pq.classify_pair(g, gbar), pq.classify_pair(g, gbar.scaled(k))
        assert np.array_equal(scaled.codes, res.codes)
        assert np.array_equal(scaled.e0, k * res.e0) and np.array_equal(scaled.e1, k * res.e1)
        assert (scaled.tag, scaled.fraction, scaled.counts) == (res.tag, res.fraction, res.counts)


def rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


CASES = {
    "proportional": lambda u, v: np.diag([u, u]),
    "real_distinct": lambda u, v: np.diag([u + v, u - v]),
    "complex_pair": lambda u, v: np.array([[u, -v], [v, u]]),
}


@settings(max_examples=200, deadline=None)
@given(tag=st.sampled_from(sorted(CASES)), u=st.floats(-4.0, 4.0), v=st.floats(0.05, 4.0),
       e=st.integers(-30, 30), t1=st.floats(0.0, 6.3), t2=st.floats(0.0, 6.3),
       s=st.floats(0.1, 1.0))
def test_tag_is_invariant_under_well_conditioned_conjugation(tag, u, v, e, t1, t2, s):
    """classify_at(P G P^-1) keeps G's tag and, within 1e-9 of |G|, its eigen
    data, for P = R(t1) diag(1, s) R(t2) (condition number 1/s <= 10) and G
    at least 0.05 of its size away from every case boundary."""
    G = 2.0 ** e * CASES[tag](u, v)
    P = rotation(t1) @ np.diag([1.0, s]) @ rotation(t2)
    want, got = classify_at(G), classify_at(P @ G @ np.linalg.inv(P))
    assert got.tag == want.tag == tag
    assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=0.0,
                       atol=1e-9 * np.linalg.norm(G))


@settings(max_examples=200, deadline=None)
@given(lam=st.integers(-9, 9), mu=st.integers(-9, 9).filter(bool), m=st.integers(-4, 4),
       n=st.integers(-4, 4), flip=st.booleans(), e=st.integers(-30, 30))
def test_jordan_block_is_invariant_under_unimodular_conjugation(lam, mu, m, n, flip, e):
    """Under an integer P with det +-1, P G P^-1 of an integer Jordan block G
    is computed exactly: it stays a jordan_block with the same eigenvalue."""
    P = np.array([[1.0, m], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [n, 1.0]])
    P_inv = np.array([[1.0, 0.0], [-n, 1.0]]) @ np.array([[1.0, -m], [0.0, 1.0]])
    if flip:
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        P, P_inv = P @ swap, swap @ P_inv
    G = 2.0 ** e * np.array([[lam, mu], [0.0, lam]])
    got = classify_at(P @ G @ P_inv)
    assert got.tag == "jordan_block"
    assert got.eigenvalues == (2.0 ** e * lam,)
