import numpy as np
import pytest

import projeq as pq
from projeq.errors import InvariantViolation, SingularMetric
from projeq.geometry import christoffel_at, classify_at, g_tensor_at

UNIT = pq.Chart((-1.0, 1.0), (-1.0, 1.0), (5, 5))


def euclidean(chart=UNIT):
    return pq.Metric2.from_exprs("1", "0", "1", chart)


def fd_christoffel(g, x, y, h=1e-5):
    """Finite-difference oracle for the Christoffel symbols."""
    def mat(a, b):
        m, _, _ = g.values_at(a, b)
        return m

    dg = np.empty((2, 2, 2))
    dg[0] = (mat(x + h, y) - mat(x - h, y)) / (2 * h)
    dg[1] = (mat(x, y + h) - mat(x, y - h)) / (2 * h)
    m, det, _ = g.values_at(x, y)
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
    j11, j12, j22 = g.jets_at(x, y)
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


class TestChart:
    def test_grid_and_contains(self):
        c = pq.Chart((0.0, 1.0), (2.0, 4.0), (3, 5))
        assert list(c.xs()) == [0.0, 0.5, 1.0]
        assert len(list(c.points())) == 15
        assert c.contains(0.5, 3.0)
        assert not c.contains(1.5, 3.0)
        assert c.contains(1.05, 3.0, pad=0.1)
        assert c.center == (0.5, 3.0)

    def test_degenerate_ranges_rejected(self):
        with pytest.raises(InvariantViolation):
            pq.Chart((1.0, 1.0), (0.0, 1.0))


class TestMetric2:
    def test_euclidean_values(self):
        m, det, sig = euclidean().values_at(0.3, 0.4)
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

    def test_signature_change_rejected(self):
        chart = pq.Chart((0.5, 2.0), (0.0, 1.0), (7, 3))
        with pytest.raises((InvariantViolation, SingularMetric)):
            pq.Metric2.from_exprs("x - 1", "0", "1", chart)

    def test_near_singular_off_grid_point_rejected(self):
        # det = 1e-20 at x = 0.05, between grid points: nonzero, but below
        # 1e-12 times the squared entries
        g = pq.Metric2.from_exprs("1", "0", "(x - 0.05)^2 + 1e-20", UNIT)
        for read in (g.inverse_jets_at, lambda x, y: christoffel_at(g, x, y)):
            with pytest.raises(SingularMetric) as ei:
                read(0.05, 0.3)
            assert ei.value.det == 1e-20
        g.inverse_jets_at(0.3, 0.3)

    def test_inverse_fields(self):
        g = pq.Metric2.from_exprs("2 + x", "x * y / 4", "3 - y", UNIT)
        i11, i12, i22 = g.inverse_fields()
        x, y = 0.3, -0.4
        m, det, _ = g.values_at(x, y)
        inv = np.linalg.inv(m)
        assert i11(x, y) == pytest.approx(inv[0, 0], rel=1e-12)
        assert i12(x, y) == pytest.approx(inv[0, 1], rel=1e-12)
        assert i22(x, y) == pytest.approx(inv[1, 1], rel=1e-12)


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
    def test_identity_for_equal_metrics(self):
        g = pq.Metric2.from_exprs("2 + x", "x * y / 4", "3 - y", UNIT)
        assert np.allclose(g_tensor_at(g, g, 0.3, 0.2), np.eye(2))

    def test_scalar_for_proportional(self):
        g = euclidean()
        gbar = pq.Metric2.from_exprs("3", "0", "3", UNIT)
        assert np.allclose(g_tensor_at(g, gbar, 0.0, 0.0), 3.0 * np.eye(2))


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

    def test_counts_sum_to_grid(self):
        g = euclidean()
        gbar = pq.Metric2.from_exprs("2 + x", "0", "1", UNIT)
        res = pq.classify_pair(g, gbar)
        assert sum(res.counts.values()) == 25
