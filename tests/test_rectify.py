import gc
import weakref
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projeq as pq
from projeq import fields
from projeq.dynamics import QuadraticForm
from projeq.errors import (AmbiguousCase, CoefficientVanishes, InvalidArgument, NonMonotone,
                           NotAnIntegral, NotAxisAligned, NotCase1, NotCase3, NotHolomorphic,
                           RectifyError, TrivialIntegral, YhatVanishes)
from projeq.expr import Jet2
from projeq.fields import Monotone1D, QuadratureMap, QuinticHermite, ScalarField
from projeq.rectify import bk_normalize, solve_case1, solve_case2, solve_case3

from conftest import random_admissible_change
from pointwise import case1_by_point_set, case3_by_point_set

UNIT = pq.Chart((-1.0, 1.0), (-1.0, 1.0), (9, 9))
# one null-form-capable spec per family, on a chart of the caller's choice
FAMILY_SPECS = [
    lambda chart: pq.LiouvilleSpec("3 + x/4 - x^2/5", "0.55 + y/7", "-", chart),
    lambda chart: pq.ComplexLiouvilleSpec("z^2", chart),
    lambda chart: pq.JordanBlockSpec("3/2 + y/10 - y^3/20", chart),
]


def null_metric(f, chart=UNIT):
    return pq.NullFormMetric.from_expr(f, chart)


class TestAdmissibleChange:
    def test_transformation_law(self):
        # x_new = 2x: a scales by (dx_new/dx_old)^2 = 4, f by 1/2
        chart = pq.Chart((1.0, 2.0), (0.0, 1.0), (5, 5))
        nf = null_metric("3", chart)
        F = QuadraticForm.from_exprs("1", "0", "1", chart)
        nf2, F2 = pq.apply_admissible_change(nf, F, pq.AdmissibleChange("2*x", "y"))
        assert nf2.chart.x_range == (2.0, 4.0)
        assert F2.a(3.0, 0.5) == pytest.approx(4.0)
        assert F2.c(3.0, 0.5) == pytest.approx(1.0)
        assert nf2.f(3.0, 0.5) == pytest.approx(1.5)

    @pytest.mark.parametrize("phi, psi, name", [(3, "y", "phi"), ("x", None, "psi")])
    def test_a_change_that_is_no_expression_is_refused(self, phi, psi, name):
        """Unchecked, a number reached the compiler: TypeError: not an Expr."""
        with pytest.raises(InvalidArgument, match=f"^{name} must be an expression"):
            pq.AdmissibleChange(phi, psi).maps(pq.Chart((-1, 1), (0, 1)))

    def test_decreasing_map_rejected(self):
        with pytest.raises(NonMonotone) as ei:
            pq.AdmissibleChange("x^2", "y").maps(pq.Chart((-1, 1), (0, 1)))
        assert str(ei.value) == "derivative -2.000e+00 <= 0 at t = -1"

    def test_integral_survives_change(self):
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10", chart))
        nf = pq.null_form_of(pair.g)
        nf2, F2 = pq.apply_admissible_change(nf, pair.F,
                                             pq.AdmissibleChange("x + x^2/8", "y - y^3/10"))
        assert pq.verify_integral(nf2, F2, method="sys").passed

    def test_round_trip_through_inverse_maps(self):
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (7, 7))
        nf = null_metric("2 + x/4 + y/5", chart)
        F = QuadraticForm.from_exprs("1 + x/9", "0", "1 - y/7", chart)
        xmap, ymap = pq.AdmissibleChange("x + x^2/8", "2*y").maps(chart)
        nf2, F2 = pq.transform_separable(nf, F, xmap, ymap)
        # the closed-form inverses, on the ranges of xmap and ymap
        inverses = pq.AdmissibleChange("4*(sqrt(1 + x/2) - 1)", "y/2").maps(nf2.chart)
        nf3, F3 = pq.transform_separable(nf2, F2, *inverses)
        for x, y in pq.Chart((0.55, 1.45), (0.55, 1.15), (4, 4)).points():
            assert nf3.f(x, y) == pytest.approx(nf.f(x, y), rel=1e-9)
            assert F3.a(x, y) == pytest.approx(F.a(x, y), rel=1e-9)


def sweep(nf, F):
    """Every slot of f, a, b and c over the chart grid."""
    jets = [field.on(nf.chart) for field in (nf.f, F.a, F.b, F.c)]
    return [getattr(j, slot) for j in jets for slot in Jet2.__slots__]


@settings(max_examples=12, deadline=None)
@given(family=st.sampled_from(range(len(FAMILY_SPECS))), seed=st.integers(0, 2**32 - 1))
def test_integral_survives_random_admissible_changes(family, seed):
    """{H, F} = 0 is invariant under monotone polynomial changes of each
    null coordinate, and sweeping the transformed fields again, or a fresh
    copy of them, gives the same jets bit for bit."""
    chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (9, 9))
    pair = pq.generate(FAMILY_SPECS[family](chart))
    nf, F, _ = pq.to_null_form(pair.g, pair.F)
    change = random_admissible_change(np.random.default_rng(seed), nf.chart)
    nf2, F2 = pq.apply_admissible_change(nf, F, change)
    report = pq.verify_integral(nf2, F2, method="sys")
    assert report.passed and report.max_residual < report.tolerance
    first = sweep(nf2, F2)
    for again in (sweep(nf2, F2), sweep(*pq.apply_admissible_change(nf, F, change))):
        assert all(np.array_equal(a, b) for a, b in zip(first, again, strict=True))


class TestBKNormalize:
    def test_constant_coefficient(self):
        # a = 4 -> x_new = x/2 (up to base point); a_new = 1
        chart = pq.Chart((1.0, 2.0), (0.0, 1.0), (5, 5))
        bk = bk_normalize(null_metric("1", chart),
                          QuadraticForm.from_exprs("4", "0", "1", chart))
        assert bk.sign_a == 1
        ts = np.linspace(1.0, 2.0, 7)
        for t in ts:
            assert bk.xmap(float(t)) - bk.xmap(1.0) == pytest.approx((t - 1.0) / 2)
        u = 0.5 * sum(bk.metric.chart.x_range)
        v = 0.5 * sum(bk.metric.chart.y_range)
        assert bk.integral.a(u, v) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_coefficient_gives_log(self):
        # a = x^2 on [1, 2] -> x_new = ln x (up to base point)
        chart = pq.Chart((1.0, 2.0), (0.0, 1.0), (5, 5))
        bk = bk_normalize(null_metric("1", chart),
                          QuadraticForm.from_exprs("x^2", "0", "1", chart))
        for t in np.linspace(1.0, 2.0, 9):
            assert bk.xmap(float(t)) - bk.xmap(1.0) == pytest.approx(np.log(t), abs=1e-10)
        u, v = bk.metric.chart.center
        assert bk.integral.a(u, v) == pytest.approx(1.0, abs=1e-8)

    def test_negative_coefficient_sign(self):
        chart = pq.Chart((1.0, 2.0), (0.0, 1.0), (5, 5))
        bk = bk_normalize(null_metric("1", chart),
                          QuadraticForm.from_exprs("-4", "0", "9", chart))
        assert bk.sign_a == -1 and bk.sign_c == 1
        u, v = bk.metric.chart.center
        assert bk.integral.a(u, v) == pytest.approx(-1.0, abs=1e-12)
        assert bk.integral.c(u, v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_axis_keeps_identity(self):
        chart = pq.Chart((1.0, 2.0), (0.0, 1.0), (5, 5))
        bk = bk_normalize(null_metric("1", chart),
                          QuadraticForm.from_exprs("1", "0", "0", chart))
        assert bk.sign_c == 0
        assert bk.ymap(0.3) == 0.3

    def test_y_dependent_a_rejected(self):
        chart = pq.Chart((1.0, 2.0), (0.0, 1.0), (5, 5))
        with pytest.raises(NotAxisAligned):
            bk_normalize(null_metric("1", chart),
                         QuadraticForm.from_exprs("1 + y", "0", "1", chart))

    def test_vanishing_coefficient_rejected(self):
        chart = pq.Chart((-1.0, 1.0), (0.0, 1.0), (5, 5))
        with pytest.raises(CoefficientVanishes):
            bk_normalize(null_metric("1", chart),
                         QuadraticForm.from_exprs("x", "0", "1", chart))


class TestCaseSolvers:
    def test_case1_liouville_readoff(self):
        # build the a = c = 1 normal data directly from X, Y
        chart = pq.Chart((-0.5, 0.5), (-0.4, 0.4), (11, 11))
        # X_T(u) = 2 + 0.3 u, Y_T(v) = -1 - 0.2 v^2 at normal-form scale;
        # sampled scale: X_s = -16 X_T, Y_s = -16 Y_T, f = (Y_s - X_s)/4
        f = ScalarField.from_expr(pq.parse("(-16*(-1 - 0.2*(x - y)^2) - -16*(2 + 0.3*(x + y))) / 4"))
        b = ScalarField.from_expr(pq.parse(
            "2 * (-16*(2 + 0.3*(x + y)) + -16*(-1 - 0.2*(x - y)^2))"
            " / (-16*(-1 - 0.2*(x - y)^2) - -16*(2 + 0.3*(x + y)))"))
        nf = pq.NullFormMetric(f, chart)
        F = QuadraticForm(ScalarField.constant(1.0), b, ScalarField.constant(1.0), chart)
        res = solve_case1(nf, F)
        assert res.family == "liouville"
        assert res.reconstruction_residual < 1e-9
        # normal-form-scale functions: X_T = -X_s/16
        assert res.X(0.1) == pytest.approx(2.0 + 0.03, abs=1e-9)
        assert res.Y(0.2) == pytest.approx(-1.0 - 0.2 * 0.04, abs=1e-9)

    def test_case1_rejects_wrong_structure(self):
        chart = pq.Chart((-0.5, 0.5), (-0.4, 0.4), (7, 7))
        nf = null_metric("2 + x*y/2", chart)
        F = QuadraticForm.from_exprs("1", "0", "1", chart)
        with pytest.raises(NotCase1):
            solve_case1(nf, F)

    def test_case2_recovers_holomorphic(self):
        # f = Im(h)/2, b = 2 Re(h)/Im(h) with h = 4 z^2 gives fb = Re, 2f = Im
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (11, 11))
        f = ScalarField.from_expr(pq.parse("4*x*y"))              # Im(4 z^2)/2
        b = ScalarField.from_expr(pq.parse("(x^2 - y^2)/(x*y)"))  # Re(h)/f
        nf = pq.NullFormMetric(f, chart)
        F = QuadraticForm(ScalarField.constant(1.0), b, ScalarField.constant(-1.0), chart)
        res = solve_case2(nf, F)
        assert res.cr_residual < 1e-12
        z = complex(res.xs[3], res.ys[4])
        assert res.h_samples[3, 4] == pytest.approx(4 * z * z, rel=1e-12)

    def test_case2_rejects_non_holomorphic(self):
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (7, 7))
        nf = null_metric("2 + x^2", chart)
        F = QuadraticForm.from_exprs("1", "1/2", "-1", chart)
        with pytest.raises(NotHolomorphic):
            solve_case2(nf, F)

    def test_case3_flat_example(self):
        # f = 1, b = 0: Y = 0, Yhat = 1, beta'(y) = 1
        chart = pq.Chart((-0.5, 0.5), (-0.5, 0.5), (7, 7))
        nf = null_metric("1", chart)
        F = QuadraticForm.from_exprs("1", "0", "0", chart)
        res = solve_case3(nf, F)
        assert res.final_residual < 1e-10
        assert np.allclose(res.Y_values, 0.0, atol=1e-12)
        assert np.allclose(res.Yhat_values, 1.0, atol=1e-12)
        assert res.beta.fjet(0.2)[1] == pytest.approx(1.0)

    def test_case3_generated_family(self):
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10 + y^2/20", chart))
        nf = pq.null_form_of(pair.g)
        res = solve_case3(nf, pair.F)
        assert res.final_residual < 1e-9
        # recovered Y at the new coordinate maps back to Y(y_old)
        for t, Yv in zip(res.y_new_grid[::5], res.Y_values[::5]):
            y_old = res.beta.inverse(float(t))
            assert Yv == pytest.approx(1.5 + y_old / 10 + y_old**2 / 20, rel=1e-8)

    def test_case3_second_derivative_at_the_chart_ends(self):
        """Yhat'' of the rectifying map is a difference of Yhat'; where the
        central difference would leave the chart it is one-sided, and of
        second order, so it holds to 1e-6 at both ends too."""
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5), (9, 9))
        # f = x Y'(y) + Yhat(y) and f b = -2 Y(y), for Y = y/5
        yhat = "(2 + y/4 + y^2/5 + y^3 + y^4)"
        nf = null_metric(f"x/5 + {yhat}", chart)
        F = QuadraticForm.from_exprs("1", f"-2*(y/5)/(x/5 + {yhat})", "0", chart)
        res = solve_case3(nf, F)
        ends = np.array(chart.y_range)
        exact = 0.4 + 6.0 * ends + 12.0 * ends ** 2
        assert np.all(np.abs(res.beta.fjet(ends)[3] - exact) <= 1e-6)
        for t, d2 in zip(ends.tolist(), exact):
            assert res.beta.fjet(t)[3] == pytest.approx(d2, abs=1e-6)

    def test_case3_rejects_x_dependence(self):
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5), (7, 7))
        nf = null_metric("2 + x^2/4", chart)
        F = QuadraticForm.from_exprs("1", "x/4", "0", chart)
        with pytest.raises(NotCase3):
            solve_case3(nf, F)

    # f = x Y' + Yhat and f b = -2 Y with Y = y on x in (1, 2): the case-3
    # solver reads Yhat = f - x_ref Y' at the chart's centre
    CASE3_CHART = pq.Chart((1.0, 2.0), (-0.5, 0.5), (7, 7))

    @pytest.mark.parametrize("f, error", [
        ("x - 0.5", NotCase3),        # Yhat = -1/2 < 0 on the whole chart
        ("x + y", YhatVanishes),      # Yhat = y changes sign at y = 0
    ])
    def test_case3_rejects_a_yhat_that_is_not_positive(self, f, error):
        nf = null_metric(f, self.CASE3_CHART)
        F = QuadraticForm.from_exprs("1", f"-2*y/({f})", "0", self.CASE3_CHART)
        with pytest.raises(error):
            solve_case3(nf, F)
        # the pipeline accepts both: bk_normalize recentres x, and there
        # f > 0 forces Yhat > 0
        assert pq.rectification_pipeline(nf, F).case == 3


class TestToNullForm:
    def test_already_null(self):
        nf = null_metric("2 + x/3", UNIT)
        F = QuadraticForm.from_exprs("1", "0", "1", UNIT)
        nf2, F2, info = pq.to_null_form(nf, F)
        assert nf2 is nf
        assert np.allclose(info.M, np.eye(2))

    def test_constant_slopes_diagonal(self):
        # (X - Y)(dx^2 - dy^2): null slopes are +-1
        chart = pq.Chart((-0.5, 0.5), (0.2, 0.9))
        pair = pq.generate(pq.LiouvilleSpec("3 + x/4", "y", "-", chart))
        nf, F2, info = pq.to_null_form(pair.g, pair.F)
        assert pq.verify_integral(nf, F2, method="sys").passed
        # isometry: H values agree at mapped points
        s_new_xy = nf.chart.center
        old = info.M @ np.array(s_new_xy)
        h_old = pq.hamiltonian(pair.g, pq.PhaseState(old[0], old[1], 0.3, 0.7))
        # covectors transform by p_new = M^T p_old
        p_new = info.M.T @ np.array([0.3, 0.7])
        h_new = pq.hamiltonian(nf.to_metric2(),
                               pq.PhaseState(*s_new_xy, float(p_new[0]), float(p_new[1])))
        assert h_new == pytest.approx(h_old, rel=1e-10)

    def test_riemannian_rejected(self):
        chart = pq.Chart((-0.5, 0.5), (0.2, 0.9))
        pair = pq.generate(pq.LiouvilleSpec("3 + x/4", "y", "+", chart))
        with pytest.raises(pq.SignatureMismatch):
            pq.to_null_form(pair.g, pair.F)

    def test_null_direction_along_dy_rejected(self):
        g = pq.Metric2.from_exprs("1", "1", "0", UNIT)
        F = QuadraticForm.from_exprs("1", "0", "1", UNIT)
        with pytest.raises(RectifyError) as ei:
            pq.to_null_form(g, F)
        assert str(ei.value) == "null direction along dy; swap coordinates first"

    def test_varying_slopes_rejected(self):
        g = pq.Metric2.from_exprs("1 + x/2", "0", "-1", UNIT)
        F = QuadraticForm.from_exprs("1", "0", "1", UNIT)
        with pytest.raises(RectifyError):
            pq.to_null_form(g, F)


class TestPipeline:
    def test_trivial_integral_rejected(self):
        nf = null_metric("2 + x/3 + y/5", UNIT)
        F = QuadraticForm(ScalarField.constant(0.0), 3.0 * 2.0 / nf.f,
                          ScalarField.constant(0.0), UNIT)
        with pytest.raises(TrivialIntegral):
            pq.rectification_pipeline(nf, F)

    def test_non_integral_rejected(self):
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10", chart))
        nf = pq.null_form_of(pair.g)
        Fbad = QuadraticForm(pair.F.a, pair.F.b + ScalarField.coordinate("x") * 0.01,
                             pair.F.c, chart)
        with pytest.raises(NotAnIntegral):
            pq.rectification_pipeline(nf, Fbad)

    def test_sign_change_ambiguous(self):
        nf = null_metric("1", UNIT)
        F = QuadraticForm.from_exprs("x", "0", "1", UNIT)
        with pytest.raises((AmbiguousCase, NotAnIntegral)):
            pq.rectification_pipeline(nf, F)

    def test_coefficient_changing_sign_is_ambiguous(self):
        chart = pq.Chart((-0.3, 0.3), (-0.3, 0.3), (9, 9))
        F = QuadraticForm.from_exprs("1", "x", "-y", chart)
        with pytest.raises(AmbiguousCase, match="coefficient c changes sign"):
            pq.rectification_pipeline(null_metric("1", chart), F)

    def test_negative_a_flips_integral(self):
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10", chart))
        nf = pq.null_form_of(pair.g)
        out = pq.rectification_pipeline(nf, pair.F.scaled(-1.0))
        assert out.case == 3
        assert out.flipped_integral

    def test_swapped_axes_when_a_vanishes(self):
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10", chart))
        nf = pq.null_form_of(pair.g)
        swapped = QuadraticForm(pair.F.c, pair.F.b, pair.F.a, chart)
        # F in x<->y swapped roles: c = 1, a = 0 forces an axis swap; the
        # swapped metric is f(y, x) though, so feed the swapped problem
        f_sw = ScalarField(lambda x, y: nf.f.jet(y, x))
        # careful: jets must be transposed, use compose_linear instead
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        chart_sw = pq.Chart(chart.y_range, chart.x_range)
        nf_sw = pq.NullFormMetric(nf.f.compose_linear(M), chart_sw)
        F_sw = QuadraticForm(pair.F.c.compose_linear(M), pair.F.b.compose_linear(M),
                             pair.F.a.compose_linear(M), chart_sw)
        out = pq.rectification_pipeline(nf_sw, F_sw)
        assert out.case == 3
        assert out.swapped_axes

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_scalar_inverse_calls_do_not_grow_with_the_grid(self, spec, monkeypatch):
        """Sweeps invert maps on whole arrays: the number of float inversions
        in one pipeline run must not depend on the grid size."""
        inverse = Monotone1D.inverse
        calls = []

        def counted(self, u):
            calls.append(not isinstance(u, np.ndarray))
            return inverse(self, u)

        monkeypatch.setattr(Monotone1D, "inverse", counted)
        scalar = []
        for n in (7, 15):
            chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (n, n))
            pair = pq.generate(spec(chart))
            nf, F, _ = pq.to_null_form(pair.g, pair.F)
            nf2, F2 = pq.apply_admissible_change(
                nf, F, pq.AdmissibleChange("x + x^2/20", "y - y^3/30"))
            calls.clear()
            pq.rectification_pipeline(nf2, F2)
            assert len(calls) > 0
            scalar.append(sum(calls))
        assert scalar[0] == scalar[1]

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_repeated_inversions_are_not_solved_again(self, spec, monkeypatch):
        """Composed fields invert the same maps on the same inputs many
        times in one pipeline run; each map keeps its recent inputs, so no
        map runs the root finder twice on one input (by the key of the
        store) in that run."""
        inverse, solve = Monotone1D.inverse, fields.brentq
        finds, solved, again = [0], set(), []

        def counted_inverse(self, u):
            before = finds[0]
            t = inverse(self, u)
            if finds[0] > before:       # this call ran the root finder
                key = (self, fields._input_key(u))
                if key in solved:
                    again.append(key)
                solved.add(key)
            return t

        def counted_brentq(*args):
            finds[0] += 1
            return solve(*args)

        monkeypatch.setattr(Monotone1D, "inverse", counted_inverse)
        monkeypatch.setattr(fields, "brentq", counted_brentq)
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (11, 11))
        pair = pq.generate(spec(chart))
        nf, F, _ = pq.to_null_form(pair.g, pair.F)
        nf2, F2 = pq.apply_admissible_change(
            nf, F, pq.AdmissibleChange("x + x^2/20", "y - y^3/30"))
        finds[0] = 0
        solved.clear()
        pq.rectification_pipeline(nf2, F2)
        assert finds[0] == len(solved) > 0
        assert again == []

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_each_field_is_swept_once(self, spec, sweeps):
        """No field is evaluated twice on one chart, however often it is
        swept: every ScalarField.on call for one (field, chart) returns the
        same jets, in a pipeline run (the triviality test, the sys check and
        the BK plan read one sweep of F, the case solvers the sweep of f)
        and in a benchmark grid-sweep item."""
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (11, 11))

        def evaluations():
            kept = {}
            for field, on_chart, jets in sweeps:
                kept.setdefault((field, on_chart), set()).add(id(jets))
            assert sweeps
            return {len(ids) for ids in kept.values()}

        pair = pq.generate(spec(chart))
        nf, F, _ = pq.to_null_form(pair.g, pair.F)
        nf2, F2 = pq.apply_admissible_change(
            nf, F, pq.AdmissibleChange("x + x^2/20", "y - y^3/30"))
        for g, form in ((nf2, F2), (pair.g, pair.F)):
            del sweeps[:]
            pq.rectification_pipeline(g, form)
            assert evaluations() == {1}

        del sweeps[:]
        pair = pq.generate(spec(chart))
        if pq.verify_integral(pair.g, pair.F).method == "sys":
            pq.verify_integral(pq.null_form_of(pair.g), pair.F, method="bracket")
        pq.classify_pair(pair.g, pair.gbar)
        pq.triviality_check(pq.hamiltonian_form(pair.g).scaled(3.0), pair.g)
        pq.triviality_check(pair.F, pair.g)
        b_bad = pair.F.b + pq.ScalarField.from_expr(pq.parse("x/100"))
        pq.verify_integral(pair.g, QuadraticForm(pair.F.a, b_bad, pair.F.c, chart))
        assert evaluations() == {1}

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_no_field_is_evaluated_twice_on_one_point_set(self, spec, monkeypatch):
        """A field read by several others under a coordinate change is
        evaluated once per point set, not once per reader: in a pipeline run,
        on a pair pulled through an admissible change and on the generated
        pair itself, no field's function is called twice on the same
        coordinate arrays (a chart's mesh, or the maps' kept inversions that
        every field composed with those maps reads)."""
        init, calls = ScalarField.__init__, []

        def counted_init(field, jet_fn, expr=None):
            if jet_fn is not None:
                fn = jet_fn

                def jet_fn(x, y):
                    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                        calls.append((jet_fn, x, y))    # holds x and y: ids stay unique
                    return fn(x, y)
            init(field, jet_fn, expr)

        monkeypatch.setattr(ScalarField, "__init__", counted_init)
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (11, 11))
        pair = pq.generate(spec(chart))
        nf, F, _ = pq.to_null_form(pair.g, pair.F)
        nf2, F2 = pq.apply_admissible_change(
            nf, F, pq.AdmissibleChange("x + x^2/20", "y - y^3/30"))
        for g, form in ((nf2, F2), (pair.g, pair.F)):
            del calls[:]
            pq.rectification_pipeline(g, form)
            keys = [(id(f), id(x), id(y)) for f, x, y in calls]
            assert keys and len(set(keys)) == len(keys)

    def test_a_rectification_leaves_no_reference_cycle(self):
        """The results a field keeps under a composition's key hold arrays
        only: with the cyclic collector off, a Liouville rectification's
        composed coefficients, maps and report are freed once dropped."""
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (11, 11))
        gc.collect()
        gc.disable()
        try:
            pair = pq.generate(FAMILY_SPECS[0](chart))
            nf, F, _ = pq.to_null_form(pair.g, pair.F)
            nf2, F2 = pq.apply_admissible_change(
                nf, F, pq.AdmissibleChange("x + x^2/20", "y - y^3/30"))
            report = pq.rectification_pipeline(nf2, F2)
            assert report.case == 1
            refs = [weakref.ref(o) for o in (F.a, F2.a, nf2.f, report.bk.integral.b,
                                             report.bk.xmap, report)]
            del pair, nf, F, nf2, F2, report
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_report_serializable(self):
        import json
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10", chart))
        out = pq.rectification_pipeline(pq.null_form_of(pair.g), pair.F)
        blob = json.dumps(out.to_dict())
        assert "jordan_block" in blob


def solver_inputs(spec):
    """A pipeline report on a family's pair pulled through an admissible
    change, with the metric and integral its case solver was given."""
    chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (11, 11))
    pair = pq.generate(spec(chart))
    nf, F, _ = pq.to_null_form(pair.g, pair.F)
    nf2, F2 = pq.apply_admissible_change(
        nf, F, pq.AdmissibleChange("x + x^2/20", "y - y^3/30"))
    report = pq.rectification_pipeline(nf2, F2)
    return report, report.bk.metric, report.bk.integral


def _bits(value):
    """A value's exact bits: an array's dtype, shape and bytes, a Hermite
    fit's tables, a quadrature map's fit and base; else its repr."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, QuinticHermite):
        return tuple(_bits(t) for t in (value._ts, value._value, value._slope, value._area))
    if isinstance(value, QuadratureMap):
        return (_bits(value._fit), value.t0, value._base)
    return repr(value)


class TestOneEvaluationPerPointSet:
    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_results_equal_the_per_point_set_reference(self, spec):
        """Evaluating f and b once on several point sets gives, bit for bit,
        what evaluating each point set on its own gives (tests/pointwise.py):
        every field of the case result, and the rectifying map's jets."""
        report, nf, F = solver_inputs(spec)
        reference = {1: case1_by_point_set, 3: case3_by_point_set}.get(report.case)
        if reference is None:           # case 2 reads grid sweeps only
            assert report.case == 2
            return
        got, want = report.result, reference(nf, F)
        for f in dataclass_fields(got):
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name
        if report.case == 3:
            ts = np.linspace(*nf.chart.y_range, 23)
            assert [_bits(j) for j in got.beta.fjet(ts)] == \
                [_bits(j) for j in want.beta.fjet(ts)]

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_each_point_set_is_evaluated_once(self, spec):
        """Off the chart grid, and per solver call, case 1 evaluates f and b
        once, on both diagonals together, and case 2 not at all.  Case 3
        evaluates them once on each point set with its two difference points
        at x_ref: the grid's ys, the quadrature knots, y_old and the new
        mesh's preimage (through the map's jets); and once more each, composed,
        on that preimage.  No call repeats the points of another."""
        report, nf, F = solver_inputs(spec)
        chart = nf.chart
        calls = {"f": [], "b": []}

        def counted(name, field):
            def jet(x, y):
                if y is not chart.mesh[1]:
                    calls[name].append((x, y))
                return field.jet(x, y)
            return ScalarField(jet)

        solver = {1: solve_case1, 2: solve_case2, 3: solve_case3}[report.case]
        res = solver(pq.NullFormMetric(counted("f", nf.f), chart),
                     QuadraticForm(F.a, counted("b", F.b), F.c, chart))
        for seen in calls.values():
            points = [tuple(a.tobytes() for a in np.broadcast_arrays(x, y)) for x, y in seen]
            assert len(set(points)) == len(points)
            if report.case == 1:
                assert [np.shape(y) for _, y in seen] == [(2 * 129,)]
            elif report.case == 2:
                assert seen == []
            else:
                # each call at x_ref stacks a point set and its difference points
                sets = [y[0] for x, y in seen if np.ndim(x) == 0]
                knots = np.linspace(*chart.y_range, fields._QUADRATURE_SAMPLES)
                y_old = res.beta.inverse(res.y_new_grid)
                assert len(seen) == 5 and len(sets) == 4
                for want in (chart.ys, knots, y_old):
                    assert sum(np.array_equal(t, want) for t in sets) == 1

    def test_map_jets_at_a_float_are_floats(self):
        """The case-3 map's jets at a float are floats, with the bits of the
        same point in an array, inside the chart and at both ends."""
        report, nf, _ = solver_inputs(FAMILY_SPECS[2])
        beta = report.result.beta
        ylo, yhi = nf.chart.y_range
        for t in (ylo, 0.3 * ylo + 0.7 * yhi, yhi):
            jets = beta.fjet(t)
            assert [type(j) for j in jets] == [float] * 4
            assert [repr(j) for j in jets] == \
                [repr(float(a[0])) for a in beta.fjet(np.array([t]))]
