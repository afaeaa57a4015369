import gc
import math
import re
import weakref

import numpy as np
import pytest

import projeq as pq
from projeq import cli
from projeq.dynamics import hamiltonian_form
from projeq.errors import DomainError, InvalidArgument, SignatureMismatch
from projeq.expr import BinOp, Num

from conftest import perturbed
from pointwise import bracket_from_sys, max_normalized, projective_integral_I, sys_residuals

UNIT = pq.Chart((-1.0, 1.0), (-1.0, 1.0), (5, 5))
# generated pairs whose g has g11 = g22 = 0 exactly
NULL_FORM_SPECS = {
    "complex_liouville": lambda: pq.ComplexLiouvilleSpec(
        "z^2", pq.Chart((0.5, 1.5), (0.5, 1.2), (9, 8))),
    "jordan_block": lambda: pq.JordanBlockSpec(
        "3/2 + y/10 - y^2/8", pq.Chart((-0.4, 0.4), (-0.5, 0.5), (9, 8))),
}


class TestNullForm:
    def test_recognized(self):
        g = pq.Metric2.from_exprs("0", "1 + x/4", "0", UNIT)
        nf = pq.null_form_of(g)
        assert nf is not None
        assert nf.f(0.4, 0.0) == pytest.approx(2.0 * (1 + 0.1))

    def test_not_recognized(self):
        g = pq.Metric2.from_exprs("1", "0", "-1", UNIT)
        assert pq.null_form_of(g) is None

    def test_kept_sweep_and_metric_are_fresh_sweeps(self):
        """The sweep of f that a null-form metric's construction made, and
        that f keeps, has the bits of a fresh sweep of an equal field on an
        equal chart, read-only; its Metric2 is the metric with entries 0,
        f/2, 0."""
        text = "2 + x/3 + y^2/5 + x*y/7"
        nf = pq.NullFormMetric.from_expr(text, UNIT)
        equal_chart = pq.Chart(UNIT.x_range, UNIT.y_range, UNIT.grid)
        kept = nf.f.on(equal_chart)
        assert kept is nf.f.on(UNIT)
        fresh = pq.ScalarField.from_expr(pq.parse(text)).on(equal_chart)
        for slot in pq.Jet2.__slots__:
            assert getattr(kept, slot).tobytes() == getattr(fresh, slot).tobytes()
            assert not getattr(kept, slot).flags.writeable
        g = nf.to_metric2()
        zero = pq.ScalarField.constant(0.0)
        swept = pq.Metric2(zero, nf.f * 0.5, zero, UNIT)
        for got, want in zip((*g.values, g.det), (*swept.values, swept.det), strict=True):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert g.signature == swept.signature == ("+", "-")
        for got, want in zip(g.jets_at(0.3, -0.2), swept.jets_at(0.3, -0.2), strict=True):
            assert [getattr(got, s) for s in pq.Jet2.__slots__] == \
                [getattr(want, s) for s in pq.Jet2.__slots__]

    @pytest.mark.parametrize("family", sorted(NULL_FORM_SPECS))
    def test_a_null_form_metric_is_its_null_forms_metric(self, family):
        """For g with g11 = g22 = 0 exactly, as generated complex-Liouville
        and Jordan-block metrics are, to_metric2() of g's null form is g, so
        the bracket route reads g's Hamiltonian and the sweeps it keeps.  Its
        report is bit for bit that of a fresh null form, which builds its
        own metric (0, f/2, 0)."""
        pair = pq.generate(NULL_FORM_SPECS[family]())
        nf = pq.null_form_of(pair.g)
        assert nf.to_metric2() is pair.g
        got = pq.verify_integral(nf, pair.F, "bracket")
        assert pq.hamiltonian_form(nf.to_metric2()) is pq.hamiltonian_form(pair.g)
        fresh = pq.NullFormMetric(nf.f, nf.chart)
        assert fresh.to_metric2() is not pair.g
        want = pq.verify_integral(fresh, pair.F, "bracket")
        assert got.max_residual.hex() == want.max_residual.hex()
        assert got.to_dict() == want.to_dict()

    def test_the_link_back_is_weak(self):
        """g keeps its null form (Metric2.derived), so the null form's link
        back to g is weak: with the cyclic collector off, dropping g after
        to_metric2() frees it."""
        pair = pq.generate(NULL_FORM_SPECS["jordan_block"]())
        g = pair.g
        nf = pq.null_form_of(g)
        gc.collect()
        gc.disable()
        try:
            assert nf.to_metric2() is g
            ref = weakref.ref(g)
            del g, pair
            assert ref() is None
        finally:
            gc.enable()

    def test_the_cli_keeps_the_null_form_it_parsed(self):
        """A metric given to the CLI as f reads back the null form parsed from
        f, not a second one built as (f/2)*2, and that null form reads back
        the metric."""
        g = cli._metric_from({"metric": {"f": "2 + x*y"}}, "metric", UNIT)
        nf = pq.null_form_of(g)
        assert g.g12.expr == BinOp("*", nf.f.expr, Num(0.5)) and g.g12._op[1][0] is nf.f
        assert pq.render(nf.f.expr) == "2.0+x*y"
        assert nf.to_metric2() is g and pq.null_form_of(g) is nf
        assert g.g11 is g.g22 and g.g11.expr == Num(0.0)

    def test_a_cli_metric_and_its_null_form_form_no_cycle(self):
        """With the cyclic collector off, dropping the metric the CLI parsed
        and its null form frees both."""
        gc.collect()
        gc.disable()
        try:
            g = cli._metric_from({"metric": {"f": "1 + x/10"}}, "metric", UNIT)
            nf = pq.null_form_of(g)
            refs = [weakref.ref(g), weakref.ref(nf)]
            del g, nf
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_a_null_form_that_outlives_its_metric_builds_one(self):
        """Once g is gone, to_metric2() builds the metric (0, f/2, 0) on its
        first call and returns that object on every later one."""
        pair = pq.generate(NULL_FORM_SPECS["complex_liouville"]())
        g = pair.g
        nf = pq.null_form_of(g)
        assert nf.to_metric2() is g
        values = [v.copy() for v in g.values]
        del g, pair
        gc.collect()
        built = nf.to_metric2()
        assert built is nf.to_metric2() is nf.to_metric2()
        assert built.g11.expr == Num(0.0) and built.g22 is built.g11
        assert built.g12.expr == BinOp("*", nf.f.expr, Num(0.5))
        for got, want in zip(built.values, values, strict=True):
            assert got.tobytes() == want.tobytes()

    def test_only_an_exact_zero_diagonal_reads_back_its_metric(self):
        """A metric whose g11 is a non-constant field, a tiny non-zero
        constant within NULL_FORM_TOL, or -0.0, is a null form too, but not
        the metric to_metric2() builds: that null form builds its own."""
        g12 = "1 + x/4"
        zero, minus = pq.ScalarField.constant(0.0), pq.ScalarField.constant(-0.0)
        own = [pq.Metric2.from_exprs(g11, g12, "0", UNIT) for g11 in ("1e-14", "1e-14*x")]
        own.append(pq.Metric2(minus, pq.ScalarField.from_expr(pq.parse(g12)), zero, UNIT))
        exact = pq.Metric2.from_exprs("0", g12, "0", UNIT)
        assert pq.null_form_of(exact).to_metric2() is exact
        for g in own:
            nf = pq.null_form_of(g)
            assert nf is not None
            built = nf.to_metric2()
            assert built is not g and built is nf.to_metric2()
            assert built.g11.expr == Num(0.0) and built.g22 is built.g11


def lowered(g, x, y, xi):
    """The phase-space state at (x, y) whose velocity g^{-1} p is xi."""
    m, _, _ = pq.metric_at(g, x, y)
    return pq.PhaseState(x, y, *(m @ np.array(xi)).tolist())


class TestProjectiveIntegralI:
    def test_equal_metrics(self):
        # gbar = g -> I = g(xi, xi), also by the per-point reference
        g = pq.Metric2.from_exprs("2 + x", "x * y / 4", "3 - y", UNIT)
        xi = (0.7, -0.4)
        v = pq.projective_integral_momentum(g, g, lowered(g, 0.3, 0.2, xi))
        m, _, _ = pq.metric_at(g, 0.3, 0.2)
        assert v == pytest.approx(float(np.array(xi) @ m @ np.array(xi)), rel=1e-12)
        assert v == pytest.approx(projective_integral_I(g, g, 0.3, 0.2, xi), rel=1e-12)

    def test_scaled_metric(self):
        # gbar = c g -> I = c^{-1/3} g(xi, xi)
        g = pq.Metric2.from_exprs("2 + x", "0", "3 - y", UNIT)
        gbar = g.scaled(5.0)
        s = lowered(g, 0.3, 0.2, (0.7, -0.4))
        got = pq.projective_integral_momentum(g, gbar, s)
        want = 5.0 ** (-1.0 / 3.0) * pq.projective_integral_momentum(g, g, s)
        assert got == pytest.approx(want, rel=1e-12)

    def test_signature_mismatch_raises(self):
        """The message names the determinant ratio and the point: the CLI
        generate report prints it under projective_integral_fit.skipped."""
        g = pq.Metric2.from_exprs("1", "0", "1", UNIT)       # det > 0
        gbar = pq.Metric2.from_exprs("1", "0", "-1", UNIT)   # det < 0
        with pytest.raises(SignatureMismatch,
                           match=r"^det ratio -1\.000e\+00 <= 0 at \(0, 0\); signatures differ$"):
            pq.projective_integral_momentum(g, gbar, pq.PhaseState(0.0, 0.0, 1.0, 0.0))

    def test_liouville_closed_form(self):
        # I = -(X py^2 - Y px^2) / (X - Y) = -F for the sign '-' family
        chart = pq.Chart((-0.5, 0.5), (0.2, 0.9))
        pair = pq.generate(pq.LiouvilleSpec("3 + x^2/2", "y", "-", chart))
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = pq.PhaseState(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 0.9),
                              rng.uniform(-1, 1), rng.uniform(-1, 1))
            I = pq.projective_integral_momentum(pair.g, pair.gbar, s)
            F = pq.quadratic_value(pair.F, s)
            assert I == pytest.approx(-F, rel=1e-9, abs=1e-12)


class TestSysResiduals:
    def test_vanish_for_generated_integral(self):
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10", chart))
        nf = pq.null_form_of(pair.g)
        for x, y in chart.points():
            assert max_normalized(*sys_residuals(nf.f, pair.F, x, y)) < 1e-10

    def test_match_poisson_bracket(self):
        # the four residuals reassemble the library's {H, F}
        nf = pq.NullFormMetric.from_expr("2 + x/3 + y/5", UNIT)
        F = pq.QuadraticForm.from_exprs("1 + y^2", "x * y", "2 - x", UNIT)
        g = nf.to_metric2()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.uniform(-0.9, 0.9, 2)
            px, py = rng.uniform(-1, 1, 2)
            res, _ = sys_residuals(nf.f, F, x, y)
            want = pq.poisson_bracket(g, F, pq.PhaseState(x, y, px, py))
            got = bracket_from_sys(nf.f, res, x, y, px, py)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestVerifyIntegral:
    def test_sys_and_bracket_agree(self):
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2))
        pair = pq.generate(pq.ComplexLiouvilleSpec("z^2", chart))
        nf = pq.null_form_of(pair.g)
        r_sys = pq.verify_integral(nf, pair.F, method="sys")
        r_br = pq.verify_integral(nf, pair.F, method="bracket")
        assert r_sys.passed and r_br.passed
        assert abs(r_sys.max_residual - r_br.max_residual) < 1e-9

    def test_detects_non_integral(self):
        nf = pq.NullFormMetric.from_expr("2 + x/3", UNIT)
        F = pq.QuadraticForm.from_exprs("1 + y", "0", "1", UNIT)  # a_y != 0
        rep = pq.verify_integral(nf, F)
        assert not rep.passed
        assert rep.max_residual > 1e-4

    def test_general_metric_bracket_route(self):
        g = pq.Metric2.from_exprs("1", "0", "1", UNIT)
        F = pq.QuadraticForm.from_exprs("0", "0", "1", UNIT)  # py^2 Killing
        rep = pq.verify_integral(g, F)
        assert rep.method == "bracket"
        assert rep.passed

    def test_only_the_bracket_route_builds_a_metric(self, monkeypatch):
        """The sys route reads f and F alone; only the bracket route builds
        the Metric2 of a null form, for its Hamiltonian."""
        built = []
        to_metric2 = pq.NullFormMetric.to_metric2
        monkeypatch.setattr(pq.NullFormMetric, "to_metric2",
                            lambda nf: built.append(nf) or to_metric2(nf))
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5), (11, 11))
        pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10", chart))
        nf, F = pq.null_form_of(pair.g), pair.F
        for method in ("sys", "auto"):
            assert pq.verify_integral(nf, F, method).method == "sys"
        assert built == []
        assert pq.verify_integral(nf, F, "bracket").passed
        assert built == [nf]

    def test_sys_route_reads_a_null_form_whose_det_overflows(self):
        """f = 1e155 makes det g = -f^2/4 overflow: the bracket route, which
        needs g, raises; the sys route never forms det g and reports."""
        chart = pq.Chart((0.0, 1.0), (0.0, 1.0), (3, 3))
        nf = pq.NullFormMetric.from_expr("1e155", chart)
        F = pq.QuadraticForm.from_exprs("1", "0", "1", chart)
        rep = pq.verify_integral(nf, F, "sys")
        assert (rep.max_residual, rep.passed) == (0.0, True)
        with pytest.raises(DomainError, match="^det g is not finite"):
            pq.verify_integral(nf, F, "bracket")

    def test_overflowing_normalizer_is_not_finite(self):
        """Where the sys normalizer (1 + |f| + ...)(1 + |a| + |b| + |c|)
        overflows, dividing by it would make every residual 0: verification
        and rectification report the residual as not finite instead."""
        chart = pq.Chart((0.0, 1.0), (0.0, 1.0), (2, 2))
        nf = pq.NullFormMetric.from_expr("sqrt(1e300)", chart)
        F = pq.QuadraticForm.from_exprs("x", "x", "1e300", chart)
        for check in (pq.verify_integral, pq.rectification_pipeline):
            with pytest.raises(DomainError, match="^sys residual is not finite") as e:
                check(nf, F)
            assert e.value.point == (0.0, 0.0)


class TestTriviality:
    def test_scaled_hamiltonian_trivial(self):
        g = pq.Metric2.from_exprs("2 + x", "0", "3 - y", UNIT)
        res = pq.triviality_check(hamiltonian_form(g).scaled(3.0), g)
        assert res.trivial
        assert res.scale == pytest.approx(3.0)

    def test_constant_bf_trivial(self):
        # a = c = 0 and b = 5/f is 5/2 * (the lowered H): trivial
        nf = pq.NullFormMetric.from_expr("2 + x/3 + y/5", UNIT)
        F = pq.QuadraticForm(pq.ScalarField.constant(0.0),
                             5.0 / nf.f, pq.ScalarField.constant(0.0), UNIT)
        assert pq.triviality_check(F, nf.to_metric2()).trivial

    def test_generated_integral_nontrivial(self):
        chart = pq.Chart((-0.5, 0.5), (0.2, 0.9))
        pair = pq.generate(pq.LiouvilleSpec("3 + x^2/2", "y", "-", chart))
        assert not pq.triviality_check(pair.F, pair.g).trivial

    def test_overflowing_inverse_metric_raises(self):
        # det g = 1.024e-309 is not singular() against entries of its size,
        # but 1/det g overflows
        g = pq.Metric2.from_exprs("3.2e-155", "0", "3.2e-155", UNIT)
        F = pq.QuadraticForm.from_exprs("1", "0", "1", UNIT)
        with pytest.raises(DomainError) as e:
            pq.triviality_check(F, g)
        assert e.value.point == (-1.0, -1.0)

    @pytest.mark.parametrize("spec", [
        lambda chart: pq.LiouvilleSpec("3 + x/4 - x^2/5", "0.55 + y/7", "+", chart),
        lambda chart: pq.LiouvilleSpec("3 + x/4 - x^2/5", "0.55 + y/7", "-", chart),
        lambda chart: pq.ComplexLiouvilleSpec("z^2", chart),
        lambda chart: pq.JordanBlockSpec("3/2 + y/10 - y^3/20", chart),
    ])
    def test_reads_the_hamiltonian_off_the_kept_values(self, spec, sweeps):
        """H's coefficients come from the values g keeps, bit for bit those of
        a sweep of hamiltonian_form(g): only F's coefficients are swept."""
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2), (9, 9))
        pair = pq.generate(spec(chart))
        h = [j.v for j in hamiltonian_form(pair.g).on(chart)]
        for F in (pair.F, hamiltonian_form(pair.g).scaled(3.0)):
            del sweeps[:]
            res = pq.triviality_check(F, pair.g)
            assert [call[:2] for call in sweeps] == [(F.a, chart), (F.b, chart), (F.c, chart)]
            fvals = np.stack([j.v for j in F.on(chart)], axis=-1).ravel()
            hvals = np.stack(h, axis=-1).ravel()
            lam = float(fvals @ hvals) / float(hvals @ hvals)
            assert res.scale == lam
            assert res.deviation == float(np.max(np.abs(fvals - lam * hvals)))

    def test_power_of_two_scales_of_f_scale_the_result(self, instances):
        """Scaling F by 2^k (|k| <= 8) is exact in binary floating point, so
        triviality_check's scale and deviation scale by 2^k bit for bit and
        its verdict stays; verification passes F and fails its b + x/100
        control whatever the scale."""
        for i, inst in enumerate(instances):
            g, F = inst["pair"].g, inst["pair"].F
            k = 2.0 ** (i % 17 - 8)
            for form in (F, hamiltonian_form(g).scaled(3.0)):
                res, scaled = pq.triviality_check(form, g), pq.triviality_check(form.scaled(k), g)
                assert (scaled.trivial, scaled.scale, scaled.deviation) == \
                    (res.trivial, k * res.scale, k * res.deviation)
            for form in (F, perturbed(F)):
                assert pq.verify_integral(g, form.scaled(k)).passed == \
                    pq.verify_integral(g, form).passed == (form is F)


class TestFitIntegralCombination:
    def test_recovers_alpha_beta(self):
        chart = pq.Chart((-0.5, 0.5), (0.2, 0.9))
        pair = pq.generate(pq.LiouvilleSpec("3 + x/4", "y", "-", chart))
        rng = np.random.default_rng(11)
        states = [pq.PhaseState(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 0.8),
                                rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(20)]
        alpha, beta, resid, scale = pq.fit_integral_combination(
            pair.g, pair.gbar, pair.F, states)
        assert alpha == pytest.approx(-1.0, rel=1e-9)
        assert abs(beta) < 1e-9
        assert resid < 1e-9 * scale

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_states_are_refused(self, n):
        """Two constants need two states: none raised NumPy's ValueError, and
        one gave an exact "fit" with residual 0."""
        pair = pq.generate(pq.LiouvilleSpec("3 + x/4", "y", "-", pq.Chart((-0.5, 0.5),
                                                                           (0.2, 0.9))))
        states = [pq.PhaseState(0.1, 0.5, 0.3, -0.7)] * n
        with pytest.raises(InvalidArgument, match=f"at least two states, got {n}$"):
            pq.fit_integral_combination(pair.g, pair.gbar, pair.F, states)

    def test_a_non_finite_value_is_a_domain_error(self, capfd):
        """A NaN state once reached LAPACK, which printed DLASCL lines and
        raised LinAlgError."""
        pair = pq.generate(pq.LiouvilleSpec("3 + x/4", "y", "-", pq.Chart((-0.5, 0.5),
                                                                           (0.2, 0.9))))
        states = [pq.PhaseState(0.1, 0.5, 0.3, -0.7), pq.PhaseState(0.2, 0.4, math.nan, 1.0),
                  pq.PhaseState(-0.1, 0.6, 0.5, 0.2)]
        with pytest.raises(DomainError, match="^I, F or H is not finite at state 1: PhaseState"):
            pq.fit_integral_combination(pair.g, pair.gbar, pair.F, states)
        assert capfd.readouterr() == ("", "")


# --- tolerance arguments ----------------------------------------------------------------


def _pair():
    chart = pq.Chart((-0.5, 0.5), (0.2, 0.9), (5, 5))
    pair = pq.generate(pq.LiouvilleSpec("3 + x^2/2", "y", "-", chart))
    nf, F, _ = pq.to_null_form(pair.g, pair.F)
    return pair, nf, F


# each entry point with a tolerance, called with that tolerance set to `tol`
TOLERANCE_CALLS = {
    "integrate_geodesic": ("tol", lambda p, nf, F, tol: pq.integrate_geodesic(
        p.g, pq.PhaseState(0.0, 0.5, 0.6, -0.3), 0.1, tol=tol)),
    "classify_pair": ("tol", lambda p, nf, F, tol: pq.classify_pair(p.g, p.gbar, tol)),
    "classify_at": ("tol", lambda p, nf, F, tol: pq.classify_at(np.diag([2.0, 5.0]), tol)),
    "verify_integral": ("tol", lambda p, nf, F, tol: pq.verify_integral(p.g, p.F, tol=tol)),
    "triviality_check": ("tol", lambda p, nf, F, tol: pq.triviality_check(p.F, p.g, tol)),
    "bk_normalize": ("axis_tol", lambda p, nf, F, tol: pq.bk_normalize(nf, F, axis_tol=tol)),
    "solve_case1": ("tol", lambda p, nf, F, tol: pq.solve_case1(nf, F, tol)),
    "solve_case2": ("tol", lambda p, nf, F, tol: pq.solve_case2(nf, F, tol)),
    "solve_case3": ("tol", lambda p, nf, F, tol: pq.solve_case3(nf, F, tol)),
    "rectification_pipeline": ("tol", lambda p, nf, F, tol: pq.rectification_pipeline(
        nf, F, tol=tol)),
    "rectification_pipeline_sys": ("sys_tol", lambda p, nf, F, tol: pq.rectification_pipeline(
        nf, F, sys_tol=tol)),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, "1e-9", None, True],
                         ids=["nan", "inf", "0", "-1", "str", "none", "bool"])
@pytest.mark.parametrize("entry", sorted(TOLERANCE_CALLS))
def test_bad_tolerance_rejected(entry, tol):
    """A tolerance must be a finite positive number.  Unchecked, NaN
    classified every point 'ambiguous', inf every point 'proportional',
    verification and the triviality test failed where they should refuse, a
    negative rectification tolerance read as a failed check (NotAxisAligned),
    a string or None raised a bare TypeError and True was taken for 1."""
    name, call = TOLERANCE_CALLS[entry]
    with pytest.raises(InvalidArgument,
                       match=f"^{name} must be finite and positive, got {re.escape(repr(tol))}$"):
        call(*_pair(), tol)
