import numpy as np
import pytest

import projeq as pq
from conftest import H_CHOICES
from pointwise import g_tensor_at
from projeq.errors import InvariantViolation
from projeq.codegen import complex_function
from projeq.expr import Leaf, parse, render
from projeq.normal_forms import real_parts

SLOTS = ("v", "dx", "dy", "dxx", "dxy", "dyy")
# inside the complex-Liouville charts of the test instances, off their grids
Z_POINTS = [(0.531 + 0.093 * i, 0.517 + 0.063 * j) for i in range(11) for j in range(11)]


def complex_route(h):
    """(Re h, Im h) jets at (x, y) from the complex derivatives through
    Cauchy-Riemann: what holomorphic_parts gives for every h that does not
    expand."""
    h_jet = complex_function(h)

    def parts(x, y):
        c = h_jet(complex(x, y))
        return (pq.Jet2(c.v.real, c.dv.real, -c.dv.imag, c.ddv.real, -c.ddv.imag, -c.ddv.real),
                pq.Jet2(c.v.imag, c.dv.imag, c.dv.real, c.ddv.imag, c.ddv.real, -c.ddv.imag))

    return parts


class TestLiouville:
    def test_pair_tensor_closed_form(self):
        # G = diag(1/(X^2 Y), 1/(X Y^2)) for both signs
        chart = pq.Chart((-0.5, 0.5), (0.2, 0.9))
        for sign in "+-":
            pair = pq.generate(pq.LiouvilleSpec("3 + x^2/2", "y", sign, chart))
            x, y = 0.3, 0.6
            X, Y = 3 + x * x / 2, y
            G = g_tensor_at(pair.g, pair.gbar, x, y)
            assert np.allclose(G, np.diag([1 / (X * X * Y), 1 / (X * Y * Y)]),
                               rtol=1e-12)

    def test_integral_verified(self):
        chart = pq.Chart((-0.5, 0.5), (0.2, 0.9))
        pair = pq.generate(pq.LiouvilleSpec("3 + x^3/8", "y + y^2/4", "-", chart))
        assert pq.verify_integral(pair.g, pair.F).passed

    def test_x_equals_y_rejected(self):
        chart = pq.Chart((0.2, 0.9), (0.2, 0.9))
        with pytest.raises(InvariantViolation):
            pq.generate(pq.LiouvilleSpec("x", "y", "-", chart))

    def test_bad_sign_rejected(self):
        with pytest.raises(InvariantViolation):
            pq.generate(pq.LiouvilleSpec("x", "y", "*", pq.Chart((0, 1), (2, 3))))


class TestComplexLiouville:
    def test_pair_tensor_closed_form(self):
        # G = [[Re, Im], [-Im, Re]] / (Re^2 + Im^2)^2
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2))
        pair = pq.generate(pq.ComplexLiouvilleSpec("z^2", chart))
        x, y = 0.8, 0.7
        h = complex(x, y) ** 2
        rho = h.real**2 + h.imag**2
        want = np.array([[h.real, h.imag], [-h.imag, h.real]]) / rho**2
        assert np.allclose(g_tensor_at(pair.g, pair.gbar, x, y), want, rtol=1e-12)

    def test_integral_verified(self):
        chart = pq.Chart((0.5, 1.5), (0.5, 1.2))
        for h in ("z", "z^2", "exp(z)", "z + z^3"):
            pair = pq.generate(pq.ComplexLiouvilleSpec(h, chart))
            assert pq.verify_integral(pair.g, pair.F).passed

    @pytest.mark.parametrize("h", H_CHOICES)
    def test_each_field_is_evaluated_once_per_chart(self, h, monkeypatch):
        """s2 = (Im h / rho)^2 is swept before gbar = Metric2(-s2, ., s2), so
        -s2 and gbar's g22 read its kept sweep: generate evaluates s2, and
        every other field, once on the chart."""
        evaluated = []
        at = pq.ScalarField._at

        def counted(field, x, y, chart):
            kept = field._swept
            if chart is not None and not (kept is not None and kept[0] == chart):
                evaluated.append(field)
            return at(field, x, y, chart)

        monkeypatch.setattr(pq.ScalarField, "_at", counted)
        pair = pq.generate(pq.ComplexLiouvilleSpec(h, pq.Chart((0.5, 1.5), (0.5, 1.2))))
        s2 = pair.gbar.g22
        assert pair.gbar.g11._op[1] == (s2,)
        assert sum(f is s2 for f in evaluated) == 1
        assert len({id(f) for f in evaluated}) == len(evaluated)

    def test_im_h_vanishing_rejected(self):
        chart = pq.Chart((0.5, 1.5), (-0.5, 0.5))  # Im(z) = y crosses 0
        with pytest.raises((InvariantViolation, Exception)):
            pq.generate(pq.ComplexLiouvilleSpec("z", chart))

    def test_holomorphic_parts_cauchy_riemann(self):
        re, im = pq.holomorphic_parts(parse("exp(z)", variables=("z",)))
        for x, y in [(0.3, 0.4), (-0.2, 0.9)]:
            rj, ij = re.jet(x, y), im.jet(x, y)
            assert rj.dx == pytest.approx(ij.dy, rel=1e-12)
            assert rj.dy == pytest.approx(-ij.dx, rel=1e-12)
            # harmonic: laplacian vanishes
            assert rj.dxx + rj.dyy == pytest.approx(0.0, abs=1e-12)


class TestRealParts:
    @pytest.mark.parametrize("text", H_CHOICES + ("z^2 - z", "1/z", "z^-2"))
    def test_expansions_agree_with_the_complex_route(self, text):
        """The jets of the fields' expressions (what metric kernels compute)
        against the fields' own jets: each slot within 1e-14 (about 45 ulps)
        of its largest magnitude over the points."""
        h = parse(text, variables=("z",))
        assert real_parts(h) is not None
        ref = complex_route(h)
        for k, field in enumerate(pq.holomorphic_parts(h)):
            assert not isinstance(field.expr, Leaf)
            expanded = pq.jet_function(field.expr)
            got = np.array([[getattr(expanded(x, y), s) for s in SLOTS] for x, y in Z_POINTS])
            want = np.array([[getattr(ref(x, y)[k], s) for s in SLOTS] for x, y in Z_POINTS])
            scale = np.maximum(np.abs(want).max(axis=0), 1e-300)
            assert np.all(np.abs(got - want).max(axis=0) <= 1e-14 * scale), (text, k)

    def test_expansions_follow_complex_arithmetic(self):
        def parts(text):
            return tuple(map(render, real_parts(parse(text, variables=("z",)))))

        assert parts("exp(z)") == ("exp(x)*cos(y)", "exp(x)*sin(y)")
        assert parts("z^2") == ("x*x-(y*y)", "x*y+y*x")
        assert parts("1/z") == ("x/(x*x+y*y)", "-y/(x*x+y*y)")
        assert parts("-z^0") == ("-1.0", "-0.0")

    @pytest.mark.parametrize("text", ["log(z)", "sqrt(z)", "z^0.5", "sin(z) + z", "z^z",
                                      "z^(1+1)", "z + z^3", "exp(z)"])
    def test_fields_keep_the_complex_jets(self, text):
        """Every h keeps its fields' jets bit for bit; one that cannot be
        expanded enters kernels as an opaque leaf."""
        h = parse(text, variables=("z",))
        ref = complex_route(h)
        for k, field in enumerate(pq.holomorphic_parts(h)):
            assert isinstance(field.expr, Leaf) == (real_parts(h) is None)
            for x, y in Z_POINTS[::7]:
                got, want = field.jet(x, y), ref(x, y)[k]
                assert [getattr(got, s) for s in SLOTS] == [getattr(want, s) for s in SLOTS]
                assert np.array([getattr(got, s) for s in SLOTS]).tobytes() == \
                    np.array([getattr(want, s) for s in SLOTS]).tobytes()


class TestJordanBlock:
    def test_pair_tensor_closed_form(self):
        # G = [[-2/Y^3, 2f/Y^4], [0, -2/Y^3]]: one Jordan block
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        pair = pq.generate(pq.JordanBlockSpec("3/2 + y/10 + y^2/20", chart))
        x, y = 0.2, 0.3
        Y = 1.5 + y / 10 + y * y / 20
        Yp = 0.1 + y / 10
        f = 1 + x * Yp
        want = np.array([[-2 / Y**3, 2 * f / Y**4], [0.0, -2 / Y**3]])
        assert np.allclose(g_tensor_at(pair.g, pair.gbar, x, y), want, rtol=1e-12)

    def test_integral_verified(self):
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        pair = pq.generate(pq.JordanBlockSpec("3/2 - y/8 + y^3/30", chart))
        assert pq.verify_integral(pair.g, pair.F).passed

    def test_f_positive_invariant(self):
        chart = pq.Chart((-0.4, 0.4), (-0.5, 0.5))
        with pytest.raises(InvariantViolation):
            pq.generate(pq.JordanBlockSpec("10*y", chart))  # 1 + 10x < 0 somewhere


class TestJordanKillingFree:
    def test_classified_as_jordan(self):
        chart = pq.Chart((0.3, 0.8), (0.5, 1.0))
        pair = pq.generate(pq.JordanKillingFreeSpec("2 + y/5", chart))
        assert pair.F is None
        res = pq.classify_pair(pair.g, pair.gbar)
        assert res.tag == "jordan_block"
        assert res.fraction >= 0.95

    def test_projectively_equivalent(self):
        chart = pq.Chart((0.3, 0.8), (0.5, 1.0))
        pair = pq.generate(pq.JordanKillingFreeSpec("2 + y/5", chart))
        s0 = pq.PhaseState(0.5, 0.7, 0.5, 0.3)
        traj = pq.integrate_geodesic(pair.g, s0, 0.4)
        assert pq.projective_residual(pair.gbar, traj) < 1e-8

    @pytest.mark.parametrize("ytilde", ["2 + y^3/5", "2 + exp(y)/3", "2 + sin(3*y)/4"])
    def test_without_a_killing_field(self, ytilde):
        """Ytilde of these shapes leaves the pair no Killing field, unlike
        2 + y/5 above: still a Jordan block at every grid point, and the
        geodesics of either metric are unparametrized geodesics of the
        other."""
        chart = pq.Chart((-0.4, 0.4), (0.5, 1.5))
        pair = pq.generate(pq.JordanKillingFreeSpec(ytilde, chart))
        res = pq.classify_pair(pair.g, pair.gbar)
        assert res.tag == "jordan_block" and res.fraction == 1.0
        s0 = pq.PhaseState(0.1, 0.9, 0.5, 0.3)
        for g, other in ((pair.g, pair.gbar), (pair.gbar, pair.g)):
            traj = pq.integrate_geodesic(g, s0, 0.4)
            assert len(traj) > 3
            assert pq.projective_residual(other, traj) < 1e-6

    def test_y_zero_rejected(self):
        with pytest.raises(InvariantViolation):
            pq.generate(pq.JordanKillingFreeSpec("2", pq.Chart((0.3, 0.8), (-0.5, 0.5))))


class TestRemark1:
    def test_identity_residual(self):
        rng = np.random.default_rng(5)
        for h in ("z", "z^2", "exp(z)", "z + z^3", "z^2 - z"):
            x, y = rng.uniform(-1, 1, (10, 2)).T
            assert pq.remark1_identity_residual(h, x, y) < 1e-12


class TestDispatcher:
    def test_unknown_spec(self):
        with pytest.raises(TypeError):
            pq.generate("not a spec")
