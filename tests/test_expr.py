import math

import numpy as np
import pytest

import projeq as pq
from projeq import ComplexJet, Jet2, codegen, diff, eval_complex, eval_jet, parse, render
from projeq.expr import BinOp, Num, Var
from projeq.errors import DomainError, ExprSyntaxError, UnknownIdentifier


def jet_of(text, x, y):
    return eval_jet(parse(text), x, y)


def fd_jet(text, x, y, h=1e-5):
    """Finite-difference oracle for the first and second partials."""
    e = parse(text)
    f = lambda a, b: eval_jet(e, a, b).v
    return {
        "dx": (f(x + h, y) - f(x - h, y)) / (2 * h),
        "dy": (f(x, y + h) - f(x, y - h)) / (2 * h),
        "dxx": (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / h**2,
        "dyy": (f(x, y + h) - 2 * f(x, y) + f(x, y - h)) / h**2,
        "dxy": (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h))
        / (4 * h**2),
    }


class TestParser:
    def test_precedence(self):
        assert jet_of("2 + 3 * 4", 0, 0).v == 14.0
        assert jet_of("2 * 3 ^ 2", 0, 0).v == 18.0
        assert jet_of("(2 + 3) * 4", 0, 0).v == 20.0

    def test_power_right_associative(self):
        assert jet_of("2 ^ 3 ^ 2", 0, 0).v == 512.0

    def test_unary_minus(self):
        assert jet_of("-x^2", 2, 0).v == -4.0
        assert jet_of("3 - -2", 0, 0).v == 5.0

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("x+*y")
        assert ei.value.position == 2

    @pytest.mark.parametrize("text,position,message", [
        ("x $ y", 2, "unexpected character '$'"),
        (".", 0, "malformed number '.'"),
        ("sin(x", 5, "expected ')', found end of input"),
        ("x +", 3, "expected a value, found end of input"),
        ("  ", 0, "empty expression"),
        ("sin x", 4, "expected '(', found 'x'"),
    ])
    def test_error_positions(self, text, position, message):
        with pytest.raises(ExprSyntaxError) as ei:
            parse(text)
        assert (ei.value.position, ei.value.message) == (position, message)

    def test_overflowing_literal(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("x + 2*1e400")
        assert ei.value.position == 6
        assert parse("1e308") == Num(1e308)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse("x + w")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("2 x")

    def test_complex_context_rejects_xy(self):
        with pytest.raises(UnknownIdentifier):
            parse("x + 1", variables=("z",))

    def test_negative_literal_renders_as_a_negation(self):
        # as "-2.0^2.0" it would read as -(2^2)
        e = BinOp("^", Num(-2.0), Num(2.0))
        assert render(e) == "(-2.0)^2.0"
        assert jet_of(render(e), 0.0, 0.0).v == 4.0

    def test_render_round_trip(self):
        for text in ("x + y * 2", "(x + y) * 2", "-x^2", "sin(x) / (1 - y)",
                     "2^3^x", "x - (y - 1)"):
            e = parse(text)
            assert parse(render(e)) == e


class TestJets:
    @pytest.mark.parametrize("text,x,y", [
        ("x^2 * y + sin(x * y)", 0.7, -0.3),
        ("exp(x / 2) * log(2 + y)", 0.4, 0.9),
        ("sqrt(1 + x^2 + y^2)", -0.6, 0.8),
        ("(x + y) / (2 + x * y)", 0.3, 0.5),
        ("x ^ 2.5", 1.7, 0.0),
        ("abs(x) * y", -0.8, 0.4),
    ])
    def test_against_finite_differences(self, text, x, y):
        j = jet_of(text, x, y)
        fd = fd_jet(text, x, y)
        assert j.dx == pytest.approx(fd["dx"], abs=1e-7, rel=1e-7)
        assert j.dy == pytest.approx(fd["dy"], abs=1e-7, rel=1e-7)
        assert j.dxx == pytest.approx(fd["dxx"], abs=1e-4, rel=1e-4)
        assert j.dxy == pytest.approx(fd["dxy"], abs=1e-4, rel=1e-4)
        assert j.dyy == pytest.approx(fd["dyy"], abs=1e-4, rel=1e-4)

    def test_polynomial_exact(self):
        j = jet_of("x^3 + 2*x*y + y^2", 2.0, 3.0)
        assert (j.v, j.dx, j.dy) == (8 + 12 + 9, 12 + 6, 4 + 6)
        assert (j.dxx, j.dxy, j.dyy) == (12.0, 2.0, 2.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jet_of("log(x)", -1.0, 0.0)
        with pytest.raises(DomainError):
            jet_of("1 / x", 0.0, 0.0)
        with pytest.raises(DomainError):
            jet_of("abs(x)", 0.0, 0.0)  # kink: derivative undefined

    def test_integer_power_of_negative_base(self):
        j = jet_of("x^3", -2.0, 0.0)
        assert (j.v, j.dx, j.dxx) == (-8.0, 12.0, -12.0)

    def test_fractional_power_of_negative_base_fails(self):
        with pytest.raises(DomainError):
            jet_of("x^0.5", -1.0, 0.0)


class TestExponents:
    """An exponent is a constant if and only if it has no variable; the
    same rule holds on floats and on arrays."""

    @pytest.mark.parametrize("text", ["(-x)^(y-y)", "(-2)^(y^3)"])
    def test_exponent_with_a_variable_needs_a_positive_base(self, text):
        e = parse(text)
        message = "power with variable exponent needs a positive base"
        x, y = np.meshgrid([0.5, 1.0], [0.0, 0.1], indexing="ij")
        with pytest.raises(DomainError, match=message) as ei:
            eval_jet(e, x, y)
        kernel = codegen.kernel_function((e,), "value", lambda: text)
        for evaluate in (lambda *p: eval_jet(e, *p), kernel):
            for point in (ei.value.point, (0.5, 0.0), (1.0, 0.0), (0.5, 0.1)):
                with pytest.raises(DomainError, match=message):
                    evaluate(*point)

    def test_non_finite_exponent(self):
        e = BinOp("^", Var("x"), Num(math.inf))
        for x in (2.0, np.array([2.0, 3.0])):
            with pytest.raises(DomainError, match="non-finite exponent in 'x\\^inf'"):
                eval_jet(e, x, 0.0)

    def test_value_of_a_variable_exponent_needs_no_jet(self, monkeypatch):
        kinds = []
        source = codegen._Emitter.source
        monkeypatch.setattr(codegen._Emitter, "source",
                            lambda self, e: kinds.append(self.kind) or source(self, e))
        value = codegen.kernel_function((parse("2^3^x"),), "value", lambda: "2^3^x")
        got = value(0.5, 0.0)
        assert kinds == ["value"]
        assert got == (eval_jet(parse("2^3^x"), 0.5, 0.0).v,)


class TestComplexEval:
    @pytest.mark.parametrize("text,h,dh,ddh", [
        ("z^2", lambda z: z * z, lambda z: 2 * z, lambda z: 2.0),
        ("exp(z)", np.exp, np.exp, np.exp),
        ("z + z^3", lambda z: z + z**3, lambda z: 1 + 3 * z * z, lambda z: 6 * z),
    ])
    def test_holomorphic_derivatives(self, text, h, dh, ddh):
        z = complex(0.7, 0.4)
        c = eval_complex(parse(text, variables=("z",)), z)
        assert c.v == pytest.approx(h(z), rel=1e-12)
        assert c.dv == pytest.approx(dh(z), rel=1e-12)
        assert c.ddv == pytest.approx(complex(ddh(z)), rel=1e-12)

    def test_abs_rejected_as_nonholomorphic(self):
        with pytest.raises(DomainError):
            eval_complex(parse("abs(z)", variables=("z",)), complex(1, 1))


class TestDiff:
    @pytest.mark.parametrize("text,var,x,y", [
        ("x^3 + sin(x)", "x", 0.8, 0.0),
        ("exp(y/5) / (1 + y^2)", "y", 0.3, 0.6),
        ("sqrt(2 + x)", "x", 1.2, 0.0),
        ("log(x) * x", "x", 2.5, 0.0),
        ("x^y", "x", 1.5, 0.7),
        ("x^y", "y", 1.5, 0.7),
    ])
    def test_matches_jet_derivative(self, text, var, x, y):
        e = parse(text)
        d = eval_jet(diff(e, var), x, y).v
        j = eval_jet(e, x, y)
        assert d == pytest.approx(j.dx if var == "x" else j.dy, rel=1e-12)

    @pytest.mark.parametrize("var", ["x", "y"])
    def test_division_by_literal_zero_survives(self, var):
        # d/dx (x/0) = (1*0 - x*0) / 0^2 must not fold to 0
        with pytest.raises(DomainError):
            eval_jet(diff(parse("x/0"), var), 1.0, 2.0)
        assert diff(parse("0/x"), "x") == Num(0.0)

    def test_negative_literal_exponent_takes_the_power_rule(self):
        # (y - 3)^(-1) is a power of a negated literal, not exp(w log u)
        d = diff(parse("(y - 3)^(-1)"), "y")
        assert "log" not in render(d)
        assert eval_jet(d, 0.0, 0.5).v == pytest.approx(-1.0 / 2.5 ** 2)
        pair = pq.generate(pq.JordanBlockSpec("2 + (y - 3)^(-1)",
                                              pq.Chart((-0.4, 0.4), (-0.5, 0.5))))
        assert pq.verify_integral(pair.g, pair.F).passed

    def test_variable_free_exponent_takes_the_power_rule(self):
        # sqrt(4) is a constant: no log(x), which fails at x = -1
        e = parse("x^sqrt(4)")
        assert eval_jet(diff(e, "x"), -1.0, 0.0).v == eval_jet(e, -1.0, 0.0).dx == -2.0

    def test_literal_pole_survives_simplify(self):
        # folding 0^(-1) inside diff raised ZeroDivisionError; it stays, and
        # evaluating it raises DomainError
        d = diff(parse("y * 0^(-1)"), "y")
        with pytest.raises(DomainError):
            eval_jet(d, 1.0, 2.0)

    def test_third_derivative(self):
        e = parse("x^4")
        d3 = diff(diff(diff(e, "x"), "x"), "x")
        assert eval_jet(d3, 2.0, 0.0).v == pytest.approx(48.0)


class TestJetAlgebra:
    def test_product_quotient_rules(self):
        a = Jet2(2.0, 1.0, 0.5, 0.1, 0.2, 0.3)
        b = Jet2(3.0, -1.0, 2.0, 0.4, -0.2, 0.6)
        p = a * b
        assert p.v == 6.0
        assert p.dx == a.dx * b.v + a.v * b.dx
        q = (a * b) / b
        for attr in ("v", "dx", "dy", "dxx", "dxy", "dyy"):
            assert getattr(q, attr) == pytest.approx(getattr(a, attr), rel=1e-12)

    def test_chain_rule(self):
        # chain through sin must equal direct evaluation of sin(x^2 + y)
        inner = jet_of("x^2 + y", 0.5, 0.3)
        u = inner.v
        chained = inner.chain(math.sin(u), math.cos(u), -math.sin(u))
        direct = jet_of("sin(x^2 + y)", 0.5, 0.3)
        for attr in ("v", "dx", "dy", "dxx", "dxy", "dyy"):
            assert getattr(chained, attr) == pytest.approx(getattr(direct, attr), rel=1e-12)
