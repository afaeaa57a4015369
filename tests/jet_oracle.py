"""Reference evaluators for the expressions that projeq.codegen compiles.

These are the tree walkers projeq used before it compiled expressions: a
walk of the AST per evaluation, for floats and for coordinate arrays, real
and complex.  Their constants are the compiler's: a sub-expression without
variables is a constant, whose value the floats compute once (value() for
real ones, the complex walk for complex ones) and whose derivatives are 0;
a constant exponent takes the power rule.  A ^0 is 1 where its base's jet
is finite and an error elsewhere: an overflow on floats, and on arrays the
strict walk's error at the innermost non-finite node.  They share nothing
with the compiler but the AST, Jet2's arithmetic and render(), so the tests
compare compiled code against them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from projeq.errors import DomainError
from projeq.expr import BinOp, Call, Jet2, Neg, Num, Var, render


class CJet:
    """Value and first two z-derivatives, with the arithmetic of the walkers."""

    def __init__(self, v, dv=0j, ddv=0j):
        self.v, self.dv, self.ddv = v, dv, ddv

    def __add__(self, o):
        return CJet(self.v + o.v, self.dv + o.dv, self.ddv + o.ddv)

    def __sub__(self, o):
        return CJet(self.v - o.v, self.dv - o.dv, self.ddv - o.ddv)

    def __neg__(self):
        return CJet(-self.v, -self.dv, -self.ddv)

    def __mul__(self, o):
        return CJet(self.v * o.v, self.dv * o.v + self.v * o.dv,
                    self.ddv * o.v + 2.0 * self.dv * o.dv + self.v * o.ddv)

    def reciprocal(self):
        if not isinstance(self.v, np.ndarray) and self.v == 0:
            raise DomainError("complex division by zero (pole)")
        iv = 1.0 / self.v
        return self.chain(iv, -iv * iv, 2.0 * iv * iv * iv)

    def __truediv__(self, o):
        return self * o.reciprocal()

    def chain(self, f0, f1, f2):
        return CJet(f0, f1 * self.dv, f2 * self.dv * self.dv + f1 * self.ddv)


def chain_rules(m):
    def sin(u):
        s, c = m.sin(u.v), m.cos(u.v)
        return u.chain(s, c, -s)

    def cos(u):
        s, c = m.sin(u.v), m.cos(u.v)
        return u.chain(c, -s, -c)

    def exp(u):
        e = m.exp(u.v)
        return u.chain(e, e, e)

    def log(u):
        iv = 1.0 / u.v
        return u.chain(m.log(u.v), iv, -iv * iv)

    def sqrt(u):
        s = m.sqrt(u.v)
        return u.chain(s, 0.5 / s, -0.25 / (s * u.v))

    rules = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}
    if hasattr(m, "copysign"):
        rules["abs"] = lambda u: u.chain(m.fabs(u.v), m.copysign(1.0, u.v), 0.0)
    return rules


MATH, CMATH, NUMPY = chain_rules(math), chain_rules(cmath), chain_rules(np)
HOLOMORPHIC = {name: rule for name, rule in NUMPY.items() if name != "abs"}
REAL_DOMAIN = {
    "log": ((lambda v: v <= 0.0, "log of a non-positive value"),),
    "sqrt": ((lambda v: v < 0.0, "sqrt of a negative value"),
             (lambda v: v == 0.0, "sqrt is not differentiable at 0")),
    "abs": ((lambda v: abs(v) < 1e-12, "abs is not differentiable at 0"),),
}
COMPLEX_DOMAIN = {
    "log": ((lambda v: v == 0, "log at the branch point 0"),),
    "sqrt": ((lambda v: v == 0, "sqrt at the branch point 0"),),
}


def has_variable(e):
    """A sub-expression without variables is a constant, whose value the
    floats' value code computes (complex code in the complex context)."""
    match e:
        case Var(_):
            return True
        case Neg(arg) | Call(_, arg):
            return has_variable(arg)
        case BinOp(_, left, right):
            return has_variable(left) or has_variable(right)
    return False


def value(e):
    """The float value of an expression without variables, computed as a
    value alone: no derivative is computed, so none can fail."""
    match e:
        case Num(v):
            return float(v)
        case Neg(arg):
            return -value(arg)
        case BinOp("^", left, right):
            v, k = value(left), value(right)
            for bad, message in power_checks(k):
                if bad(v):
                    raise DomainError(message, render(e))
            if k == 0.0:
                return dropped(v)
            return v if k == 1.0 else v ** k
        case BinOp(op, left, right):
            a, b = value(left), value(right)
            if op == "/" and b == 0.0:
                raise DomainError("division by zero", render(right))
            return a + b if op == "+" else a - b if op == "-" else a * b if op == "*" \
                else a * (1.0 / b)
        case Call(func, arg):
            v = value(arg)
            for bad, message in REAL_DOMAIN.get(func, ()):
                if bad(v):
                    raise DomainError(message, render(e))
            return math.fabs(v) if func == "abs" else getattr(math, func)(v)
    raise TypeError(f"not an Expr: {e!r}")


def constant(evaluate, e):
    """evaluate(e) for an expression e without variables; a math domain
    error there (sin or cos of an infinity) counts as an overflow."""
    try:
        return evaluate(e)
    except ValueError:
        raise OverflowError from None


def power_checks(k):
    """(predicate on the base's value, message) pairs of the power rule for
    a constant real exponent k."""
    if not math.isfinite(k):
        return ((lambda v: True, "non-finite exponent"),)
    if k != round(k):
        return ((lambda v: v <= 0.0, "non-integer power of a non-positive base"),)
    return ((lambda v: v == 0.0, "zero raised to a negative power"),) if k < 0.0 else ()


def dropped(*slots):
    """1, the value of a ^0 whose base has these slots; an overflow where
    one is not finite."""
    if not all(cmath.isfinite(s) for s in slots):
        raise OverflowError
    return 1.0


def jet_slots(j):
    return (j.v, j.dv, j.ddv) if isinstance(j, CJet) else (j.v, j.dx, j.dy, j.dxx, j.dxy, j.dyy)


def const_power(u, k):
    v = u.v
    f2 = k * (k - 1.0) * v ** (k - 2.0) if k != 1.0 else 0.0
    return u.chain(v ** k, k * v ** (k - 1.0), f2)


def grid_const_power(u, k):
    v = u.v

    def power(e):
        return 1.0 if e == 0.0 else v if e == 1.0 else np.float_power(v, e)

    f2 = k * (k - 1.0) * power(k - 2.0) if k != 1.0 else 0.0
    return u.chain(power(k), k * power(k - 1.0), f2)


# --- floats -------------------------------------------------------------------------


def eval_jet(e, x, y):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return Grid(x, y, {"x": Jet2(x, 1.0, 0.0), "y": Jet2(y, 0.0, 1.0)},
                    lambda v: Jet2(np.float64(v)), NUMPY, REAL_DOMAIN, value, grid_pow,
                    "division by zero", "real").evaluate(e)
    try:
        return _eval_jet(e, x, y)
    except ZeroDivisionError:
        raise DomainError("division by zero", render(e))
    except (OverflowError, ValueError):     # ValueError: sin or cos of an infinity
        raise DomainError("numerical overflow", render(e))


def jet_pow(u, w):
    """u ^ w for a jet w, or for a constant w (a float)."""
    if isinstance(w, Jet2):
        if u.v <= 0.0:
            raise DomainError("power with variable exponent needs a positive base")
        return MATH["exp"](w * MATH["log"](u))
    for bad, message in power_checks(w):
        if bad(u.v):
            raise DomainError(message)
    return Jet2(dropped(*jet_slots(u))) if w == 0.0 else const_power(u, w)


def _eval_jet(e, x, y):
    match e:
        case Num(v):
            return Jet2(v)
        case _ if not has_variable(e):
            return Jet2(constant(value, e))
        case Var("x"):
            return Jet2(x, 1.0, 0.0)
        case Var("y"):
            return Jet2(y, 0.0, 1.0)
        case Var(name):
            raise DomainError(f"variable '{name}' has no real-context value")
        case Neg(arg):
            return -_eval_jet(arg, x, y)
        case BinOp("^", left, right):
            lu = _eval_jet(left, x, y)
            w = _eval_jet(right, x, y) if has_variable(right) else constant(value, right)
            try:
                return jet_pow(lu, w)
            except DomainError as err:
                raise DomainError(str(err), render(e)) from None
        case BinOp(op, left, right):
            lu, ru = _eval_jet(left, x, y), _eval_jet(right, x, y)
            if op == "+":
                return lu + ru
            if op == "-":
                return lu - ru
            if op == "*":
                return lu * ru
            if ru.v == 0.0:
                raise DomainError("division by zero", render(right))
            return lu / ru
        case Call(func, arg):
            u = _eval_jet(arg, x, y)
            for bad, message in REAL_DOMAIN.get(func, ()):
                if bad(u.v):
                    raise DomainError(message, render(e))
            return MATH[func](u)
    raise TypeError(f"not an Expr: {e!r}")


def eval_complex(e, z):
    if isinstance(z, np.ndarray):
        z = z.astype(complex)
        return Grid(z.real, z.imag, {"z": CJet(z, 1.0 + 0j)}, lambda v: CJet(np.complex128(v)),
                    HOLOMORPHIC, COMPLEX_DOMAIN, lambda e: _eval_complex(e, 0j, False).v,
                    grid_cpow, "complex division by zero (pole)", "complex").evaluate(e)
    try:
        return _eval_complex(e, complex(z))
    except ZeroDivisionError:
        raise DomainError("complex division by zero (pole)", render(e))
    except (OverflowError, ValueError):
        raise DomainError("numerical overflow", render(e))


def integral(k):
    """A constant complex exponent that takes the power rule: real, finite
    and integral."""
    return k.imag == 0.0 and math.isfinite(k.real) and k.real == round(k.real)


def cpow(u, w):
    """u ^ w for a jet w, or for a constant w (a complex)."""
    if not isinstance(w, CJet):
        if integral(w):
            if w.real == 0.0:
                return CJet(dropped(*jet_slots(u)) + 0j)
            if u.v == 0 and w.real < 0.0:
                raise DomainError("complex pole: zero to a negative power")
            return const_power(u, w.real)
        w = CJet(w)
    if u.v == 0:
        raise DomainError("log at the branch point 0")
    return CMATH["exp"](w * CMATH["log"](u))


def _eval_complex(e, z, constants=True):
    """The complex jet at z; with constants False, a constant is walked
    like any other sub-expression (as the compiler computes its value)."""
    match e:
        case Num(v):
            return CJet(complex(v))
        case _ if constants and not has_variable(e):
            return CJet(constant(lambda e: _eval_complex(e, z, False).v, e))
        case Var("z"):
            return CJet(z, 1.0 + 0j)
        case Var(name):
            raise DomainError(f"variable '{name}' has no complex-context value")
        case Neg(arg):
            return -_eval_complex(arg, z, constants)
        case BinOp("^", left, right):
            lu = _eval_complex(left, z, constants)
            return cpow(lu, _eval_complex(right, z, constants) if has_variable(right)
                        else constant(lambda e: _eval_complex(e, z, False).v, right))
        case BinOp(op, left, right):
            lu, ru = _eval_complex(left, z, constants), _eval_complex(right, z, constants)
            if op == "+":
                return lu + ru
            if op == "-":
                return lu - ru
            if op == "*":
                return lu * ru
            return lu / ru
        case Call("abs", _):
            raise DomainError("abs is not holomorphic")
        case Call(func, arg):
            u = _eval_complex(arg, z, constants)
            for bad, message in COMPLEX_DOMAIN.get(func, ()):
                if bad(u.v):
                    raise DomainError(message, render(e))
            return CMATH[func](u)
    raise TypeError(f"not an Expr: {e!r}")


# --- arrays -------------------------------------------------------------------------


def first_point(mask, x, y):
    shape = np.broadcast_shapes(np.shape(mask), np.shape(x), np.shape(y))
    i = np.unravel_index(int(np.argmax(np.broadcast_to(mask, shape))), shape)
    return float(np.broadcast_to(x, shape)[i]), float(np.broadcast_to(y, shape)[i])


def reject(mask, message, node, x, y):
    if np.any(mask):
        raise DomainError(message, render(node), first_point(mask, x, y))


def nonfinite(j):
    bad = False
    for s in jet_slots(j):
        bad = bad | ~np.isfinite(s)
    return bad


def grid_pow(u, w, node, x, y):
    """u ^ w on arrays, for a jet w or a constant w (a float)."""
    if isinstance(w, Jet2):
        reject(u.v <= 0.0, "power with variable exponent needs a positive base", node, x, y)
        return NUMPY["exp"](w * NUMPY["log"](u))
    for bad, message in power_checks(w):
        reject(bad(u.v), message, node, x, y)
    return Jet2(1.0) if w == 0.0 else grid_const_power(u, w)


def grid_cpow(u, w, node, x, y):
    """u ^ w on complex arrays, for a jet w or a constant w (a complex)."""
    if not isinstance(w, CJet):
        if integral(w):
            if w.real == 0.0:
                return CJet(1.0 + 0j)
            if w.real < 0.0:
                reject(u.v == 0, "complex pole: zero to a negative power", node, x, y)
            return const_power(u, w.real)
        w = CJet(w)
    reject(u.v == 0, "log at the branch point 0", node, x, y)
    return NUMPY["exp"](w * NUMPY["log"](u))


class Grid:
    """One expression walked over coordinate arrays; a second, strict walk
    names the innermost node with a non-finite slot.  It runs where the
    result is not finite, or where the base of a ^0 is not."""

    def __init__(self, x, y, variables, constant, rules, domain, exponent, power, pole,
                 context):
        self.x, self.y, self.variables, self.constant = x, y, variables, constant
        self.rules, self.domain, self.power, self.pole = rules, domain, power, pole
        self.exponent, self.context = exponent, context

    def evaluate(self, e):
        self.top, self.dropped = e, False
        with np.errstate(all="ignore"):
            j = self.walk(e, False)
            if self.dropped or np.any(nonfinite(j)):
                self.walk(e, True)
        return j

    def walk(self, e, strict):
        x, y = self.x, self.y
        match e:
            case Num(v):
                out = self.constant(v)
            case _ if not has_variable(e):
                out = self.constant(self.constant_value(e))
            case Var(name):
                if name not in self.variables:
                    raise DomainError(f"variable '{name}' has no {self.context}-context value")
                out = self.variables[name]
            case Neg(arg):
                out = -self.walk(arg, strict)
            case BinOp("^", left, right):
                u = self.walk(left, strict)
                if has_variable(right):
                    out = self.power(u, self.walk(right, strict), e, x, y)
                else:
                    k = self.constant_value(right)
                    self.dropped |= k == 0 and bool(np.any(nonfinite(u)))
                    out = self.power(u, k, e, x, y)
            case BinOp(op, left, right):
                lu, ru = self.walk(left, strict), self.walk(right, strict)
                if op == "+":
                    out = lu + ru
                elif op == "-":
                    out = lu - ru
                elif op == "*":
                    out = lu * ru
                else:
                    reject(ru.v == 0, self.pole, right, x, y)
                    out = lu / ru
            case Call(func, arg):
                if func not in self.rules:
                    raise DomainError(f"{func} is not holomorphic", render(e))
                u = self.walk(arg, strict)
                for bad, message in self.domain.get(func, ()):
                    reject(bad(u.v), message, e, x, y)
                out = self.rules[func](u)
            case _:
                raise TypeError(f"not an Expr: {e!r}")
        if strict:
            reject(nonfinite(out), "non-finite value", e, x, y)
        return out

    def constant_value(self, e):
        """The floats' value of an expression without variables; where that
        raises, the error at the first grid point."""
        try:
            return constant(self.exponent, e)
        except DomainError as err:
            message, where = str(err), ""
        except ArithmeticError as err:
            message = self.pole if isinstance(err, ZeroDivisionError) else "numerical overflow"
            where = render(self.top)
        raise DomainError(message, where, first_point(True, self.x, self.y))
