"""Reference evaluators for the compiled expressions of projeq.expr.

These are the tree walkers projeq used before it compiled expressions: a
walk of the AST per evaluation, for floats and for coordinate arrays, real
and complex.  They share nothing with the compiler but the AST, Jet2's
arithmetic and render(), so the tests compare compiled code against them.
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
                    lambda v: Jet2(np.float64(v)), NUMPY, REAL_DOMAIN, grid_pow,
                    "division by zero", "real").evaluate(e)
    try:
        return _eval_jet(e, x, y)
    except ZeroDivisionError:
        raise DomainError("division by zero", render(e))
    except OverflowError:
        raise DomainError("numerical overflow", render(e))


def jet_pow(u, w):
    if w.dx == 0.0 and w.dy == 0.0 and w.dxx == 0.0 and w.dxy == 0.0 and w.dyy == 0.0:
        k = w.v
        if k == round(k):
            if k == 0.0:
                return Jet2(1.0)
            if u.v == 0.0 and k < 0.0:
                raise DomainError("zero raised to a negative power")
            return const_power(u, k)
        if u.v <= 0.0:
            raise DomainError("non-integer power of a non-positive base")
        return const_power(u, k)
    if u.v <= 0.0:
        raise DomainError("power with variable exponent needs a positive base")
    return MATH["exp"](w * MATH["log"](u))


def _eval_jet(e, x, y):
    match e:
        case Num(v):
            return Jet2(v)
        case Var("x"):
            return Jet2(x, 1.0, 0.0)
        case Var("y"):
            return Jet2(y, 0.0, 1.0)
        case Var(name):
            raise DomainError(f"variable '{name}' has no real-context value")
        case Neg(arg):
            return -_eval_jet(arg, x, y)
        case BinOp(op, left, right):
            lu, ru = _eval_jet(left, x, y), _eval_jet(right, x, y)
            if op == "+":
                return lu + ru
            if op == "-":
                return lu - ru
            if op == "*":
                return lu * ru
            if op == "/":
                if ru.v == 0.0:
                    raise DomainError("division by zero", render(right))
                return lu / ru
            try:
                return jet_pow(lu, ru)
            except DomainError as err:
                raise DomainError(str(err), render(e)) from None
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
                    HOLOMORPHIC, COMPLEX_DOMAIN, grid_cpow, "complex division by zero (pole)",
                    "complex").evaluate(e)
    try:
        return _eval_complex(e, complex(z))
    except ZeroDivisionError:
        raise DomainError("complex division by zero (pole)", render(e))
    except OverflowError:
        raise DomainError("numerical overflow", render(e))


def cpow(u, w):
    if w.dv == 0 and w.ddv == 0 and w.v.imag == 0.0 and w.v.real == round(w.v.real):
        k = w.v.real
        if k == 0.0:
            return CJet(1.0 + 0j)
        if u.v == 0 and k < 0.0:
            raise DomainError("complex pole: zero to a negative power")
        return const_power(u, k)
    if u.v == 0:
        raise DomainError("log at the branch point 0")
    return CMATH["exp"](w * CMATH["log"](u))


def _eval_complex(e, z):
    match e:
        case Num(v):
            return CJet(complex(v))
        case Var("z"):
            return CJet(z, 1.0 + 0j)
        case Var(name):
            raise DomainError(f"variable '{name}' has no complex-context value")
        case Neg(arg):
            return -_eval_complex(arg, z)
        case BinOp(op, left, right):
            lu, ru = _eval_complex(left, z), _eval_complex(right, z)
            if op == "+":
                return lu + ru
            if op == "-":
                return lu - ru
            if op == "*":
                return lu * ru
            if op == "/":
                return lu / ru
            return cpow(lu, ru)
        case Call("abs", _):
            raise DomainError("abs is not holomorphic")
        case Call(func, arg):
            u = _eval_complex(arg, z)
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
    slots = (j.v, j.dv, j.ddv) if isinstance(j, CJet) else (j.v, j.dx, j.dy, j.dxx, j.dxy, j.dyy)
    bad = False
    for s in slots:
        bad = bad | ~np.isfinite(s)
    return bad


def uniform_constant(value, derivatives):
    if not isinstance(value, np.ndarray) and \
            not any(isinstance(d, np.ndarray) for d in derivatives):
        if value != value or any(d != 0 for d in derivatives):
            return None
        return value
    if any(np.any(d) for d in derivatives):
        return None
    v = np.ravel(value)
    return v[0] if np.all(v == v[0]) else None


def grid_pow(u, w, node, x, y):
    k = uniform_constant(w.v, (w.dx, w.dy, w.dxx, w.dxy, w.dyy))
    if k is not None:
        k = float(k)
        reject(not math.isfinite(k), "non-finite exponent", node, x, y)
        if k == round(k):
            if k == 0.0:
                return Jet2(1.0)
            if k < 0.0:
                reject(u.v == 0.0, "zero raised to a negative power", node, x, y)
            return grid_const_power(u, k)
        reject(u.v <= 0.0, "non-integer power of a non-positive base", node, x, y)
        return grid_const_power(u, k)
    reject(u.v <= 0.0, "power with variable exponent needs a positive base", node, x, y)
    return NUMPY["exp"](w * NUMPY["log"](u))


def grid_cpow(u, w, node, x, y):
    k = uniform_constant(w.v, (w.dv, w.ddv))
    if k is not None and k.imag == 0.0 and math.isfinite(k.real) and k.real == round(k.real):
        k = float(k.real)
        if k == 0.0:
            return CJet(1.0 + 0j)
        if k < 0.0:
            reject(u.v == 0, "complex pole: zero to a negative power", node, x, y)
        return const_power(u, k)
    reject(u.v == 0, "log at the branch point 0", node, x, y)
    return NUMPY["exp"](w * NUMPY["log"](u))


class Grid:
    """One expression walked over coordinate arrays; a second, strict walk
    names the innermost node with a non-finite slot."""

    def __init__(self, x, y, variables, constant, rules, domain, power, pole, context):
        self.x, self.y, self.variables, self.constant = x, y, variables, constant
        self.rules, self.domain, self.power, self.pole = rules, domain, power, pole
        self.context = context

    def evaluate(self, e):
        with np.errstate(all="ignore"):
            j = self.walk(e, False)
            if np.any(nonfinite(j)):
                self.walk(e, True)
        return j

    def walk(self, e, strict):
        x, y = self.x, self.y
        match e:
            case Num(v):
                out = self.constant(v)
            case Var(name):
                if name not in self.variables:
                    raise DomainError(f"variable '{name}' has no {self.context}-context value")
                out = self.variables[name]
            case Neg(arg):
                out = -self.walk(arg, strict)
            case BinOp(op, left, right):
                lu, ru = self.walk(left, strict), self.walk(right, strict)
                if op == "+":
                    out = lu + ru
                elif op == "-":
                    out = lu - ru
                elif op == "*":
                    out = lu * ru
                elif op == "/":
                    reject(ru.v == 0, self.pole, right, x, y)
                    out = lu / ru
                else:
                    out = self.power(lu, ru, e, x, y)
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
