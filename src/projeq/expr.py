"""Expression language for metric and integral coefficients.

Grammar (EBNF, see README):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;            (* right associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;

Variables: x, y in the real context, z in the complex context.  No implicit
multiplication.  Functions: sin, cos, exp, log, sqrt, abs.

Evaluation is jet-based: eval_jet returns the value and all partial
derivatives up to second order, computed exactly by the product/chain rules.
eval_complex returns the value and the first two z-derivatives of a
holomorphic expression.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, LiteralOverflow, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")

REAL_VARIABLES = ("x", "y")
COMPLEX_VARIABLES = ("z",)

# abs is treated as non-differentiable when its argument is this close to 0.
_ABS_KINK_TOL = 1e-12


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call


# --- tokenizer / parser -------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples; kind in {num, ident, op}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tok = text[i:j]
            try:
                value = float(tok)
            except ValueError:
                raise ExprSyntaxError(i, f"malformed number '{tok}'")
            if math.isinf(value):
                raise LiteralOverflow(i, f"number '{tok}' overflows a double")
            tokens.append(("num", tok, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(i, f"unexpected character '{ch}'")
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _end_position(self):
        if self.tokens:
            kind, val, p = self.tokens[-1]
            return p + len(val)
        return 0

    def _expect_op(self, op):
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError(self._end_position(), f"expected '{op}', found end of input")
        if tok[0] != "op" or tok[1] != op:
            raise ExprSyntaxError(tok[2], f"expected '{op}', found '{tok[1]}'")
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(tok[2], f"unexpected '{tok[1]}'")
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.pos += 1
                node = BinOp(tok[1], node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.pos += 1
                node = BinOp(tok[1], node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError(self._end_position(), "expected a value, found end of input")
        kind, val, p = tok
        if kind == "num":
            self.pos += 1
            return Num(float(val))
        if kind == "ident":
            self.pos += 1
            if val in FUNCTIONS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return Call(val, arg)
            if val in self.variables:
                return Var(val)
            raise UnknownIdentifier(val, p)
        if kind == "op" and val == "(":
            self.pos += 1
            e = self.expr()
            self._expect_op(")")
            return e
        raise ExprSyntaxError(p, f"unexpected '{val}'")


def parse(text: str, context: str = "real", variables: tuple[str, ...] | None = None) -> Expr:
    """Parse an expression.  context selects the default variable set
    ('real' -> x, y; 'complex' -> z); pass variables to restrict further,
    e.g. variables=('y',) for a function of y alone."""
    if not text or not text.strip():
        raise ExprSyntaxError(0, "empty expression")
    if variables is None:
        if context == "real":
            variables = REAL_VARIABLES
        elif context == "complex":
            variables = COMPLEX_VARIABLES
        else:
            raise ValueError(f"unknown context {context!r}")
    return _Parser(_tokenize(text), variables).parse()


# --- rendering ----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _render(e: Expr, parent_prec: int, right_side: bool) -> str:
    match e:
        case Num(v):
            s = repr(v)
            return s
        case Var(name):
            return name
        case Neg(arg):
            s = "-" + _render(arg, _PREC["neg"], False)
            return f"({s})" if parent_prec > _PREC["neg"] or (parent_prec == _PREC["neg"] and right_side) else s
        case Call(func, arg):
            return f"{func}({_render(arg, 0, False)})"
        case BinOp(op, left, right):
            prec = _PREC[op]
            # - and / are left associative, ^ is right associative
            lp = _render(left, prec if op != "^" else prec + 1, False)
            rp = _render(right, prec + (1 if op in "-/" else 0) if op != "^" else prec, True)
            s = f"{lp}{op}{rp}"
            need = parent_prec > prec or (parent_prec == prec and right_side)
            return f"({s})" if need else s
    raise TypeError(f"not an Expr: {e!r}")


def render(e: Expr) -> str:
    """Render back to a string; parse(render(e)) is structurally e."""
    return _render(e, 0, False)


# --- order-2 jets --------------------------------------------------------------

class Jet2:
    """Value and partial derivatives up to second order of a function of (x, y).
    Mixed-partial symmetry holds by construction (one dxy slot).

    The slots are floats or, for grid evaluations, NumPy arrays that broadcast
    against each other; the arithmetic is the same for both."""

    __slots__ = ("v", "dx", "dy", "dxx", "dxy", "dyy")

    def __init__(self, v, dx=0.0, dy=0.0, dxx=0.0, dxy=0.0, dyy=0.0):
        self.v = v
        self.dx = dx
        self.dy = dy
        self.dxx = dxx
        self.dxy = dxy
        self.dyy = dyy

    def __repr__(self):
        return (f"Jet2(v={self.v}, dx={self.dx}, dy={self.dy}, "
                f"dxx={self.dxx}, dxy={self.dxy}, dyy={self.dyy})")

    # arithmetic -------------------------------------------------------------
    def __add__(self, o):
        o = _as_jet(o)
        return Jet2(self.v + o.v, self.dx + o.dx, self.dy + o.dy,
                    self.dxx + o.dxx, self.dxy + o.dxy, self.dyy + o.dyy)

    __radd__ = __add__

    def __sub__(self, o):
        o = _as_jet(o)
        return Jet2(self.v - o.v, self.dx - o.dx, self.dy - o.dy,
                    self.dxx - o.dxx, self.dxy - o.dxy, self.dyy - o.dyy)

    def __rsub__(self, o):
        return _as_jet(o) - self

    def __neg__(self):
        return Jet2(-self.v, -self.dx, -self.dy, -self.dxx, -self.dxy, -self.dyy)

    def __mul__(self, o):
        o = _as_jet(o)
        u, w = self, o
        return Jet2(
            u.v * w.v,
            u.dx * w.v + u.v * w.dx,
            u.dy * w.v + u.v * w.dy,
            u.dxx * w.v + 2.0 * u.dx * w.dx + u.v * w.dxx,
            u.dxy * w.v + u.dx * w.dy + u.dy * w.dx + u.v * w.dxy,
            u.dyy * w.v + 2.0 * u.dy * w.dy + u.v * w.dyy,
        )

    __rmul__ = __mul__

    def reciprocal(self):
        """1 / self.  A zero value raises DomainError; on a grid it gives inf,
        which the grid evaluation reports with its point."""
        v = self.v
        if not isinstance(v, np.ndarray) and v == 0.0:
            raise DomainError("division by zero")
        iv = 1.0 / v
        iv2 = iv * iv
        iv3 = iv2 * iv
        return Jet2(
            iv,
            -self.dx * iv2,
            -self.dy * iv2,
            (2.0 * self.dx * self.dx - v * self.dxx) * iv3,
            (2.0 * self.dx * self.dy - v * self.dxy) * iv3,
            (2.0 * self.dy * self.dy - v * self.dyy) * iv3,
        )

    def __truediv__(self, o):
        return self * _as_jet(o).reciprocal()

    def __rtruediv__(self, o):
        return _as_jet(o) * self.reciprocal()

    def chain(self, f0, f1, f2):
        """Compose with a scalar function given (f(v), f'(v), f''(v))."""
        return Jet2(
            f0,
            f1 * self.dx,
            f1 * self.dy,
            f2 * self.dx * self.dx + f1 * self.dxx,
            f2 * self.dx * self.dy + f1 * self.dxy,
            f2 * self.dy * self.dy + f1 * self.dyy,
        )

    def __pow__(self, k):
        w = k if isinstance(k, Jet2) else Jet2(float(k))
        if isinstance(self.v, np.ndarray) or isinstance(w.v, np.ndarray):
            return _grid_pow(self, w)
        try:
            return _jet_pow(self, w)
        except OverflowError:
            raise DomainError("numerical overflow") from None


def _as_jet(o):
    if isinstance(o, Jet2):
        return o
    return Jet2(float(o))


# Chain rules of the elementary functions, written once for the scalar
# modules (math, cmath) and for NumPy; Jet2 and ComplexJet share chain().
# Domain checks live in the evaluators, which know the sub-expression.

def _chain_rules(m):
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
    if hasattr(m, "copysign"):          # real modules only
        rules["abs"] = lambda u: u.chain(m.fabs(u.v), m.copysign(1.0, u.v), 0.0)
    return rules


_MATH_RULES = _chain_rules(math)
_CMATH_RULES = _chain_rules(cmath)
_NUMPY_RULES = _chain_rules(np)

# function -> ((predicate on the argument's value, message), ...); the
# predicates hold for floats and arrays alike
_REAL_DOMAIN = {
    "log": ((lambda v: v <= 0.0, "log of a non-positive value"),),
    "sqrt": ((lambda v: v < 0.0, "sqrt of a negative value"),
             (lambda v: v == 0.0, "sqrt is not differentiable at 0")),
    "abs": ((lambda v: abs(v) < _ABS_KINK_TOL, "abs is not differentiable at 0"),),
}
_COMPLEX_DOMAIN = {
    "log": ((lambda v: v == 0, "log at the branch point 0"),),
    "sqrt": ((lambda v: v == 0, "sqrt at the branch point 0"),),
}


def _const_power(u, k: float):
    """u^k for a constant exponent k (integral or with u > 0)."""
    v = u.v
    f2 = k * (k - 1.0) * v ** (k - 2.0) if k != 1.0 else 0.0
    return u.chain(v ** k, k * v ** (k - 1.0), f2)


def _grid_const_power(u, k: float):
    """_const_power on a real grid.  np.float_power calls the C library's pow
    as Python floats do (numpy's ** may take a vectorised pow that rounds
    differently), so that grid and point evaluations agree to the bit; pow
    is exact for the exponents 0 and 1, which skip it."""
    v = u.v

    def power(e):
        return 1.0 if e == 0.0 else v if e == 1.0 else np.float_power(v, e)

    f2 = k * (k - 1.0) * power(k - 2.0) if k != 1.0 else 0.0
    return u.chain(power(k), k * power(k - 1.0), f2)


def _jet_pow(u: Jet2, w: Jet2) -> Jet2:
    if w.dx == 0.0 and w.dy == 0.0 and w.dxx == 0.0 and w.dxy == 0.0 and w.dyy == 0.0:
        k = w.v
        if k == round(k):               # OverflowError for an infinite exponent
            if k == 0.0:
                return Jet2(1.0)
            if u.v == 0.0 and k < 0.0:
                raise DomainError("zero raised to a negative power")
            return _const_power(u, k)
        if u.v <= 0.0:
            raise DomainError("non-integer power of a non-positive base")
        return _const_power(u, k)
    # general u^w = exp(w log u)
    if u.v <= 0.0:
        raise DomainError("power with variable exponent needs a positive base")
    return _MATH_RULES["exp"](w * _MATH_RULES["log"](u))


def eval_jet(e: Expr, x, y) -> Jet2:
    """Value and exact partial derivatives up to second order at (x, y).

    With NumPy arrays for x and y (any shapes that broadcast) the slots are
    arrays over those points; domain errors and non-finite values then raise
    DomainError naming the sub-expression and the first offending point in
    C order."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return _eval_jet_grid(e, x, y)
    try:
        return _eval_jet(e, x, y)
    except DomainError:
        raise
    except ZeroDivisionError:
        raise DomainError("division by zero", render(e))
    except OverflowError:
        raise DomainError("numerical overflow", render(e))


def _eval_jet(e: Expr, x: float, y: float) -> Jet2:
    match e:
        case Num(v):
            return Jet2(v)
        case Var(name):
            if name == "x":
                return Jet2(x, 1.0, 0.0)
            if name == "y":
                return Jet2(y, 0.0, 1.0)
            raise DomainError(f"variable '{name}' has no real-context value")
        case Neg(arg):
            return -_eval_jet(arg, x, y)
        case BinOp(op, left, right):
            lu = _eval_jet(left, x, y)
            ru = _eval_jet(right, x, y)
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
                return _jet_pow(lu, ru)
            except DomainError as err:
                raise DomainError(str(err), render(e)) from None
        case Call(func, arg):
            u = _eval_jet(arg, x, y)
            if func in _REAL_DOMAIN:
                for bad, message in _REAL_DOMAIN[func]:
                    if bad(u.v):
                        raise DomainError(message, render(e))
            return _MATH_RULES[func](u)
    raise TypeError(f"not an Expr: {e!r}")


# --- grid evaluation ----------------------------------------------------------------


def _first_point(mask, x, y) -> tuple[float, float]:
    """(x, y) at the first True entry of mask in C order."""
    shape = np.broadcast_shapes(np.shape(mask), np.shape(x), np.shape(y))
    i = np.unravel_index(int(np.argmax(np.broadcast_to(mask, shape))), shape)
    return float(np.broadcast_to(x, shape)[i]), float(np.broadcast_to(y, shape)[i])


def _reject(mask, message: str, node=None, x=None, y=None):
    """Raise DomainError when mask holds anywhere, naming the sub-expression
    node and, when coordinates are given, the first point where it holds."""
    if np.any(mask):
        point = None if x is None else _first_point(mask, x, y)
        raise DomainError(message, "" if node is None else render(node), point)


def _nonfinite(j):
    """Mask of the points where any slot of the jet is NaN or infinite."""
    slots = (j.v, j.dv, j.ddv) if isinstance(j, ComplexJet) else \
        (j.v, j.dx, j.dy, j.dxx, j.dxy, j.dyy)
    bad = False
    for s in slots:
        bad = bad | ~np.isfinite(s)
    return bad


def _uniform_constant(value, derivatives):
    """An exponent's value when it is one constant at every point, else None."""
    if not isinstance(value, np.ndarray) and \
            not any(isinstance(d, np.ndarray) for d in derivatives):
        # a literal or a constant sub-expression: plain scalar slots (NaN is
        # not one constant, as below)
        if value != value or any(d != 0 for d in derivatives):
            return None
        return value
    if any(np.any(d) for d in derivatives):
        return None
    v = np.ravel(value)
    return v[0] if np.all(v == v[0]) else None


def _grid_pow(u: Jet2, w: Jet2, node=None, x=None, y=None) -> Jet2:
    k = _uniform_constant(w.v, (w.dx, w.dy, w.dxx, w.dxy, w.dyy))
    if k is not None:
        k = float(k)
        _reject(not math.isfinite(k), "non-finite exponent", node, x, y)
        if k == round(k):
            if k == 0.0:
                return Jet2(1.0)
            if k < 0.0:
                _reject(u.v == 0.0, "zero raised to a negative power", node, x, y)
            return _grid_const_power(u, k)
        _reject(u.v <= 0.0, "non-integer power of a non-positive base", node, x, y)
        return _grid_const_power(u, k)
    _reject(u.v <= 0.0, "power with variable exponent needs a positive base", node, x, y)
    return _NUMPY_RULES["exp"](w * _NUMPY_RULES["log"](u))


def _eval_jet_grid(e: Expr, x, y) -> Jet2:
    grid = _Grid(x, y, {"x": Jet2(x, 1.0, 0.0), "y": Jet2(y, 0.0, 1.0)},
                 lambda v: Jet2(np.float64(v)), _NUMPY_RULES, _REAL_DOMAIN,
                 _grid_pow, "division by zero", "real")
    return grid.evaluate(e)


class _Grid:
    """One expression evaluated over coordinate arrays: the jets of the
    variables, the jet class's constants, chain rules and domain checks, and
    the coordinates that domain errors name."""

    def __init__(self, x, y, variables, constant, rules, domain, power, pole, context):
        self.x, self.y = x, y
        self.variables = variables
        self.constant = constant          # overflows to inf like the arrays, not raising
        self.rules = rules
        self.domain = domain
        self.power = power
        self.pole = pole
        self.context = context

    def evaluate(self, e: Expr):
        with np.errstate(all="ignore"):
            j = self.walk(e, False)
            if np.any(_nonfinite(j)):
                self.walk(e, True)      # raises at the innermost non-finite node
        return j

    def walk(self, e: Expr, strict: bool):
        """One walk of the tree; strict checks every node for non-finite
        values, to name the sub-expression that produced them."""
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
                lu = self.walk(left, strict)
                ru = self.walk(right, strict)
                if op == "+":
                    out = lu + ru
                elif op == "-":
                    out = lu - ru
                elif op == "*":
                    out = lu * ru
                elif op == "/":
                    _reject(ru.v == 0, self.pole, right, x, y)
                    out = lu / ru
                else:
                    out = self.power(lu, ru, e, x, y)
            case Call(func, arg):
                if func not in self.rules:
                    raise DomainError(f"{func} is not holomorphic", render(e))
                u = self.walk(arg, strict)
                for bad, message in self.domain.get(func, ()):
                    _reject(bad(u.v), message, e, x, y)
                out = self.rules[func](u)
            case _:
                raise TypeError(f"not an Expr: {e!r}")
        if strict:
            _reject(_nonfinite(out), "non-finite value", e, x, y)
        return out


# --- values only ------------------------------------------------------------------


class _Recheck(Exception):
    """Raised inside a value-only evaluation where eval_jet must decide: a
    domain predicate holds, arithmetic fails, or the node is not supported."""


def _value_route(m, power, constant, holds):
    """(elementary functions, power, constant, "holds anywhere") of one
    route; the functions are those of the chain rules over module m."""
    return ({f: getattr(m, "fabs" if f == "abs" else f) for f in FUNCTIONS},
            power, constant, holds)


_SCALAR_VALUES = _value_route(math, lambda v, k: v ** k, float, bool)
_GRID_VALUES = _value_route(np, np.float_power, np.float64, np.any)


def value_function(e: Expr):
    """A function (x, y) -> eval_jet(e, x, y).v that computes no derivatives.

    The tree is compiled once into closures, one set for floats and one for
    arrays, that perform exactly the operations of the jets' value slot:
    division as l * (1 / r), np.float_power on arrays and ** on floats,
    exponents 0 and 1 skipped, the same math and NumPy functions.  Values
    are therefore bit-identical to eval_jet's.  Where a domain predicate
    holds, arithmetic fails, a value on arrays is not finite, or an exponent
    is not a number literal, eval_jet itself is run, so that errors and
    their messages are its own."""
    try:
        scalar = _compile_value(e, _SCALAR_VALUES)
        grid = _compile_value(e, _GRID_VALUES)
    except _Recheck:
        return lambda x, y: eval_jet(e, x, y).v

    def value(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            with np.errstate(all="ignore"):
                try:
                    v = grid(x, y)
                except _Recheck:
                    return eval_jet(e, x, y).v
            return v if np.isfinite(v).all() else eval_jet(e, x, y).v
        try:
            return scalar(x, y)
        except (_Recheck, ArithmeticError, ValueError):
            return eval_jet(e, x, y).v

    return value


def _literal(e: Expr) -> float:
    """The value of a signed number literal, or _Recheck."""
    match e:
        case Num(v) if math.isfinite(v):
            return v
        case Neg(arg):
            return -_literal(arg)
    raise _Recheck


def _compile_value(e: Expr, route):
    functions, power, constant, holds = route
    match e:
        case Num(v):
            c = constant(v)
            return lambda x, y: c
        case Var("x"):
            return lambda x, y: x
        case Var("y"):
            return lambda x, y: y
        case Neg(arg):
            f = _compile_value(arg, route)
            return lambda x, y: -f(x, y)
        case BinOp("^", base, expo):
            return _compile_power(_compile_value(base, route), _literal(expo), power, holds)
        case BinOp(op, left, right):
            f, g = _compile_value(left, route), _compile_value(right, route)
            if op == "+":
                return lambda x, y: f(x, y) + g(x, y)
            if op == "-":
                return lambda x, y: f(x, y) - g(x, y)
            if op == "*":
                return lambda x, y: f(x, y) * g(x, y)
            if op == "/":
                def quotient(x, y):
                    u, w = f(x, y), g(x, y)
                    if holds(w == 0.0):
                        raise _Recheck
                    return u * (1.0 / w)

                return quotient
        case Call(func, arg) if func in functions:
            f, g = _compile_value(arg, route), functions[func]
            checks = [bad for bad, _ in _REAL_DOMAIN.get(func, ())]

            def call(x, y):
                u = f(x, y)
                for bad in checks:
                    if holds(bad(u)):
                        raise _Recheck
                return g(u)

            return call
    raise _Recheck


def _compile_power(f, k: float, power, holds):
    """u^k for a literal k, as _jet_pow and _grid_pow compute its value."""
    if k == 0.0:
        def one(x, y):
            f(x, y)                     # for the domain checks inside the base
            return 1.0

        return one
    if k == 1.0:
        return f
    integral = k == round(k)
    if integral and k > 0.0:
        return lambda x, y: power(f(x, y), k)
    bad = (lambda v: v == 0.0) if integral else (lambda v: v <= 0.0)

    def checked(x, y):
        u = f(x, y)
        if holds(bad(u)):
            raise _Recheck
        return power(u, k)

    return checked


# --- complex jets ----------------------------------------------------------------

class ComplexJet:
    """Value and the first two z-derivatives of a holomorphic expression.
    Slots are complex numbers or, for grid evaluations, complex arrays."""

    __slots__ = ("v", "dv", "ddv")

    def __init__(self, v, dv=0j, ddv=0j):
        self.v = v
        self.dv = dv
        self.ddv = ddv

    def __repr__(self):
        return f"ComplexJet(v={self.v}, dv={self.dv}, ddv={self.ddv})"

    def __add__(self, o):
        return ComplexJet(self.v + o.v, self.dv + o.dv, self.ddv + o.ddv)

    def __sub__(self, o):
        return ComplexJet(self.v - o.v, self.dv - o.dv, self.ddv - o.ddv)

    def __neg__(self):
        return ComplexJet(-self.v, -self.dv, -self.ddv)

    def __mul__(self, o):
        return ComplexJet(
            self.v * o.v,
            self.dv * o.v + self.v * o.dv,
            self.ddv * o.v + 2.0 * self.dv * o.dv + self.v * o.ddv,
        )

    def reciprocal(self):
        if not isinstance(self.v, np.ndarray) and self.v == 0:
            raise DomainError("complex division by zero (pole)")
        iv = 1.0 / self.v
        return self.chain(iv, -iv * iv, 2.0 * iv * iv * iv)

    def __truediv__(self, o):
        return self * o.reciprocal()

    def chain(self, f0, f1, f2):
        return ComplexJet(
            f0,
            f1 * self.dv,
            f2 * self.dv * self.dv + f1 * self.ddv,
        )


def _cpow(u: ComplexJet, w: ComplexJet) -> ComplexJet:
    if w.dv == 0 and w.ddv == 0 and w.v.imag == 0.0 and w.v.real == round(w.v.real):
        k = w.v.real
        if k == 0.0:
            return ComplexJet(1.0 + 0j)
        if u.v == 0 and k < 0.0:
            raise DomainError("complex pole: zero to a negative power")
        return _const_power(u, k)
    if u.v == 0:
        raise DomainError("log at the branch point 0")
    return _CMATH_RULES["exp"](w * _CMATH_RULES["log"](u))


def eval_complex(e: Expr, z) -> ComplexJet:
    """Value and z-derivatives of a complex-context expression at z.  With a
    complex array z the slots are arrays, and errors name the first
    offending point as (Re z, Im z)."""
    if isinstance(z, np.ndarray):
        return _eval_complex_grid(e, z.astype(complex))
    try:
        return _eval_complex(e, complex(z))
    except DomainError:
        raise
    except ZeroDivisionError:
        raise DomainError("complex division by zero (pole)", render(e))
    except OverflowError:
        raise DomainError("numerical overflow", render(e))


def _eval_complex(e: Expr, z: complex) -> ComplexJet:
    match e:
        case Num(v):
            return ComplexJet(complex(v))
        case Var(name):
            if name == "z":
                return ComplexJet(z, 1.0 + 0j)
            raise DomainError(f"variable '{name}' has no complex-context value")
        case Neg(arg):
            return -_eval_complex(arg, z)
        case BinOp(op, left, right):
            lu = _eval_complex(left, z)
            ru = _eval_complex(right, z)
            if op == "+":
                return lu + ru
            if op == "-":
                return lu - ru
            if op == "*":
                return lu * ru
            if op == "/":
                return lu / ru
            return _cpow(lu, ru)
        case Call(func, arg):
            if func == "abs":
                raise DomainError("abs is not holomorphic")
            u = _eval_complex(arg, z)
            if func in _COMPLEX_DOMAIN:
                for bad, message in _COMPLEX_DOMAIN[func]:
                    if bad(u.v):
                        raise DomainError(message, render(e))
            return _CMATH_RULES[func](u)
    raise TypeError(f"not an Expr: {e!r}")


def _grid_cpow(u: ComplexJet, w: ComplexJet, node, x, y) -> ComplexJet:
    k = _uniform_constant(w.v, (w.dv, w.ddv))
    if k is not None and k.imag == 0.0 and math.isfinite(k.real) and k.real == round(k.real):
        k = float(k.real)
        if k == 0.0:
            return ComplexJet(1.0 + 0j)
        if k < 0.0:
            _reject(u.v == 0, "complex pole: zero to a negative power", node, x, y)
        return _const_power(u, k)
    _reject(u.v == 0, "log at the branch point 0", node, x, y)
    return _NUMPY_RULES["exp"](w * _NUMPY_RULES["log"](u))


_NUMPY_HOLOMORPHIC = {name: rule for name, rule in _NUMPY_RULES.items() if name != "abs"}


def _eval_complex_grid(e: Expr, z) -> ComplexJet:
    grid = _Grid(z.real, z.imag, {"z": ComplexJet(z, 1.0 + 0j)},
                 lambda v: ComplexJet(np.complex128(v)), _NUMPY_HOLOMORPHIC,
                 _COMPLEX_DOMAIN, _grid_cpow, "complex division by zero (pole)", "complex")
    return grid.evaluate(e)


# --- symbolic derivative -----------------------------------------------------------

def simplify(e: Expr) -> Expr:
    """Constant folding and identity elimination (0 + e, 1 * e, e ^ 1, ...);
    keeps derivative trees produced by diff() from blowing up."""
    match e:
        case Num(_) | Var(_):
            return e
        case Neg(arg):
            arg = simplify(arg)
            match arg:
                case Num(v):
                    return Num(-v)
                case Neg(inner):
                    return inner
            return Neg(arg)
        case Call(func, arg):
            return Call(func, simplify(arg))
        case BinOp(op, l, r):
            l, r = simplify(l), simplify(r)
            if isinstance(l, Num) and isinstance(r, Num) and op != "/":
                if op == "+":
                    return Num(l.value + r.value)
                if op == "-":
                    return Num(l.value - r.value)
                if op == "*":
                    return Num(l.value * r.value)
                if op == "^" and (l.value > 0.0 or r.value == int(r.value)):
                    return Num(l.value ** r.value)
            if op == "+":
                if _is_num(l, 0.0):
                    return r
                if _is_num(r, 0.0):
                    return l
            elif op == "-":
                if _is_num(r, 0.0):
                    return l
                if _is_num(l, 0.0):
                    return simplify(Neg(r))
            elif op == "*":
                if _is_num(l, 0.0) or _is_num(r, 0.0):
                    return Num(0.0)
                if _is_num(l, 1.0):
                    return r
                if _is_num(r, 1.0):
                    return l
            elif op == "/":
                # 0 / 0 stays, so that evaluating it raises DomainError
                if _is_num(l, 0.0) and not _is_num(r, 0.0):
                    return Num(0.0)
                if _is_num(r, 1.0):
                    return l
            elif op == "^":
                if _is_num(r, 1.0):
                    return l
                if _is_num(r, 0.0):
                    return Num(1.0)
            return BinOp(op, l, r)
    raise TypeError(f"not an Expr: {e!r}")


def _is_num(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def diff(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to var (used where a derived
    function such as Y' must itself be evaluable to order-2 jets)."""
    return simplify(_diff(e, var))


def _diff(e: Expr, var: str) -> Expr:
    diff = _diff
    match e:
        case Num(_):
            return Num(0.0)
        case Var(name):
            return Num(1.0) if name == var else Num(0.0)
        case Neg(arg):
            return Neg(diff(arg, var))
        case BinOp("+", l, r):
            return BinOp("+", diff(l, var), diff(r, var))
        case BinOp("-", l, r):
            return BinOp("-", diff(l, var), diff(r, var))
        case BinOp("*", l, r):
            return BinOp("+", BinOp("*", diff(l, var), r), BinOp("*", l, diff(r, var)))
        case BinOp("/", l, r):
            num = BinOp("-", BinOp("*", diff(l, var), r), BinOp("*", l, diff(r, var)))
            return BinOp("/", num, BinOp("^", r, Num(2.0)))
        case BinOp("^", base, Num(k)):
            inner = BinOp("*", Num(k), BinOp("^", base, Num(k - 1.0)))
            return BinOp("*", inner, diff(base, var))
        case BinOp("^", base, expo):
            # u^w = exp(w log u)
            return diff(Call("exp", BinOp("*", expo, Call("log", base))), var)
        case Call(func, arg):
            d = diff(arg, var)
            match func:
                case "sin":
                    outer = Call("cos", arg)
                case "cos":
                    outer = Neg(Call("sin", arg))
                case "exp":
                    outer = Call("exp", arg)
                case "log":
                    outer = BinOp("/", Num(1.0), arg)
                case "sqrt":
                    outer = BinOp("/", Num(0.5), Call("sqrt", arg))
                case "abs":
                    outer = BinOp("/", arg, Call("abs", arg))
                case _:
                    raise ValueError(func)
            return BinOp("*", outer, d)
    raise TypeError(f"not an Expr: {e!r}")
