"""Expression language for metric and integral coefficients.

Grammar (EBNF, see README):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;            (* right associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;

Variables: x, y in the real context, z in the complex context.  No implicit
multiplication.  Functions: sin, cos, exp, log, sqrt, abs.

Evaluation is jet-based: a Jet2 holds a value and all partial derivatives
up to second order, a ComplexJet the value and first two z-derivatives of a
holomorphic expression.  projeq.codegen compiles expressions into
straight-line code for them; this module holds the language itself (trees,
parser, rendering), jet arithmetic, symbolic derivatives and the real parts
of holomorphic expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, LiteralOverflow, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")

REAL_VARIABLES = ("x", "y")
COMPLEX_VARIABLES = ("z",)



# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True, eq=False, slots=True)
class Leaf:
    """A field known only by its jet function (x, y) -> Jet2 on floats: a
    composed, quadrature or otherwise opaque field inside the expression of
    a field built by arithmetic.  The parser never makes one; only
    codegen.kernel_function evaluates it, by calling the function.  Two leaves are
    the same node only if they are the same object."""
    jet: object


Expr = Num | Var | Neg | BinOp | Call | Leaf


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
        _, val, p = self.tokens[-1]
        return p + len(val)

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


def parse(text: str, variables: tuple[str, ...] = REAL_VARIABLES) -> Expr:
    """Parse an expression in the given variables: by default x and y (the
    real context); variables=('z',) for the complex context, or
    variables=('y',) for a function of y alone."""
    if not text or not text.strip():
        raise ExprSyntaxError(0, "empty expression")
    return _Parser(_tokenize(text), variables).parse()


# --- rendering ----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _render(e: Expr, parent_prec: int, right_side: bool) -> str:
    match e:
        case Num(v):
            if math.copysign(1.0, v) < 0.0:     # "-2.0^2" would read as -(2^2)
                return _render(Neg(Num(-v)), parent_prec, right_side)
            return repr(v)
        case Var(name):
            return name
        case Leaf():
            return "<field>"
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
    """Render back to a string; parse(render(e)) is e, up to a negative
    literal, which comes back as a negated positive one."""
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


def _as_jet(o):
    if isinstance(o, Jet2):
        return o
    return Jet2(float(o))


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


# --- tree helpers ---------------------------------------------------------------

def _has_variable(e: Expr) -> bool:
    """Whether e contains a variable: an exponent without one is a constant."""
    match e:
        case Var(_) | Leaf():
            return True
        case Neg(arg) | Call(_, arg):
            return _has_variable(arg)
        case BinOp(_, left, right):
            return _has_variable(left) or _has_variable(right)
    return False


def _literal(e: Expr, F):
    """The value of a number literal, possibly negated, as the value code
    computes it with F = float or complex; None for other nodes."""
    match e:
        case Num(v):
            return F(v)
        case Neg(arg):
            k = _literal(arg, F)
            return None if k is None else -k
    return None


# --- real parts of holomorphic expressions ---------------------------------------

_ONE = (Num(1.0), Num(0.0))


def _cmul(u, w):
    """(Re, Im) of u w from those of u and w, as CPython multiplies complex
    numbers; a factor 1 is left out."""
    if u == _ONE:
        return w
    (a, b), (c, d) = u, w
    return (BinOp("-", BinOp("*", a, c), BinOp("*", b, d)),
            BinOp("+", BinOp("*", a, d), BinOp("*", b, c)))


def _cinv(w):
    """(Re, Im) of 1 / w."""
    c, d = w
    den = BinOp("+", BinOp("*", c, c), BinOp("*", d, d))
    return BinOp("/", c, den), BinOp("/", Neg(d), den)


def _cpow(u, n: int):
    """(Re, Im) of u^n for an integer n, by CPython's binary powering."""
    if n < 0:
        return _cinv(_cpow(u, -n))
    out = _ONE
    while n:
        if n & 1:
            out = _cmul(out, u)
        n >>= 1
        if n:
            u = _cmul(u, u)
    return out


def real_parts(h: Expr) -> tuple[Expr, Expr] | None:
    """(Re h, Im h) at z = x + i y as real expressions in x and y, or None
    where the grammar has no real form: sums, products, quotients, exp and
    powers to integer literals up to 100 in size (those CPython computes by
    multiplying) expand; log, sqrt, sin, cos and other powers do not."""
    match h:
        case Num(v):
            return Num(v), Num(0.0)
        case Var("z"):
            return Var("x"), Var("y")
        case Neg(arg):
            u = real_parts(arg)
            return u and (Neg(u[0]), Neg(u[1]))
        case BinOp("^", base, expo):
            u, k = real_parts(base), _literal(expo, float)
            if u is None or k is None or not abs(k) <= 100.0 or k != round(k):
                return None
            return _cpow(u, int(k))
        case BinOp(op, left, right):
            u, w = real_parts(left), real_parts(right)
            if u is None or w is None:
                return None
            if op in "+-":
                return BinOp(op, u[0], w[0]), BinOp(op, u[1], w[1])
            return _cmul(u, w if op == "*" else _cinv(w))
        case Call("exp", arg):
            u = real_parts(arg)
            if u is None:
                return None
            modulus = Call("exp", u[0])
            return (BinOp("*", modulus, Call("cos", u[1])),
                    BinOp("*", modulus, Call("sin", u[1])))
    return None


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
                # ^: 0 to a negative power and overflow are left to evaluation
                integral = math.isfinite(r.value) and r.value == round(r.value)
                if (l.value > 0.0 or integral) and not (l.value == 0.0 and r.value < 0.0):
                    try:
                        return Num(l.value ** r.value)
                    except OverflowError:
                        pass
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
        case BinOp("^", base, expo) if not _has_variable(expo):
            # a constant exponent, such as a negated literal: the power rule
            inner = BinOp("*", expo, BinOp("^", base, BinOp("-", expo, Num(1.0))))
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
