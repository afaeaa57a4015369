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
holomorphic expression.  Both compile the expression into straight-line
Python code (see the compiler below); jet_function, complex_function and
value_function keep the compiled code for repeated evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce

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
            if math.copysign(1.0, v) < 0.0:     # "-2.0^2" would read as -(2^2)
                return _render(Neg(Num(-v)), parent_prec, right_side)
            return repr(v)
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


# --- compiled evaluation ------------------------------------------------------------
#
# An expression is compiled into the source of one straight-line function per
# kind (an order-2 real jet, its value alone, a complex jet) and backend:
# floats through math (cmath) and **, arrays through NumPy and np.float_power,
# which calls the C library's pow as ** on floats does.  Every slot follows
# the jet arithmetic above operation for operation; a common subexpression is
# computed once, and derivative slots known to be 0 or 1 are folded away.
# A product folded to 0 differs from the computed one only where its other
# factor is not finite (0 * inf is NaN); a complex product folded to its
# factor differs there too, or in the sign of a zero.  Such factors are
# summed, and where the sum is not finite the function runs again unfolded
# ("exact").  Non-finite array results go there too, and the exact function
# names the innermost node with a non-finite slot.  Nothing is cached beyond
# the returned function.
#
# An exponent without variables is a constant: its value is computed once,
# while compiling, and the power rule uses it on floats and arrays alike.
# Any other exponent goes through exp(w log u).


def jet_function(e: Expr):
    """The function (x, y) -> eval_jet(e, x, y), compiled on first use."""
    fn = _Compiled(e, "jet")

    def jet(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            with np.errstate(all="ignore"):
                return fn(True)(x, y)
        try:
            return fn(False)(x, y)
        except ArithmeticError as err:
            raise DomainError(_arithmetic(err, "division by zero"), render(e)) from None

    return jet


def complex_function(e: Expr):
    """The function z -> eval_complex(e, z), compiled on first use."""
    fn = _Compiled(e, "complex")

    def jet(z):
        if isinstance(z, np.ndarray):
            with np.errstate(all="ignore"):
                return fn(True)(z.astype(complex))
        try:
            return fn(False)(complex(z))
        except ArithmeticError as err:
            raise DomainError(_arithmetic(err, "complex division by zero (pole)"),
                              render(e)) from None

    return jet


def value_function(e: Expr):
    """A function (x, y) -> eval_jet(e, x, y).v that computes no derivatives:
    the jet's value code alone, so values are bit-identical.  Where a domain
    check fails, arithmetic raises or an array value is not finite, it
    returns the jet's value instead, so that errors and their messages are
    the jet's own."""
    fn, jet = _Compiled(e, "value"), jet_function(e)

    def value(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            with np.errstate(all="ignore"):
                try:
                    v = fn(True)(x, y)
                except DomainError:
                    return jet(x, y).v
            return v if np.isfinite(v).all() else jet(x, y).v
        try:
            return fn(False)(x, y)
        except (DomainError, ArithmeticError, ValueError):
            return jet(x, y).v

    return value


def eval_jet(e: Expr, x, y) -> Jet2:
    """Value and exact partial derivatives up to second order at (x, y).

    With NumPy arrays for x and y (any shapes that broadcast) the slots are
    arrays over those points; domain errors and non-finite values then raise
    DomainError naming the sub-expression and the first offending point in
    C order.  Each call compiles e: keep jet_function(e) to evaluate often."""
    return jet_function(e)(x, y)


def eval_complex(e: Expr, z) -> ComplexJet:
    """Value and z-derivatives of a complex-context expression at z.  With a
    complex array z the slots are arrays, and errors name the first
    offending point as (Re z, Im z)."""
    return complex_function(e)(z)


def _arithmetic(err, pole: str) -> str:
    """The message for an ArithmeticError on floats."""
    return pole if isinstance(err, ZeroDivisionError) else "numerical overflow"


class _Compiled:
    """The functions of one expression and kind, one for floats and one for
    arrays, each compiled on first use: call with grid = False or True."""

    def __init__(self, e: Expr, kind: str, exact: bool = False):
        self.expr, self.kind, self.exact, self.fns = e, kind, exact, {}

    def __call__(self, grid: bool):
        fn = self.fns.get(grid)
        if fn is None:
            emitter = _Emitter(self.kind, grid, self.exact)
            ns = dict(_NAMESPACES[self.kind == "complex", grid], E=emitter.errors)
            if not self.exact:
                exact = _Compiled(self.expr, self.kind, exact=True)
                ns["X"] = lambda *args: exact(grid)(*args)
            exec(compile(emitter.source(self.expr), "<projeq expression>", "exec"), ns)
            fn = self.fns[grid] = ns["f"]
        return fn


def _first_point(mask, x, y) -> tuple[float, float]:
    """(x, y) at the first True entry of mask in C order."""
    shape = np.broadcast_shapes(np.shape(mask), np.shape(x), np.shape(y))
    i = np.unravel_index(int(np.argmax(np.broadcast_to(mask, shape))), shape)
    return float(np.broadcast_to(x, shape)[i]), float(np.broadcast_to(y, shape)[i])


def _raise(errors, i: int, mask=None, x=None, y=None):
    """Error i of a compiled function, at the first grid point of mask."""
    message, node = errors[i]
    raise DomainError(message, "" if node is None else render(node),
                      None if mask is None else _first_point(mask, x, y))


def _mark(first, i: int, *slots):
    """first, or else (i, mask) if some slot is not finite somewhere."""
    if first is None:
        bad = reduce(np.logical_or, [~np.isfinite(s) for s in slots])
        if np.any(bad):
            return i, bad
    return first


_NAMESPACES = {
    (cplx, grid): {
        **{name: getattr(np if grid else cmath if cplx else math, name, None)
           for name in ("sin", "cos", "exp", "log", "sqrt", "fabs", "copysign")},
        "F": (np.complex128 if grid else complex) if cplx else np.float64,
        "J": ComplexJet if cplx else Jet2, "pw": np.float_power, "inf": math.inf,
        "nan": math.nan, "_any": np.any, "_raise": _raise, "_mark": _mark}
    for cplx in (False, True) for grid in (False, True)}

# function -> ((predicate on the argument's value, as source), message), ...)
_REAL_DOMAIN = {
    "log": (("{} <= 0.0", "log of a non-positive value"),),
    "sqrt": (("{} < 0.0", "sqrt of a negative value"),
             ("{} == 0.0", "sqrt is not differentiable at 0")),
    "abs": ((f"abs({{}}) < {_ABS_KINK_TOL!r}", "abs is not differentiable at 0"),),
}
_COMPLEX_DOMAIN = {
    "log": (("{} == 0", "log at the branch point 0"),),
    "sqrt": (("{} == 0", "sqrt at the branch point 0"),),
}
# f(v), f'(v), f''(v) as source over v and the results f0, f1 before them
_CHAIN = {
    "sin": ("sin({v})", "cos({v})", "(-{f0})"),
    "cos": ("cos({v})", "(-sin({v}))", "(-{f0})"),
    "exp": ("exp({v})", "{f0}", "{f0}"),
    "log": ("log({v})", "(1.0 / {v})", "((-{f1}) * {f1})"),
    "sqrt": ("sqrt({v})", "(0.5 / {f0})", "(-0.25 / ({f0} * {v}))"),
    "abs": ("fabs({v})", "copysign(1.0, {v})", None),     # f'' = 0
}


def _has_variable(e: Expr) -> bool:
    """Whether e contains a variable: an exponent without one is a constant."""
    match e:
        case Var(_):
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


def _const(s) -> bool:
    return type(s) is not str


class _Dead(Exception):
    """The emitted code raises unconditionally here; raised by _dead with
    the error (message, node) when a constant is computed."""


def _dead(errors, i: int, *_):
    raise _Dead(*errors[i])


class _Emitter:
    """The source of one compiled function, emitted node by node.

    A jet is a tuple of slots (value, first, second derivatives): source
    texts, or numbers for derivative slots known at generation time.  The
    texts hold only literals (repr of an int or float), the variables, the
    names of _NAMESPACES and generated temporaries t1, t2, ..."""

    def __init__(self, kind: str, grid: bool, exact: bool, top: Expr | None = None):
        self.kind, self.grid, self.fold, self.record = kind, grid, not exact, exact and grid
        self.complex, self.top = kind == "complex", top
        self.zero, self.one = (0j, 1 + 0j) if self.complex else (0.0, 1.0)
        # second-derivative slots as pairs of first-derivative slots
        self.pairs = {"jet": ((1, 1), (1, 2), (2, 2)), "value": (),
                      "complex": ((1, 1),)}[kind]
        self.first = {"jet": 2, "value": 0, "complex": 1}[kind]
        self.args, self.at = ("z", "z.real, z.imag") if self.complex else ("x, y", "x, y")
        self.lines, self.errors, self.depth, self.n = [], [], 1, 0
        self.ids, self.keys, self.memo = {}, {}, {}
        self.taints = {}                        # factors of folded products
        self.safe = {self.txt(self.one)}        # finite literals

    def source(self, e: Expr) -> str:
        """The function's source; top, if given, is the whole expression
        that e is part of, which an overflow names."""
        if self.top is None:
            self.top = e
        if self.record:
            self.line("B = None")
        try:
            jet = self.node(e)
        except _Dead:
            jet = None
        if jet is not None:
            live = [s for s in jet if not _const(s)]
            if self.record:
                self.line(f"if _mark(None, 0, {', '.join(live)}): _raise(E, *B, {self.at})")
            if self.grid and self.kind != "value":
                for s in live:
                    self.taint(s)
            self.guard()
            out = ", ".join(map(self.txt, jet))
            self.line(f"return {out}" if self.kind == "value" else f"return J({out})")
        return f"def f({self.args}):\n" + "\n".join(self.lines) + "\n"

    def guard(self):
        """Run the exact function instead if a factor of a product folded to 0
        so far is not finite."""
        if self.fold and self.taints:
            self.line(f"P = {' + '.join(self.taints)}")
            self.line(f"if {'_any(P - P)' if self.grid else 'P - P'}: return X({self.args})")

    def line(self, text: str):
        self.lines.append("    " * self.depth + text)

    def tmp(self, s):
        """s as a number or a name that later lines can reuse."""
        if _const(s) or s.isidentifier() or s in self.safe:
            return s
        self.n += 1
        self.line(f"t{self.n} = {s}")
        return f"t{self.n}"

    def txt(self, s) -> str:
        return s if not _const(s) else f"({s!r})"

    def error(self, message: str, node) -> int:
        self.errors.append((message, node))
        return len(self.errors) - 1

    def check(self, cond: str, message: str, node):
        i = self.error(message, node)
        if self.grid:
            mask = self.tmp(cond)
            self.line(f"if _any({mask}): _raise(E, {i}, {mask}, {self.at})")
        else:
            self.line(f"if {cond}: _raise(E, {i})")

    def fail(self, message: str, node=None, at_point=False):
        """Raise unconditionally; on a grid at its first point if at_point."""
        if at_point:
            self.check("True", message, node)
        else:
            self.line(f"_raise(E, {self.error(message, node)})")
        raise _Dead

    # slots ---------------------------------------------------------------------------
    def mul(self, a, b):
        for c, o in ((a, b), (b, a)) if self.fold else ():
            if _const(c) and c in (0, 1):
                if c == 0 or self.complex:
                    self.taint(o)
                return self.zero if c == 0 else o
        if _const(a) and _const(b):
            return a * b
        return f"({self.txt(a)} * {self.txt(b)})"

    def add(self, a, b, op="+"):
        if _const(a) and _const(b):
            return a + b if op == "+" else a - b
        if self.fold and _const(b) and b == 0:
            return a
        if self.fold and _const(a) and a == 0:
            return b if op == "+" else self.neg(b)
        return f"({self.txt(a)} {op} {self.txt(b)})"

    def neg(self, a):
        if not _const(a):
            return f"(-{a})"
        return self.zero if self.fold and a == 0 else -a

    def taint(self, s):
        if not _const(s) and s not in self.safe:
            self.taints[s] = None

    # jets ----------------------------------------------------------------------------
    def jet(self, v: str, first=()):
        return (v, *first, *(self.zero,) * (self.first - len(first) + len(self.pairs)))

    def number(self, text: str, finite: bool):
        """The jet of a constant given as source; a finite one is safe."""
        if finite:
            self.safe.add(text)
        return self.jet(text)

    def mul_jet(self, u, w):
        mul, add = self.mul, self.add
        out = [mul(u[0], w[0])]
        out += [add(mul(u[i], w[0]), mul(u[0], w[i])) for i in range(1, self.first + 1)]
        for n, (i, j) in enumerate(self.pairs, self.first + 1):
            mid = [mul(mul(2.0, u[i]), w[i])] if i == j else [mul(u[i], w[j]), mul(u[j], w[i])]
            out.append(reduce(add, [mul(u[n], w[0]), *mid, mul(u[0], w[n])]))
        return tuple(out)

    def chain(self, u, f0, f1, f2):
        """The jet of f(u) from (f(v), f'(v), f''(v))."""
        mul = self.mul
        return (f0, *(mul(f1, u[i]) for i in range(1, self.first + 1)),
                *(self.add(mul(mul(f2, u[i]), u[j]), mul(f1, u[n]))
                  for n, (i, j) in enumerate(self.pairs, self.first + 1)))

    def reciprocal(self, u):
        mul, tmp, iv = self.mul, self.tmp, self.tmp(f"(1.0 / {u[0]})")
        if self.kind == "value":
            return (iv,)
        if self.complex:
            return self.chain(u, iv, tmp(mul(self.neg(iv), iv)),
                              tmp(mul(mul(mul(2.0, iv), iv), iv)))
        iv2 = tmp(mul(iv, iv))
        iv3 = tmp(mul(iv2, iv))
        return (iv, mul(self.neg(u[1]), iv2), mul(self.neg(u[2]), iv2),
                *(mul(self.add(mul(mul(2.0, u[i]), u[j]), mul(u[0], u[n]), "-"), iv3)
                  for n, (i, j) in enumerate(self.pairs, 3)))

    def call(self, func: str, u):
        t0, t1, t2 = _CHAIN[func]
        f0 = self.tmp(t0.format(v=u[0]))
        if self.kind == "value":
            return (f0,)
        f1 = self.tmp(t1.format(v=u[0], f0=f0))
        f2 = 0.0 if t2 is None else self.tmp(t2.format(v=u[0], f0=f0, f1=f1))
        return self.chain(u, f0, f1, f2)

    # powers --------------------------------------------------------------------------
    def pw(self, v: str, k: float):
        """v ** k as the power rule computes it: exponents 0 and 1 exactly."""
        if k == 0.0:
            return self.one
        if k == 1.0 and (self.fold or not self.complex):
            if self.complex:
                self.taint(v)
            return v
        if self.complex or not self.grid:
            return f"({v} ** {self.txt(k)})"
        return f"pw({v}, {k!r})"

    def power(self, e: BinOp, u):
        """u ^ w by the power rule when w has no variables (in the complex
        context, when its value is also a real, finite integer), else as
        exp(w log u)."""
        # the power's errors name it, except on complex floats
        node = None if self.complex and not self.grid else e
        if _has_variable(e.right):
            return self.variable_power(node, u, self.node(e.right))
        k = self.constant(e.right)
        if self.complex:
            if k.imag != 0.0 or not math.isfinite(k.real) or k.real != round(k.real):
                w = self.number(f"F({k.real!r}, {k.imag!r})", cmath.isfinite(k))
                return self.variable_power(node, u, w)
            k = k.real
        elif not math.isfinite(k):
            self.fail("non-finite exponent", node, at_point=True)
        if k == 0.0:
            return self.jet(self.txt(self.one))
        if k != round(k):
            self.check(f"{u[0]} <= 0.0", "non-integer power of a non-positive base", node)
        elif k < 0.0:
            self.check(f"{u[0]} == 0", "complex pole: zero to a negative power" if self.complex
                       else "zero raised to a negative power", node)
        return self.power_chain(u, k)

    def constant(self, e: Expr):
        """The value of e, which has no variables, computed now by the float
        value code (complex code in the complex context).  Where computing
        it raises, the emitted code raises that error, on a grid at its
        first point."""
        k = _literal(e, complex if self.complex else float)
        if k is not None:
            return k
        sub = _Emitter("complex" if self.complex else "value", False, exact=True, top=self.top)
        ns = dict(_NAMESPACES[self.complex, False], E=sub.errors, _raise=_dead)
        exec(compile(sub.source(e), "<projeq expression>", "exec"), ns)
        try:
            k = ns["f"](0j) if self.complex else ns["f"](0.0, 0.0)
        except _Dead as dead:
            self.fail(*dead.args, at_point=True)
        except (ArithmeticError, ValueError) as err:     # ValueError: sin or cos of inf
            pole = "complex division by zero (pole)" if self.complex else "division by zero"
            self.fail(_arithmetic(err, pole), self.top, at_point=True)
        return k.v if self.complex else k

    def power_chain(self, u, k: float):
        """u ^ k through the chain rule, for k != 0.  The powers run in the
        jets' order, f'' first, since on complex floats the first to fail
        decides the error."""
        v, f2 = u[0], 0.0
        if self.kind != "value" and k != 1.0:
            f2 = self.tmp(self.mul(k * (k - 1.0), self.pw(v, k - 2.0)))
        f0 = self.tmp(self.pw(v, k))
        if self.kind == "value":
            return (f0,)
        return self.chain(u, f0, self.tmp(self.mul(k, self.pw(v, k - 1.0))), f2)

    def variable_power(self, node, u, w):
        """u ^ w = exp(w log u)."""
        if self.complex:
            self.check(f"{u[0]} == 0", "log at the branch point 0", node)
        else:
            self.check(f"{u[0]} <= 0.0", "power with variable exponent needs a positive base",
                       node)
        lg = tuple(map(self.tmp, self.call("log", u)))
        return self.call("exp", tuple(map(self.tmp, self.mul_jet(w, lg))))

    # nodes ---------------------------------------------------------------------------
    def key(self, e: Expr) -> int:
        """A number naming e's structure, exact in its literals (0.0 is not
        -0.0).  Its first call checks that the whole tree consists of nodes
        the parser makes, before any source is written."""
        key = self.keys.get(id(e))
        if key is None:
            match e:
                case Num(v) if type(v) in (int, float):
                    s = ("n", repr(v))
                case Var(name) if name in REAL_VARIABLES + COMPLEX_VARIABLES:
                    s = ("v", name)
                case Neg(arg):
                    s = ("-", self.key(arg))
                case BinOp(op, left, right) if op in ("+", "-", "*", "/", "^"):
                    s = (op, self.key(left), self.key(right))
                case Call(func, arg) if func in FUNCTIONS:
                    s = (func, self.key(arg))
                case _:
                    raise TypeError(f"not an Expr: {e!r}")
            key = self.keys[id(e)] = self.ids.setdefault(s, len(self.ids))
        return key

    def node(self, e: Expr):
        key = self.key(e)
        if key not in self.memo:
            jet = tuple(map(self.tmp, self.emit(e)))
            if self.record:
                live = ", ".join(s for s in jet if not _const(s))
                self.line(f"B = _mark(B, {self.error('non-finite value', e)}, {live})")
            self.memo[key] = jet
        return self.memo[key]

    def emit(self, e: Expr):
        match e:
            case Num(v):
                return self.number(f"F({v!r})" if self.grid or self.complex else f"({v!r})",
                                   math.isfinite(v))
            case Var(name):
                if (name in COMPLEX_VARIABLES) != self.complex:
                    context = "complex" if self.complex else "real"
                    self.fail(f"variable '{name}' has no {context}-context value")
                z, o = self.zero, self.one
                return self.jet(name, {"x": (o, z), "y": (z, o), "z": (o,)}[name][:self.first])
            case Neg(arg):
                return tuple(map(self.neg, self.node(arg)))
            case BinOp("^", base, _):
                return self.power(e, self.node(base))
            case BinOp(op, left, right):
                u, w = self.node(left), self.node(right)
                if op in ("+", "-"):
                    return tuple(self.add(a, b, op) for a, b in zip(u, w))
                if op == "/" and self.complex:
                    self.check(f"{w[0]} == 0", "complex division by zero (pole)",
                               right if self.grid else None)
                elif op == "/":
                    self.check(f"{w[0]} == 0.0", "division by zero", right)
                if op == "/":
                    w = tuple(map(self.tmp, self.reciprocal(w)))
                return self.mul_jet(u, w)
            case Call(func, arg):
                if self.complex and func == "abs":
                    self.fail("abs is not holomorphic", e if self.grid else None)
                u = self.node(arg)
                domain = _COMPLEX_DOMAIN if self.complex else _REAL_DOMAIN
                for cond, message in domain.get(func, ()):
                    self.check(cond.format(u[0]), message, e)
                return self.call(func, u)


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
