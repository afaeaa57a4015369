"""Compiled evaluation of expressions: straight-line Python for jets.

eval_jet returns the value and all partial derivatives up to second order of
an expression, computed exactly by the product/chain rules; eval_complex
returns the value and the first two z-derivatives of a holomorphic
expression.  Both compile the expression into straight-line Python code;
jet_function and complex_function keep the compiled code for repeated
evaluation, and kernel_function compiles several expressions, which may
hold opaque Leaf fields, into one float function.
"""

from __future__ import annotations

import cmath
import math
import sys
import time
from functools import reduce

import numpy as np

from .errors import DomainError
from .expr import (COMPLEX_VARIABLES, FUNCTIONS, REAL_VARIABLES, BinOp, Call, ComplexJet, Expr,
                   Jet2, Leaf, Neg, Num, Var, _has_variable, _literal, render)

# abs is treated as non-differentiable when its argument is this close to 0.
_ABS_KINK_TOL = 1e-12

# An expression is compiled into the source of one straight-line function per
# kind (an order-2 real jet, its value alone, a complex jet) and backend:
# floats through math (cmath) and **, arrays through NumPy and np.float_power,
# which calls the C library's pow as ** on floats does.  Every slot follows
# the arithmetic of expr.Jet2 operation for operation; a common subexpression is
# computed once, and derivative slots known to be 0 or 1 are folded away.
# A product folded to 0 differs from the computed one only where its other
# factor is not finite (0 * inf is NaN); a complex product folded to its
# factor differs there too, or in the sign of a zero.  Such factors are
# summed, and where the sum is not finite the function runs again unfolded
# ("exact").  Non-finite array results go there too, and the exact function
# names the innermost node with a non-finite slot.  Nothing is cached beyond
# the returned function.
#
# A sub-expression without variables is a constant: its value is computed
# once, while compiling, by the float value code (complex jet code in the
# complex context), with derivative slots 0, on floats and arrays alike.  A
# constant exponent takes the power rule, any other goes through exp(w log u).
#
# On floats, an ArithmeticError (overflow in ** or exp, a product that
# underflows to a zero divisor) or a ValueError (sin or cos of an infinity)
# is a DomainError naming the whole expression.


def jet_function(e: Expr):
    """The function (x, y) -> eval_jet(e, x, y), compiled on first use."""
    fn = _Compiled(e, "jet")

    def jet(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            with np.errstate(all="ignore"):
                return fn(True)(x, y)
        try:
            return fn(False)(x, y)
        except (ArithmeticError, ValueError) as err:
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
        except (ArithmeticError, ValueError) as err:
            raise DomainError(_arithmetic(err, "complex division by zero (pole)"),
                              render(e)) from None

    return jet


def kernel_function(roots: tuple[Expr, ...], kind: str, where, check=None):
    """One float function (x, y) -> a tuple with the jet (kind 'jet') or the
    value (kind 'value') of each root, compiled now, with every common
    subexpression computed once.  A Leaf root or sub-expression calls its
    function.

    check = (n, test, error): once the first n roots are computed, the
    function raises error(x, y, value of root n) where test(their values)
    holds, so that later roots may assume it false (a metric is not inverted
    where singular).  An arithmetic failure is a DomainError that names
    where(), a string.  Compiling logs one DEBUG record to the 'projeq'
    logger."""
    start = time.perf_counter()
    compiled = _Compiled(tuple(roots), kind, check=check)
    fn = compiled(False)
    # A process that never imported logging cannot have asked for DEBUG
    # records, so the module (about 0.4 MB) is not imported for them.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("projeq").debug(
            "compiled %s kernel: %d nodes, %d leaves, %.2f ms", kind, *compiled.size,
            1e3 * (time.perf_counter() - start))

    def kernel(x, y):
        try:
            return fn(x, y)
        except (ArithmeticError, ValueError) as err:
            raise DomainError(_arithmetic(err, "division by zero"), where()) from None

    return kernel


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
    """The functions of one expression (or tuple of roots, see
    kernel_function) and kind, one for floats and one for arrays, each
    compiled on first use: call with grid = False or True."""

    def __init__(self, e, kind: str, exact: bool = False, check=None):
        self.expr, self.kind, self.exact, self.check, self.fns = e, kind, exact, check, {}
        self.size = None            # (distinct nodes, leaves) once compiled

    def __call__(self, grid: bool):
        fn = self.fns.get(grid)
        if fn is None:
            n, test, error = self.check or (0, None, None)
            emitter = _Emitter(self.kind, grid, self.exact, check_at=n)
            ns = dict(_NAMESPACES[self.kind == "complex", grid], E=emitter.errors,
                      L=emitter.leaves, S=test, R=error)
            if not self.exact:
                exact = _Compiled(self.expr, self.kind, exact=True, check=self.check)
                ns["X"] = lambda *args: exact(grid)(*args)
            exec(compile(emitter.source(self.expr), "<projeq expression>", "exec"), ns)
            fn = self.fns[grid] = ns["f"]
            self.size = (len(emitter.ids), len(emitter.leaves))
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

    def __init__(self, kind: str, grid: bool, exact: bool, top: Expr | None = None,
                 check_at: int = 0, constants: bool = True):
        self.kind, self.grid, self.fold, self.record = kind, grid, not exact, exact and grid
        # constants=False: a constant is code like any other sub-expression
        self.complex, self.top, self.constants = kind == "complex", top, constants
        self.check_at = check_at
        self.zero, self.one = (0j, 1 + 0j) if self.complex else (0.0, 1.0)
        # second-derivative slots as pairs of first-derivative slots
        self.pairs = {"jet": ((1, 1), (1, 2), (2, 2)), "value": (),
                      "complex": ((1, 1),)}[kind]
        self.first = {"jet": 2, "value": 0, "complex": 1}[kind]
        self.args, self.at = ("z", "z.real, z.imag") if self.complex else ("x, y", "x, y")
        self.lines, self.errors, self.leaves, self.depth, self.n = [], [], [], 1, 0
        self.ids, self.keys, self.memo, self.inverses = {}, {}, {}, {}
        self.taints = {}                        # factors of folded products
        self.safe = {self.txt(self.one)}        # finite literals

    def source(self, e) -> str:
        """The function's source.  e is one expression, or a tuple of roots
        whose jets (values) the function returns as a tuple; then, once the
        first `check_at` roots are computed (if check_at > 0), it raises R(x,
        y, value of the last of them) where S of their values holds.  top,
        if given, is the whole expression that e is part of, which an
        overflow names; otherwise each root names itself."""
        roots, top = e if isinstance(e, tuple) else (e,), self.top
        if self.record:
            self.line("B = None")
        jets = []
        try:
            for root in roots:
                self.top = root if top is None else top
                jets.append(self.node(root))
                if len(jets) == self.check_at:
                    values = [self.txt(j[0]) for j in jets]
                    self.guard()
                    self.line(f"if S({', '.join(values)}): raise R({self.at}, {values[-1]})")
        except _Dead:
            jets = None
        if jets is not None:
            self.finish(jets, isinstance(e, tuple))
        return f"def f({self.args}):\n" + "\n".join(self.lines) + "\n"

    def finish(self, jets, many: bool):
        """Return the jets (a tuple of them if many)."""
        live = [s for jet in jets for s in jet if not _const(s)]
        if self.record:
            self.line(f"if _mark(None, 0, {', '.join(live)}): _raise(E, *B, {self.at})")
        if self.grid:
            for s in live:
                self.taint(s)
        self.guard()
        outs = [", ".join(map(self.txt, jet)) for jet in jets]
        if self.kind != "value":
            outs = [f"J({out})" for out in outs]
        self.line(f"return ({', '.join(outs)},)" if many else f"return {outs[0]}")

    def guard(self):
        """Run the exact function instead if a factor of a product folded to 0
        since the last guard is not finite."""
        if self.fold and self.taints:
            self.line(f"P = {' + '.join(self.taints)}")
            self.line(f"if {'_any(P - P)' if self.grid else 'P - P'}: return X({self.args})")
            self.taints = {}

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

    def divisor(self, e: Expr, w):
        """The reciprocal of w, the jet of e, after the check that its value
        is not 0: both once per distinct divisor."""
        key = self.key(e)
        if key not in self.inverses:
            if self.complex:
                self.check(f"{w[0]} == 0", "complex division by zero (pole)",
                           e if self.grid else None)
            else:
                self.check(f"{w[0]} == 0.0", "division by zero", e)
            self.inverses[key] = tuple(map(self.tmp, self.reciprocal(w)))
        return self.inverses[key]

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
        sub = _Emitter("complex" if self.complex else "value", False, exact=True, top=self.top,
                       constants=False)
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
                case Leaf(jet) if callable(jet) and not self.complex and not self.grid:
                    s = ("L", id(e))
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
            case _ if self.constants and not _has_variable(e):
                k = self.constant(e)
                text = (f"F({k.real!r}, {k.imag!r})" if self.complex
                        else f"F({k!r})" if self.grid else f"({k!r})")
                return self.number(text, cmath.isfinite(k))
            case Var(name):
                if (name in COMPLEX_VARIABLES) != self.complex:
                    context = "complex" if self.complex else "real"
                    self.fail(f"variable '{name}' has no {context}-context value")
                z, o = self.zero, self.one
                return self.jet(name, {"x": (o, z), "y": (z, o), "z": (o,)}[name][:self.first])
            case Leaf(jet):
                self.leaves.append(jet)
                t = self.tmp(f"L[{len(self.leaves) - 1}]({self.at})")
                return tuple(f"{t}.{s}" for s in Jet2.__slots__[:1 + self.first + len(self.pairs)])
            case Neg(arg):
                return tuple(map(self.neg, self.node(arg)))
            case BinOp("^", base, _):
                return self.power(e, self.node(base))
            case BinOp(op, left, right):
                u, w = self.node(left), self.node(right)
                if op in ("+", "-"):
                    return tuple(self.add(a, b, op) for a, b in zip(u, w))
                return self.mul_jet(u, self.divisor(right, w) if op == "/" else w)
            case Call(func, arg):
                if self.complex and func == "abs":
                    self.fail("abs is not holomorphic", e if self.grid else None)
                u = self.node(arg)
                domain = _COMPLEX_DOMAIN if self.complex else _REAL_DOMAIN
                for cond, message in domain.get(func, ()):
                    self.check(cond.format(u[0]), message, e)
                return self.call(func, u)
