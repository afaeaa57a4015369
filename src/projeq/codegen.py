"""Compiled evaluation of expressions: straight-line Python for jets.

eval_jet returns the value and all partial derivatives up to second order of
an expression, computed exactly by the product/chain rules; eval_complex
returns the value and the first two z-derivatives of a holomorphic
expression.  Both compile the expression into straight-line Python code;
jet_function and complex_function keep the compiled code for repeated
evaluation, and kernel_function compiles several expressions, which may
hold opaque Leaf fields, into one float function.  Code is compiled once
per expression shape and kept in a bounded store (see _store).
"""

from __future__ import annotations

import cmath
import math
import sys
import time
import types
from collections import OrderedDict
from functools import reduce

import numpy as np

from .errors import DomainError
from .expr import (COMPLEX_VARIABLES, FUNCTIONS, REAL_VARIABLES, BinOp, Call, ComplexJet, Expr,
                   Jet2, Leaf, Neg, Num, Var, _literal, render)

# abs is treated as non-differentiable when its argument is this close to 0.
_ABS_KINK_TOL = 1e-12
_OPERATORS = ("+", "-", "*", "/", "^")
_VARIABLES = REAL_VARIABLES + COMPLEX_VARIABLES

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
# names the innermost node with a non-finite slot.  A ^0 drops its base as
# such a product drops its other factor; where the base is not finite, the
# exact function raises there (on floats as an overflow, on a grid naming
# the innermost non-finite node).
#
# The code depends on an expression's shape alone (see _shape), not on the
# values of its literals: each literal is a parameter of the function, and
# so are the error table and the nodes its messages render, the leaves'
# functions and the exact function.  A function is the shape's code with
# these as parameter defaults, so one code object, kept in _store, serves
# every expression of its shape.
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
    where(), a string.  Building the kernel logs one DEBUG record to the
    'projeq' logger, which says whether its code was compiled or came from
    the store."""
    start = time.perf_counter()
    compiled = _Compiled(tuple(roots), kind, check=check)
    fn = compiled(False)
    # A process that never imported logging cannot have asked for DEBUG
    # records, so the module (about 0.4 MB) is not imported for them.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("projeq").debug(
            "%s kernel, %s: %d nodes, %d leaves, %.2f ms", kind,
            "compiled" if compiled.fresh else "from the store", *compiled.code.size,
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
    C order.  Each call walks e and binds its shape's code, which it
    compiles only if the store lacks it: keep jet_function(e) to evaluate
    often."""
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
    kernel_function) and kind, one for floats and one for arrays, each built
    on first use from its shape's code: call with grid = False or True."""

    def __init__(self, e, kind: str, exact: bool = False, check=None, shape=None):
        self.expr, self.kind, self.exact, self.check, self.fns = e, kind, exact, check, {}
        self.shape = shape          # _shape(e), taken on first use
        self.code = None            # the _Code of the last function built
        self.fresh = False          # whether that code was compiled, not stored

    def __call__(self, grid: bool):
        fn = self.fns.get(grid)
        if fn is None:
            if self.shape is None:
                self.shape = _shape(self.expr)
            key, nodes = self.shape[:2]
            key = (key, self.kind, grid, self.exact, self.check)
            code = _store.get(key)
            self.fresh = code is None
            if code is None:
                code = _store[key] = self.compile(grid)
                if len(_store) > _STORE_SIZE:
                    _store.popitem(last=False)
            else:
                _store.move_to_end(key)
            self.code = code
            fn = self.fns[grid] = types.FunctionType(
                code.code, _NAMESPACES[self.kind == "complex", grid], "f",
                self.defaults(code, grid, nodes))
        return fn

    def defaults(self, code: "_Code", grid: bool, nodes: list) -> tuple:
        """The values of the parameters E, N, L, X, S, R, k0, k1, ... of
        code, for this expression."""
        rerun = None
        if not self.exact:
            exact = _Compiled(self.expr, self.kind, True, self.check, self.shape)

            def rerun(*args):
                return exact(grid)(*args)

        _, test, error = self.check or (0, None, None)
        cplx = self.kind == "complex"
        return (code.errors, nodes, [nodes[p].jet for p in code.leaves], rerun, test, error,
                *[_literal_slot(nodes[p], cplx, grid) for p in code.literals])

    def compile(self, grid: bool) -> "_Code":
        emitter = _Emitter(self.kind, grid, self.exact, self.shape,
                           check_at=(self.check or (0,))[0])
        scratch = {}
        exec(compile(emitter.source(self.expr), "<projeq expression>", "exec"), scratch)
        return _Code(scratch["f"].__code__, tuple(emitter.errors),
                     tuple(map(emitter.pos, emitter.leaves)),
                     tuple(map(emitter.pos, emitter.slots)),
                     (len(self.shape[1]), len(emitter.leaves)))


class _Code:
    """A store entry: the code of one shape, kind and backend, with its
    error table (message, position of the node it names or None) and the
    positions of its leaves and literal slots in the shape's node list.  It
    holds no node, so it keeps no expression alive."""

    __slots__ = ("code", "errors", "leaves", "literals", "size")

    def __init__(self, code, errors, leaves, literals, size):
        self.code, self.errors, self.leaves, self.literals = code, errors, leaves, literals
        self.size = size            # (distinct nodes, leaves)


# The code store: (shape, kind, grid, exact, check) -> _Code, least recently
# used first, at most _STORE_SIZE entries.  Results do not depend on it: an
# expression gets the same function from stored code as from a new compile.
_STORE_SIZE = 512
_store: OrderedDict = OrderedDict()


def _shape(e) -> tuple[tuple, list, dict, list]:
    """(key, nodes, positions, variable), the compiler's one numbering of an
    expression or a tuple of roots.  nodes lists each distinct sub-expression
    once: structurally equal sub-trees (the same kind and children, literals
    of the same type and bits, the same leaf object) are one node, as the
    emitted code computes them once.  positions maps the id of each node
    object to its node's place in nodes, and variable[p] says whether node p
    holds a variable or a leaf.

    key names the code the emitter writes for the tree, so that expressions
    of equal keys share their code.  It holds each node's kind and the
    positions of its children, and each number literal's type, finiteness
    and class of bit-equal literals.  The values of literals are left out,
    except where they steer emission: in a constant exponent and in any
    other variable-free sub-expression that is not a literal itself, which
    are computed while compiling.  It first checks that the tree consists
    of nodes the parser makes, or leaves."""
    roots = e if isinstance(e, tuple) else (e,)
    nodes, entries, children, variable, literal = [], [], [], [], []
    positions, index, classes = {}, {}, {}

    def walk(e) -> int:
        p = positions.get(id(e))
        if p is not None:
            return p
        t, lit = type(e), False
        if t is BinOp and e.op in _OPERATORS:
            kids = (walk(e.left), walk(e.right))
            entry, var = (e.op, *kids), variable[kids[0]] or variable[kids[1]]
        elif t is Num and type(e.value) in (int, float):
            v, kids, var, lit = e.value, (), False, True
            entry = ("n", type(v) is int, math.isfinite(v),
                     classes.setdefault((type(v), repr(v)), len(classes)))
        elif t is Var and e.name in _VARIABLES:
            entry, kids, var = ("v", e.name), (), True
        elif t is Call and e.func in FUNCTIONS:
            kids = (walk(e.arg),)
            entry, var = (e.func, *kids), variable[kids[0]]
        elif t is Neg:
            kids = (walk(e.arg),)
            entry, var, lit = ("-", *kids), variable[kids[0]], literal[kids[0]]
        elif t is Leaf and callable(e.jet):
            entry, kids, var = ("L", len(nodes)), (), True     # a new leaf, a new node
        else:
            raise TypeError(f"not an Expr: {e!r}")
        p = positions[id(e)] = index.setdefault(entry, len(nodes))
        if p == len(nodes):
            nodes.append(e)
            entries.append(entry)
            children.append(kids)
            variable.append(var)
            literal.append(lit)
        return p

    try:
        tops = tuple(walk(root) for root in roots)
    finally:
        # walk refers to itself through its cell: deleting it breaks that
        # cycle, which would keep the numbering and the tree alive until the
        # cyclic collector runs
        del walk
    # constants computed while compiling: their literals' values are code
    constants = [c for p in range(len(nodes)) if variable[p]
                 for i, c in enumerate(children[p])
                 if not variable[c] and (not literal[c] or (entries[p][0] == "^" and i == 1))]
    constants += [p for p in tops if not variable[p] and not literal[p]]
    fixed, seen = {}, set()
    while constants:
        p = constants.pop()
        if p not in seen:
            seen.add(p)
            constants.extend(children[p])
            if entries[p][0] == "n":
                fixed[entries[p][3]] = repr(nodes[p].value)
    key = (tuple(entries), tops, isinstance(e, tuple), tuple(sorted(fixed.items())))
    return key, nodes, positions, variable


def _literal_slot(e, cplx: bool, grid: bool):
    """The value of the literal e in its slot: what the emitter's source
    text for it would evaluate to."""
    F = _NAMESPACES[cplx, grid]["F"]
    if type(e) is Num:
        return F(e.value) if grid or cplx else e.value
    k = _literal(e, complex if cplx else float)
    return F(k.real, k.imag) if cplx else F(k) if grid else k


def _first_point(mask, x, y) -> tuple[float, float]:
    """(x, y) at the first True entry of mask in C order."""
    shape = np.broadcast_shapes(np.shape(mask), np.shape(x), np.shape(y))
    i = np.unravel_index(int(np.argmax(np.broadcast_to(mask, shape))), shape)
    return float(np.broadcast_to(x, shape)[i]), float(np.broadcast_to(y, shape)[i])


def _raise(errors, nodes, i: int, mask=None, x=None, y=None):
    """Error i of a compiled function, at the first grid point of mask."""
    message, p = errors[i]
    raise DomainError(message, "" if p is None else render(nodes[p]),
                      None if mask is None else _first_point(mask, x, y))


def _mark(first, i: int, *slots):
    """first, or else (i, mask) if some slot is not finite somewhere."""
    if first is None:
        bad = reduce(np.logical_or, [~np.isfinite(s) for s in slots])
        if bad.any():
            return i, bad
    return first


_NAMESPACES = {
    (cplx, grid): {
        **{name: getattr(np if grid else cmath if cplx else math, name, None)
           for name in ("sin", "cos", "exp", "log", "sqrt", "fabs", "copysign")},
        "F": (np.complex128 if grid else complex) if cplx else np.float64,
        "J": ComplexJet if cplx else Jet2, "pw": np.float_power, "inf": math.inf,
        "nan": math.nan, "_any": np.count_nonzero, "_raise": _raise, "_mark": _mark}
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


def _dead(errors, nodes, i: int, *_):
    message, p = errors[i]
    raise _Dead(message, None if p is None else nodes[p])


class _Emitter:
    """The source of one compiled function, emitted node by node.

    A jet is a tuple of slots (value, first, second derivatives): source
    texts, or numbers for derivative slots known at generation time.  The
    texts hold only the variables, the parameters (literal slots k0, k1,
    ...), the names of _NAMESPACES, generated temporaries t1, t2, ... and
    numbers (repr of an int or float) that the shape fixes.

    shape is the tree's _shape, the one numbering of its nodes: a node is
    emitted and a divisor checked once per position, so structurally equal
    sub-trees are computed once, and errors name nodes by their positions."""

    def __init__(self, kind: str, grid: bool, exact: bool, shape: tuple,
                 top: Expr | None = None, check_at: int = 0, constants: bool = True):
        self.kind, self.grid, self.fold, self.record = kind, grid, not exact, exact and grid
        self.shape = shape
        _, self.nodes, self.positions, self.variable = shape
        # constants=False: a constant is code like any other sub-expression
        # and its literals are numbers in the source (code run once, now)
        self.complex, self.top, self.constants = kind == "complex", top, constants
        self.check_at = check_at
        self.zero, self.one = (0j, 1 + 0j) if self.complex else (0.0, 1.0)
        # second-derivative slots as pairs of first-derivative slots
        self.pairs = {"jet": ((1, 1), (1, 2), (2, 2)), "value": (),
                      "complex": ((1, 1),)}[kind]
        self.first = {"jet": 2, "value": 0, "complex": 1}[kind]
        self.args, self.at = ("z", "z.real, z.imag") if self.complex else ("x, y", "x, y")
        self.lines, self.errors, self.leaves, self.slots, self.depth, self.n = [], [], [], [], 1, 0
        self.memo, self.inverses = {}, {}       # position -> jet, reciprocal
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
        params = "".join(f", k{i}" for i in range(len(self.slots)))
        return f"def f({self.args}, E, N, L, X, S, R{params}):\n" + "\n".join(self.lines) + "\n"

    def finish(self, jets, many: bool):
        """Return the jets (a tuple of them if many)."""
        live = [s for jet in jets for s in jet if not _const(s)]
        if self.record:
            self.line(f"if _mark(None, 0, {', '.join(live)}): _raise(E, N, *B, {self.at})")
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

    def pos(self, e: Expr) -> int:
        """The position of the node e."""
        return self.positions[id(e)]

    def error(self, message: str, node) -> int:
        self.errors.append((message, None if node is None else self.pos(node)))
        return len(self.errors) - 1

    def check(self, cond: str, message: str, node):
        i = self.error(message, node)
        if self.grid:
            mask = self.tmp(cond)
            self.line(f"if _any({mask}): _raise(E, N, {i}, {mask}, {self.at})")
        else:
            self.line(f"if {cond}: _raise(E, N, {i})")

    def fail(self, message: str, node=None, at_point=False):
        """Raise unconditionally; on a grid at its first point if at_point."""
        if at_point:
            self.check("True", message, node)
        else:
            self.line(f"_raise(E, N, {self.error(message, node)})")
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

    def slot(self, e: Expr) -> str:
        """The parameter that holds the literal e (see _literal_slot)."""
        self.slots.append(e)
        return f"k{len(self.slots) - 1}"

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
        p = self.pos(e)
        if p not in self.inverses:
            if self.complex:
                self.check(f"{w[0]} == 0", "complex division by zero (pole)",
                           e if self.grid else None)
            else:
                self.check(f"{w[0]} == 0.0", "division by zero", e)
            self.inverses[p] = tuple(map(self.tmp, self.reciprocal(w)))
        return self.inverses[p]

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
    def drop(self, u):
        """Discard the base u of a ^0.  The folded code runs the exact code
        where a slot of u is not finite, as for a product folded to 0, and
        the exact code raises there: on a grid at the innermost non-finite
        node, on floats as an overflow."""
        live = [s for s in u if not _const(s) and s not in self.safe]
        if self.fold:
            for s in live:
                self.taint(s)
        elif self.record and live:
            self.line(f"if _mark(None, 0, {', '.join(live)}): _raise(E, N, *B, {self.at})")
        elif live:
            self.line(f"if {' + '.join(f'({s} - {s})' for s in live)}: raise OverflowError")

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
        if self.variable[self.pos(e.right)]:
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
            self.drop(u)
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
        sub = _Emitter("complex" if self.complex else "value", False, True, self.shape,
                       top=self.top, constants=False)
        ns = dict(_NAMESPACES[self.complex, False], _raise=_dead)
        exec(compile(sub.source(e), "<projeq expression>", "exec"), ns)
        try:
            k = ns["f"](*(0j,) if self.complex else (0.0, 0.0), sub.errors, self.nodes,
                        None, None, None, None)
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
    def node(self, e: Expr):
        p = self.pos(e)
        if p not in self.memo:
            jet = tuple(map(self.tmp, self.emit(e, self.variable[p])))
            if self.record:
                live = ", ".join(s for s in jet if not _const(s))
                self.line(f"B = _mark(B, {self.error('non-finite value', e)}, {live})")
            self.memo[p] = jet
        return self.memo[p]

    def emit(self, e: Expr, variable: bool):
        match e:
            case Num(v):
                text = (self.slot(e) if self.constants
                        else f"F({v!r})" if self.grid or self.complex else f"({v!r})")
                return self.number(text, math.isfinite(v))
            case _ if self.constants and not variable:
                k = self.constant(e)
                text = (self.slot(e) if _literal(e, float) is not None
                        else f"F({k.real!r}, {k.imag!r})" if self.complex
                        else f"F({k!r})" if self.grid else f"({k!r})")
                return self.number(text, cmath.isfinite(k))
            case Var(name):
                if (name in COMPLEX_VARIABLES) != self.complex:
                    context = "complex" if self.complex else "real"
                    self.fail(f"variable '{name}' has no {context}-context value")
                z, o = self.zero, self.one
                return self.jet(name, {"x": (o, z), "y": (z, o), "z": (o,)}[name][:self.first])
            case Leaf():
                if self.complex or self.grid:
                    raise TypeError(f"not an Expr: {e!r}")
                self.leaves.append(e)
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
