"""Scalar math expressions in the problem variables, with exact first partials.

Grammar (EBNF, also documented in the README):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

"^" binds tighter than unary minus, so "-x^2" is -(x^2) and "x^-2" parses.
Variables are fixed: t, x, dx, xtau, dxtau, z, plus the reserved eps.
Functions: sin, cos, exp, log, sqrt, abs, tanh.

One tree walk serves values and partials: dual-number (first-order Taylor
pair) evaluation seeded on one variable gives a partial exact to machine
precision, never a finite difference, and a plain evaluation is the value
half of the same walk with no seed. Evaluation accepts floats or same-shaped
numpy arrays and is pure; parsed trees are immutable, so concurrent use is
safe. Scalar and array evaluation raise the same domain errors and agree in
value, sin and cos of inf included (NaN), up to the last bit of ^ and the
functions, where numpy's loops and libm may round apart. u^2 agrees bit for
bit on every path: an exponent of exactly 2 is computed as u*u, the
correctly rounded square (libm's pow(u, 2.0) can be 1 ulp off it, and
numpy's power already computes u*u).

A loop that changes one variable only, such as the RK4 stages in z, needs
no walk per pass where the tree is affine in that variable: affine reads it
as A + B*var by a structural degree test and returns the per-sample columns
A and B from one walk over the array bindings, whose ^ and functions run
through the float kernels (see _Libm). Any other tree is walked whole on
floats at every pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    InvalidBinding,
    NonDifferentiable,
    UnboundVariable,
    UnknownIdentifier,
)

VARIABLES = ("t", "x", "dx", "xtau", "dxtau", "z", "eps")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")

Value = Union[float, np.ndarray]
Bindings = Mapping[str, Value]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, Bin, Call]


# ---------------------------------------------------------------------------
# parsing


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ExpressionSyntaxError(f"bad number {lit!r}", _byte_offset(text, i))
            toks.append(("num", val, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            toks.append((c, c, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", _byte_offset(text, i))
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i]

    def _next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _err(self, msg, pos):
        raise ExpressionSyntaxError(msg, _byte_offset(self.text, pos))

    def parse(self) -> Expression:
        e = self._expr()
        kind, _, pos = self._peek()
        if kind != "end":
            self._err(f"unexpected {kind!r} after expression", pos)
        return e

    def _expr(self):
        left = self._term()
        while self._peek()[0] in ("+", "-"):
            op = self._next()[0]
            left = Bin(op, left, self._term())
        return left

    def _term(self):
        left = self._unary()
        while self._peek()[0] in ("*", "/"):
            op = self._next()[0]
            left = Bin(op, left, self._unary())
        return left

    def _unary(self):
        if self._peek()[0] == "-":
            self._next()
            return Neg(self._unary())
        return self._power()

    def _power(self):
        base = self._atom()
        if self._peek()[0] == "^":
            self._next()
            return Bin("^", base, self._unary())
        return base

    def _atom(self):
        kind, value, pos = self._next()
        if kind == "num":
            return Num(value)
        if kind == "ident":
            if self._peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifier(value, _byte_offset(self.text, pos))
                self._next()
                arg = self._expr()
                k2, _, p2 = self._next()
                if k2 != ")":
                    self._err("expected ')'", p2)
                return Call(value, arg)
            if value not in VARIABLES:
                raise UnknownIdentifier(value, _byte_offset(self.text, pos))
            return Var(value)
        if kind == "(":
            e = self._expr()
            k2, _, p2 = self._next()
            if k2 != ")":
                self._err("expected ')'", p2)
            return e
        self._err(f"expected a value, got {kind!r}", pos)


def parse(text: str) -> Expression:
    """Parse expression text into an immutable tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: Expression) -> int:
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return 3
    return 5


def to_text(e: Expression) -> str:
    """Render a tree so that parse(to_text(e)) == e."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    if isinstance(e, Neg):
        inner = to_text(e.operand)
        if _prec(e.operand) < 3 or isinstance(e.operand, Neg):
            return f"-({inner})"
        return f"-{inner}"
    p = _PREC[e.op]
    left = to_text(e.left)
    right = to_text(e.right)
    if e.op == "^":
        if _prec(e.left) <= 4:
            left = f"({left})"
        if _prec(e.right) < 3:
            right = f"({right})"
    else:
        if _prec(e.left) < p:
            left = f"({left})"
        if _prec(e.right) <= p:
            right = f"({right})"
    return f"{left} {e.op} {right}"


def variables_in(e: Expression) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return variables_in(e.operand)
    if isinstance(e, Call):
        return variables_in(e.arg)
    if isinstance(e, Bin):
        return variables_in(e.left) | variables_in(e.right)
    return frozenset()


# ---------------------------------------------------------------------------
# evaluation

def _is_array(v) -> bool:
    return isinstance(v, np.ndarray)


def _any(cond) -> bool:
    return bool(np.any(cond)) if _is_array(cond) else bool(cond)


def _lookup(b: Bindings, name: str) -> Value:
    try:
        v = b[name]
    except KeyError:
        raise UnboundVariable(name) from None
    if _is_array(v):
        if not np.all(np.isfinite(v)):
            raise InvalidBinding(f"binding for {name!r} contains non-finite values")
        return v
    v = float(v)
    if not math.isfinite(v):
        raise InvalidBinding(f"binding for {name!r} is {v}")
    return v


class _Libm(np.ndarray):
    """Samples whose ^ and functions run through the float kernels one sample
    at a time, so every value has the bits the float walk gives it (numpy's
    SIMD power and transcendental loops round differently from libm). +, -,
    * and / round alike either way and stay whole-array, and so does ^2,
    which is u*u on every path."""


def _by_sample(kernel, *args) -> _Libm:
    cols = (a.tolist() for a in np.broadcast_arrays(*args))
    return np.array(list(map(kernel, *cols)), dtype=float).view(_Libm)


def _sin(u: float) -> float:
    return math.nan if math.isinf(u) else math.sin(u)  # as np.sin; math.sin raises


def _cos(u: float) -> float:
    return math.nan if math.isinf(u) else math.cos(u)


def _exp(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def _pow(u: float, v: float) -> float:
    try:
        return float(u) ** float(v)
    except OverflowError:
        # IEEE semantics: overflow saturates, non-finite checks live downstream
        with np.errstate(over="ignore"):
            return float(np.power(np.float64(u), np.float64(v)))


_FLOAT_KERNELS = {"sin": _sin, "cos": _cos, "exp": _exp, "log": math.log,
                  "sqrt": math.sqrt, "abs": abs, "tanh": math.tanh}
_ARRAY_KERNELS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
                  "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh}


def _apply(fn: str, u: Value) -> Value:
    """The function fn at u, after its domain check has run: math on a float,
    numpy on an array, math sample by sample on a _Libm column."""
    if not _is_array(u):
        return _FLOAT_KERNELS[fn](u)
    if type(u) is _Libm:
        return _by_sample(_FLOAT_KERNELS[fn], u)
    return _ARRAY_KERNELS[fn](u)


def _pow_value(u: Value, v: Value) -> Value:
    if not _is_array(v) and v == 2.0:
        # the correctly rounded square, whole-array on every path; no domain
        # test can fire for an exponent of 2
        return u * u
    if _is_array(u) or _is_array(v):
        if np.any(np.equal(u, 0.0) & np.less(v, 0.0)):
            raise DomainError("zero raised to a negative power")
        if np.any(np.less(u, 0.0) & np.not_equal(v, np.round(v))):
            raise DomainError("negative base with a fractional exponent")
        if type(u) is _Libm or type(v) is _Libm:
            return _by_sample(_pow, u, v)
        return np.power(u, v)
    # the same tests on plain floats: np.round(inf) == inf, nan is no integer
    if u == 0.0 and v < 0.0:
        raise DomainError("zero raised to a negative power")
    if u < 0.0 and not (math.isinf(v) or float(v).is_integer()):
        raise DomainError("negative base with a fractional exponent")
    return _pow(u, v)


def evaluate(e: Expression, bindings: Bindings) -> Value:
    """IEEE-double evaluation of the tree under the given variable bindings."""
    return _dual(e, bindings, None)[0]


# the one tree walk: every node returns (value, tangent). A subtree without
# the seed has tangent None, an exact zero that is never multiplied, so an
# overflow there (0 * inf) cannot turn a partial NaN; the tangent-only checks
# of "^", sqrt and abs run only on a real tangent. Unseeded, every tangent is
# None and evaluate raises exactly what values raise. Domain checks compare
# with plain operators, which serve floats and arrays alike.

def _dual(e: Expression, b: Bindings, seed: Optional[str]):
    kind = type(e)
    if kind is Num:
        return e.value, None
    if kind is Var:
        v = _lookup(b, e.name)
        if e.name != seed:
            return v, None
        return v, (np.ones_like(v) if _is_array(v) else 1.0)
    if kind is Neg:
        v, t = _dual(e.operand, b, seed)
        return -v, (None if t is None else -t)
    if kind is Bin:
        lv, lt = _dual(e.left, b, seed)
        rv, rt = _dual(e.right, b, seed)
        op = e.op
        if op == "+":
            return lv + rv, (rt if lt is None else lt if rt is None else lt + rt)
        if op == "-":
            return lv - rv, (lt if rt is None else -rt if lt is None else lt - rt)
        if op == "*":
            if lt is None:
                return lv * rv, None if rt is None else lv * rt
            return lv * rv, lt * rv if rt is None else lt * rv + lv * rt
        if op == "/":
            if _any(rv == 0.0):
                raise DomainError("division by zero")
            val = lv / rv
            if rt is None:
                return val, None if lt is None else lt / rv
            return val, (-(val * rt) if lt is None else lt - val * rt) / rv
        if lt is None and rt is None:
            return _pow_value(lv, rv), None
        return _pow_dual(lv, lt, rv, rt)
    # Call
    uv, ut = _dual(e.arg, b, seed)
    fn = e.fn
    if fn == "log" and _any(uv <= 0.0):
        raise DomainError("log of a non-positive value")
    if fn == "sqrt" and _any(uv < 0.0):
        raise DomainError("sqrt of a negative value")
    if ut is not None and fn in ("sqrt", "abs") and _any((uv == 0.0) & (ut != 0.0)):
        raise NonDifferentiable(f"{fn} is not differentiable at 0")
    val = _apply(fn, uv)
    if ut is None:
        return val, None
    if fn == "sin":
        return val, _apply("cos", uv) * ut
    if fn == "cos":
        return val, -_apply("sin", uv) * ut
    if fn == "exp":
        return val, val * ut
    if fn == "log":
        return val, ut / uv
    if fn == "abs":
        return val, np.sign(uv) * ut
    if fn == "tanh":
        return val, (1.0 - val * val) * ut
    # sqrt: zero where the tangent is, the kink included
    if _is_array(uv):
        return val, np.where(ut == 0.0, 0.0, ut / np.where(val == 0.0, 1.0, 2.0 * val))
    return val, 0.0 if ut == 0.0 or val == 0.0 else ut / (2.0 * val)


def _pow_dual(uv, ut, vv, vt):
    val = _pow_value(uv, vv)
    # exponent tangent term needs a positive base
    if vt is not None and _any(vt != 0.0):
        if _any((uv <= 0.0) & (vt != 0.0)):
            raise DomainError("d/dv of u^v needs u > 0")
        exp_term = val * _apply("log", uv) * vt
    else:
        exp_term = 0.0
    # base tangent term: v * u^(v-1) * ut, skipped where the seed is absent
    if ut is not None and _any(ut != 0.0):
        if _any((uv == 0.0) & (vv < 1.0) & (ut != 0.0)):
            raise DomainError("u^v is not differentiable in u at u=0 for v < 1")
        base_pow = _pow_value(uv, vv - 1.0)
        base_term = vv * base_pow * ut
        if _is_array(base_term):
            base_term = np.where(ut == 0.0, 0.0, base_term)
    else:
        base_term = 0.0
    return val, exp_term + base_term


def _degree(e: Expression, var: str) -> int:
    """Structural degree of e in var: 0, 1, or 2 for anything not affine."""
    kind = type(e)
    if kind is Var:
        return int(e.name == var)
    if kind is Neg:
        return _degree(e.operand, var)
    if kind is Bin:
        left, right = _degree(e.left, var), _degree(e.right, var)
        if e.op in ("+", "-"):
            return max(left, right)
        if e.op == "*":
            return min(left + right, 2)
        if e.op == "/":
            return left if right == 0 else 2
        return 0 if left == right == 0 else 2
    if kind is Call:
        return 0 if _degree(e.arg, var) == 0 else 2
    return 0


def affine(e: Expression, var: str, bindings: Bindings):
    """The columns (A, B) with e = A + B*var at every sample of the array
    bindings, if the tree is affine in var by structure, else None.

    Affine means var enters only through +, -, negation, products with at
    most one factor holding var, and numerators over var-free denominators;
    ^ and the functions must be var-free. A and B come from one walk seeded
    on var with var bound to zero, over _Libm views of the bindings and with
    overflow silent, as on floats, so a var-free subtree has the bits it has
    in the float walk. A + B*v rounds like the tree where the tree is A +- b*v
    itself; otherwise the two may differ in the last bits. Raises what the
    walk raises, possibly at a sample the caller would have reached later.
    """
    if _degree(e, var) > 1:
        return None
    cols = {k: np.asarray(v, dtype=float).view(_Libm) for k, v in bindings.items()}
    shape = np.broadcast_shapes(*(np.shape(v) for v in cols.values()))
    cols[var] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = _dual(e, cols, var)
    return tuple(np.ascontiguousarray(np.broadcast_to(
        np.asarray(v, dtype=float), shape)) for v in (a, 0.0 if b is None else b))


def value_and_partial(e: Expression, var: str, bindings: Bindings):
    """Evaluate the tree and its exact partial derivative with respect to var."""
    if var not in VARIABLES:
        raise UnboundVariable(var)
    v, t = _dual(e, bindings, var)
    return v, 0.0 if t is None else t


def partial(e: Expression, var: str, bindings: Bindings) -> Value:
    """Exact partial derivative of the expression with respect to one variable."""
    return value_and_partial(e, var, bindings)[1]
