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
safe. Scalar and array evaluation agree, sin and cos of inf included (NaN).
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


def _pow_value(u: Value, v: Value) -> Value:
    if _any(np.equal(u, 0.0) & np.less(v, 0.0)):
        raise DomainError("zero raised to a negative power")
    if _any(np.less(u, 0.0) & np.not_equal(v, np.round(v))):
        raise DomainError("negative base with a fractional exponent")
    if _is_array(u) or _is_array(v):
        return np.power(u, v)
    try:
        return float(u) ** float(v)
    except OverflowError:
        # IEEE semantics: overflow saturates, non-finite checks live downstream
        with np.errstate(over="ignore"):
            return float(np.power(np.float64(u), np.float64(v)))


def _exp_scalar(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def evaluate(e: Expression, bindings: Bindings) -> Value:
    """IEEE-double evaluation of the tree under the given variable bindings."""
    return _dual(e, bindings, None)[0]


# the one tree walk: every node returns (value, tangent). A subtree without
# the seed has tangent None, an exact zero that is never multiplied, so an
# overflow there (0 * inf) cannot turn a partial NaN; the tangent-only checks
# of "^", sqrt and abs run only on a real tangent. Unseeded, every tangent is
# None and evaluate raises exactly what values raise.

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
            if _any(np.equal(rv, 0.0)):
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
    if fn in ("sin", "cos"):
        if _is_array(uv):
            sv, cv = np.sin(uv), np.cos(uv)
        elif math.isinf(uv):
            sv = cv = math.nan  # as np.sin/np.cos; math.sin raises here
        else:
            sv, cv = math.sin(uv), math.cos(uv)
        if fn == "sin":
            return sv, None if ut is None else cv * ut
        return cv, None if ut is None else -sv * ut
    if fn == "exp":
        ev = np.exp(uv) if _is_array(uv) else _exp_scalar(uv)
        return ev, None if ut is None else ev * ut
    if fn == "log":
        if _any(np.less_equal(uv, 0.0)):
            raise DomainError("log of a non-positive value")
        return (np.log(uv) if _is_array(uv) else math.log(uv)), None if ut is None else ut / uv
    if fn == "sqrt":
        if _any(np.less(uv, 0.0)):
            raise DomainError("sqrt of a negative value")
        if ut is not None and _any(np.equal(uv, 0.0) & np.not_equal(ut, 0.0)):
            raise NonDifferentiable("sqrt is not differentiable at 0")
        sv = np.sqrt(uv) if _is_array(uv) else math.sqrt(uv)
        if ut is None:
            return sv, None
        if _is_array(uv):
            tan = np.where(ut == 0.0, 0.0, ut / np.where(sv == 0.0, 1.0, 2.0 * sv))
        else:
            tan = 0.0 if ut == 0.0 or sv == 0.0 else ut / (2.0 * sv)
        return sv, tan
    if fn == "abs":
        if ut is not None and _any(np.equal(uv, 0.0) & np.not_equal(ut, 0.0)):
            raise NonDifferentiable("abs is not differentiable at 0")
        return np.abs(uv) if _is_array(uv) else abs(uv), None if ut is None else np.sign(uv) * ut
    # tanh
    tv = np.tanh(uv) if _is_array(uv) else math.tanh(uv)
    return tv, None if ut is None else (1.0 - tv * tv) * ut


def _pow_dual(uv, ut, vv, vt):
    val = _pow_value(uv, vv)
    # exponent tangent term needs a positive base
    if vt is not None and _any(np.not_equal(vt, 0.0)):
        if _any(np.less_equal(uv, 0.0) & np.not_equal(vt, 0.0)):
            raise DomainError("d/dv of u^v needs u > 0")
        logs = np.log(uv) if _is_array(uv) else math.log(uv)
        exp_term = val * logs * vt
    else:
        exp_term = 0.0
    # base tangent term: v * u^(v-1) * ut, skipped where the seed is absent
    if ut is not None and _any(np.not_equal(ut, 0.0)):
        if _any(np.equal(uv, 0.0) & np.less(vv, 1.0) & np.not_equal(ut, 0.0)):
            raise DomainError("u^v is not differentiable in u at u=0 for v < 1")
        base_pow = _pow_value(uv, vv - 1.0)
        base_term = vv * base_pow * ut
        if _is_array(base_term):
            base_term = np.where(np.equal(ut, 0.0), 0.0, base_term)
    else:
        base_term = 0.0
    return val, exp_term + base_term


def value_and_partial(e: Expression, var: str, bindings: Bindings):
    """Evaluate the tree and its exact partial derivative with respect to var."""
    if var not in VARIABLES:
        raise UnboundVariable(var)
    v, t = _dual(e, bindings, var)
    return v, 0.0 if t is None else t


def partial(e: Expression, var: str, bindings: Bindings) -> Value:
    """Exact partial derivative of the expression with respect to one variable."""
    return value_and_partial(e, var, bindings)[1]
