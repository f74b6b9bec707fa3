"""Scalar math expressions in the problem variables, with exact first partials.

Grammar (EBNF, also documented in the README):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

"^" binds tighter than unary minus, so "-x^2" is -(x^2) and "x^-2" parses.
An expression nests at most _MAX_DEPTH levels deep, and a number literal
that overflows to inf is a syntax error.
Variables are fixed: t, x, dx, xtau, dxtau, z.
Functions: sin, cos, exp, log, sqrt, abs, tanh.

One tree walk serves values and partials: dual-number (first-order Taylor
pair) evaluation seeded on one variable gives a partial exact to machine
precision, never a finite difference, and a plain evaluation is the value
half of the same walk with no seed. Evaluation accepts floats or same-shaped
numpy arrays and is pure; parsed trees are immutable, so concurrent use is
safe. A walk checks each binding it looks up finite (InvalidBinding), an
array at every visit unless the bindings are a CheckedBindings, whose maker
checked its arrays once where it made them. Scalar and array evaluation
raise the same domain errors and agree in value, sin and cos of inf
included (NaN), up to the last bit of ^ and the functions, where numpy's
loops and libm may round apart. u^2 agrees bit for
bit on every path: an exponent of exactly 2 is computed as u*u, the
correctly rounded square (libm's pow(u, 2.0) can be 1 ulp off it, and
numpy's power already computes u*u). Its tangent is 2*u*u', with no domain
test and no power: the general rule v*u^(v-1)*u' with u^1 = u exactly, and
bit for bit what that rule gives, the exact zero where u' is zero and u
infinite included.

A loop that changes one variable only, such as the RK4 stages in z, needs
no walk per pass where the tree is affine in that variable: affine reads it
as A + B*var by a structural degree test and returns the per-sample columns
A and B from one array walk over the bindings, with numpy's kernels. Any
other tree is walked whole on floats at every pass.
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

VARIABLES = ("t", "x", "dx", "xtau", "dxtau", "z")
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
                val = math.nan
            # a malformed literal, or one that overflows to inf
            if not math.isfinite(val):
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


# the binding power of each binary operator; unary minus binds at _NEG,
# tighter than * and / and looser than ^, which is right-associative
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG = 3

# The deepest expression parse accepts. Its depth is the number of levels of
# its tree, an operand one level below its operator, minus or function,
# counting a parenthesized group as a level too. The parser recurses once
# per level it enters, and every walk of a tree (variables_in, _degree,
# _dual, to_text) once per level, so any accepted expression stays far
# inside Python's default recursion limit of 1000, while a sum of 256
# variables still parses.
_MAX_DEPTH = 256


class _Parser:
    """Precedence climbing over the token list (Pratt, "Top down operator
    precedence", POPL 1973): one _expr call per level of the expression, so
    a long sum or product is a loop, not a recursion. An expression deeper
    than _MAX_DEPTH raises ExpressionSyntaxError at the token where its
    depth passes the bound; the nesting is counted on the way in, so a deep
    one is rejected before it can exhaust the stack."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.level = 0

    def _peek(self):
        return self.toks[self.i]

    def _next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _err(self, msg, pos):
        raise ExpressionSyntaxError(msg, _byte_offset(self.text, pos))

    def _deeper(self, depth: int, pos) -> int:
        """depth + 1, the depth of a level over one of this depth, which
        starts at the token at pos; past _MAX_DEPTH raises."""
        if depth >= _MAX_DEPTH:
            self._err(f"expression nested deeper than {_MAX_DEPTH} levels", pos)
        return depth + 1

    def _close(self):
        kind, _, pos = self._next()
        if kind != ")":
            self._err("expected ')'", pos)

    def parse(self) -> Expression:
        e, _ = self._expr(0)
        kind, _, pos = self._peek()
        if kind != "end":
            self._err(f"unexpected {kind!r} after expression", pos)
        return e

    def _expr(self, min_bp: int):
        """The expression at the cursor whose binary operators bind tighter
        than min_bp, and its depth."""
        kind, value, pos = self._next()
        self.level = self._deeper(self.level, pos)
        if kind == "-":
            operand, depth = self._expr(_NEG)
            left = Neg(operand)
        elif kind == "(":
            left, depth = self._expr(0)
            self._close()
        elif kind == "ident" and self._peek()[0] == "(":
            if value not in FUNCTIONS:
                raise UnknownIdentifier(value, _byte_offset(self.text, pos))
            self._next()
            arg, depth = self._expr(0)
            self._close()
            left = Call(value, arg)
        elif kind == "ident":
            if value not in VARIABLES:
                raise UnknownIdentifier(value, _byte_offset(self.text, pos))
            left, depth = Var(value), 0
        elif kind == "num":
            left, depth = Num(value), 0
        else:
            self._err(f"expected a value, got {kind!r}", pos)
        depth = self._deeper(depth, pos)
        while _BINARY.get(self._peek()[0], 0) > min_bp:
            op, _, op_pos = self._next()
            # the right operand takes the operators binding tighter, and a
            # right-associative ^ takes another ^
            right, right_depth = self._expr(_BINARY[op] - (op == "^"))
            left, depth = Bin(op, left, right), self._deeper(max(depth, right_depth), op_pos)
        self.level -= 1
        return left, depth


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
    """Render a tree so that parse(to_text(e)) == e, where the text it
    writes nests at most _MAX_DEPTH deep; the parentheses it adds count."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    if isinstance(e, Neg):
        # a minus over a minus is "--x", which parses to the same tree
        inner = to_text(e.operand)
        if _prec(e.operand) < 3:
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


class CheckedBindings(dict):
    """Bindings for walks of one expression whose arrays, for the variables
    that expression reads, their maker has checked finite (check_finite)
    where it made them: a walk over them scans no array. Float bindings are
    checked at every lookup, as in any other mapping."""


def check_finite(name: str, v: np.ndarray) -> None:
    """Raise InvalidBinding unless every entry of the array v, the binding
    for name, is finite: the check a lookup makes of an unchecked array."""
    if not np.isfinite(v).all():
        raise InvalidBinding(f"binding for {name!r} contains non-finite values")


def _lookup(b: Bindings, name: str) -> Value:
    try:
        v = b[name]
    except KeyError:
        raise UnboundVariable(name) from None
    if _is_array(v):
        if type(b) is not CheckedBindings:
            check_finite(name, v)
        return v
    v = float(v)
    if not math.isfinite(v):
        raise InvalidBinding(f"binding for {name!r} is {v}")
    return v


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
    numpy on an array."""
    if not _is_array(u):
        return _FLOAT_KERNELS[fn](u)
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
# with plain operators, which serve floats and arrays alike. The seed's own
# tangent is the float 1.0 over arrays too: it broadcasts like an array of
# ones, with its bits, and builds none.

def _dual(e: Expression, b: Bindings, seed: Optional[str]):
    kind = type(e)
    if kind is Num:
        return e.value, None
    if kind is Var:
        v = _lookup(b, e.name)
        if e.name != seed:
            return v, None
        return v, 1.0
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
        if not _is_array(vv) and vv == 2.0:
            # u^(2-1) is u itself, and no domain test can fire for v = 2
            base_term = vv * uv * ut
        else:
            if _any((uv == 0.0) & (vv < 1.0) & (ut != 0.0)):
                raise DomainError("u^v is not differentiable in u at u=0 for v < 1")
            base_term = vv * _pow_value(uv, vv - 1.0) * ut
        if _is_array(ut):
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
    bindings, if the tree is affine in var by structure, else None. They
    come as the rows of one array, AB[0] = A and AB[1] = B, which unpacks
    as A, B.

    Affine means var enters only through +, -, negation, products with at
    most one factor holding var, and numerators over var-free denominators;
    ^ and the functions must be var-free. A and B come from one array walk
    seeded on var with var bound to zero and overflow silent, as on floats,
    so they have the float walk's bits up to the last bits of ^ and the
    functions, where numpy's loops and libm may round apart. A + B*v rounds
    like the tree where the tree is A +- b*v itself; otherwise the two may
    differ in the last bits. Raises what the walk raises, possibly at a
    sample the caller would have reached later.
    """
    if _degree(e, var) > 1:
        return None
    kind = CheckedBindings if type(bindings) is CheckedBindings else dict
    cols = kind((k, np.asarray(v, dtype=float)) for k, v in bindings.items())
    # a sample set binds arrays of one shape, the broadcast of them all
    shapes = {v.shape for v in cols.values()}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    cols[var] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = _dual(e, cols, var)
    AB = np.empty((2,) + shape)
    AB[0] = a
    AB[1] = 0.0 if b is None else b
    return AB


def value_and_partial(e: Expression, var: str, bindings: Bindings):
    """Evaluate the tree and its exact partial derivative with respect to var.
    The seed's tangent is the float 1.0, so over array bindings a partial
    that is constant in the bindings (L = 2*dx in dx, say) may come back
    as a float."""
    if var not in VARIABLES:
        raise UnboundVariable(var)
    v, t = _dual(e, bindings, var)
    return v, 0.0 if t is None else t


def partial(e: Expression, var: str, bindings: Bindings) -> Value:
    """Exact partial derivative of the expression with respect to one variable."""
    return value_and_partial(e, var, bindings)[1]
