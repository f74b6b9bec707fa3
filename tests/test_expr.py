import math

import numpy as np
import pytest

from herglotz import errors
from herglotz.expr import (
    FUNCTIONS,
    VARIABLES,
    Bin,
    Call,
    Neg,
    Num,
    Var,
    evaluate,
    parse,
    partial,
    to_text,
    value_and_partial,
    variables_in,
)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def random_trees(seed, count, depth=4):
    rng = np.random.default_rng(seed)

    def rand_tree(depth):
        kind = rng.integers(0, 5 if depth > 0 else 2)
        if kind == 0:
            return Num(float(np.round(rng.uniform(0.0, 4.0), 3)))
        if kind == 1:
            return Var(VARIABLES[rng.integers(len(VARIABLES))])
        if kind == 2:
            return Neg(rand_tree(depth - 1))
        if kind == 3:
            op = "+-*/^"[rng.integers(5)]
            return Bin(op, rand_tree(depth - 1), rand_tree(depth - 1))
        return Call(FUNCTIONS[rng.integers(len(FUNCTIONS))], rand_tree(depth - 1))

    return [rand_tree(depth) for _ in range(count)]


class TestParse:
    def test_delayed_quadratic_tree(self):
        assert parse("dxtau^2 + z") == Bin(
            "+", Bin("^", Var("dxtau"), Num(2.0)), Var("z"))

    def test_single_variable(self):
        assert parse("x") == Var("x")

    def test_print_parse_roundtrip(self):
        tree = parse("sin(t)*exp(x)")
        assert parse(to_text(tree)) == tree

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_unary_minus_binds_below_power(self):
        assert evaluate(parse("-x^2"), {"x": 3.0}) == -9.0

    def test_negative_exponent(self):
        assert evaluate(parse("x^-1"), {"x": 4.0}) == 0.25

    def test_left_associative_subtraction(self):
        assert evaluate(parse("1 - 2 - 3"), {}) == -4.0

    def test_precedence_mix(self):
        assert evaluate(parse("2+3*4"), {}) == 14.0
        assert evaluate(parse("(2+3)*4"), {}) == 20.0

    def test_eps_is_reserved_but_parseable(self):
        assert parse("eps") == Var("eps")

    def test_syntax_error_offset(self):
        with pytest.raises(errors.ExpressionSyntaxError) as exc:
            parse("dxtau^2 +")
        assert exc.value.offset == 9

    def test_unknown_variable(self):
        with pytest.raises(errors.UnknownIdentifier) as exc:
            parse("foo + 1")
        assert exc.value.name == "foo"
        assert exc.value.offset == 0

    def test_unknown_function(self):
        with pytest.raises(errors.UnknownIdentifier):
            parse("sinh(x)")

    def test_unbalanced_paren(self):
        with pytest.raises(errors.ExpressionSyntaxError):
            parse("(x + 1")

    def test_stray_character(self):
        with pytest.raises(errors.ExpressionSyntaxError):
            parse("x $ 2")


class TestPrint:
    def test_roundtrip_on_random_trees(self):
        for tree in random_trees(7, 300):
            assert parse(to_text(tree)) == tree

    def test_variables_in(self):
        assert variables_in(parse("sin(dx) * xtau + z - t")) == {
            "dx", "xtau", "z", "t"}


class TestEvaluate:
    def test_delayed_quadratic_value(self):
        assert evaluate(parse("dxtau^2 + z"), {"dxtau": -1.0, "z": 0.0}) == 1.0

    def test_product(self):
        assert evaluate(parse("x*z"), {"x": 2.0, "z": 3.0}) == 6.0

    def test_log_negative_is_domain_error(self):
        with pytest.raises(errors.DomainError):
            evaluate(parse("log(x)"), {"x": -1.0})

    def test_sqrt_negative_is_domain_error(self):
        with pytest.raises(errors.DomainError):
            evaluate(parse("sqrt(x)"), {"x": -0.5})

    def test_division_by_zero(self):
        with pytest.raises(errors.DomainError):
            evaluate(parse("1/x"), {"x": 0.0})

    def test_zero_to_negative_power(self):
        with pytest.raises(errors.DomainError):
            evaluate(parse("x^-2"), {"x": 0.0})

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(errors.DomainError):
            evaluate(parse("x^0.5"), {"x": -2.0})

    def test_negative_base_integer_exponent_ok(self):
        assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0

    def test_unbound_variable(self):
        with pytest.raises(errors.UnboundVariable):
            evaluate(parse("x + z"), {"x": 1.0})

    def test_non_finite_binding(self):
        with pytest.raises(errors.InvalidBinding):
            evaluate(parse("x"), {"x": math.inf})

    def test_array_evaluation_matches_scalar(self):
        ts = np.linspace(-1.0, 2.0, 17)
        xs = np.linspace(0.1, 0.9, 17)
        zs = np.linspace(-0.4, 0.4, 17)
        # the second overflows its exp to inf for x > 0.81 (sin and cos of inf
        # are NaN on both paths) and keeps the sine arguments small elsewhere
        for text in ("sin(t)*exp(x) + x^2/(1+z)",
                     "sin(exp(1e5*(x - 0.8))) + z*cos(exp(1e5*(x - 0.8)))"):
            e = parse(text)
            with np.errstate(over="ignore", invalid="ignore"):
                vec = evaluate(e, {"t": ts, "x": xs, "z": zs})
            for i in range(17):
                scalar = evaluate(e, {"t": ts[i], "x": xs[i], "z": zs[i]})
                assert vec[i] == pytest.approx(scalar, abs=0.0, rel=1e-15, nan_ok=True)

    @pytest.mark.parametrize("size", [None, 9])
    def test_value_is_the_value_half_of_every_partial(self, size):
        rng = np.random.default_rng(13)
        for tree in random_trees(7, 300):
            b = {v: rng.uniform(-2.0, 2.0, size) for v in VARIABLES}
            with np.errstate(all="ignore"):
                try:
                    value = evaluate(tree, b)
                except errors.DomainError:
                    for var in VARIABLES:
                        with pytest.raises(errors.DomainError):
                            value_and_partial(tree, var, b)
                    continue
                for var in VARIABLES:
                    try:
                        dual = value_and_partial(tree, var, b)[0]
                    except errors.DomainError:
                        continue  # a tangent-only check: kink, or u^v at u <= 0
                    assert (np.asarray(dual, dtype=float).tobytes()
                            == np.asarray(value, dtype=float).tobytes())

    def test_abs_value(self):
        assert evaluate(parse("abs(x)"), {"x": -3.5}) == 3.5


class TestPartial:
    def test_z_slot_of_delayed_quadratic_is_one(self):
        e = parse("dxtau^2 + z")
        rng = np.random.default_rng(3)
        for _ in range(10):
            b = {"dxtau": rng.normal(), "z": rng.normal()}
            assert partial(e, "z", b) == 1.0

    def test_product_partial(self):
        assert partial(parse("x*z"), "x", {"x": 2.0, "z": 3.0}) == 3.0

    def test_sin_partial_vs_central_difference(self):
        e = parse("sin(dx)")
        exact = partial(e, "dx", {"dx": 0.3})
        approx = central_diff(lambda v: evaluate(e, {"dx": v}), 0.3)
        assert abs(exact - approx) < 1e-8

    @pytest.mark.parametrize("fn", FUNCTIONS)
    def test_builtins_match_central_differences(self, fn):
        # log/sqrt need positive arguments: shift through exp keeps us safe
        text = f"{fn}(0.4 + exp(0.3*x))" if fn in ("log", "sqrt") else f"{fn}(0.7*x - 0.2)"
        e = parse(text)
        rng = np.random.default_rng(hash(fn) % 2**32)
        xs = rng.uniform(-2.0, 2.0, size=1000)
        exact = partial(e, "x", {"x": xs})
        step = 1e-5
        approx = (evaluate(e, {"x": xs + step}) - evaluate(e, {"x": xs - step})) / (2 * step)
        scale = np.maximum(np.abs(approx), 1.0)
        assert np.max(np.abs(exact - approx) / scale) < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(11)
        e1 = parse("sin(x)*t + x^2")
        e2 = parse("exp(0.3*x) - t*x")
        for _ in range(50):
            al, be = (float(v) for v in rng.uniform(-2, 2, size=2))
            combo = parse(f"{al!r}*(sin(x)*t + x^2) + {be!r}*(exp(0.3*x) - t*x)")
            b = {"x": rng.uniform(-1, 1), "t": rng.uniform(-1, 1)}
            lhs = partial(combo, "x", b)
            rhs = al * partial(e1, "x", b) + be * partial(e2, "x", b)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_power_with_variable_exponent(self):
        e = parse("x^t")
        b = {"x": 2.0, "t": 3.0}
        assert partial(e, "t", b) == pytest.approx(8.0 * math.log(2.0), rel=1e-14)
        assert partial(e, "x", b) == pytest.approx(12.0, rel=1e-14)

    def test_abs_kink_is_non_differentiable(self):
        with pytest.raises(errors.NonDifferentiable):
            partial(parse("abs(x)"), "x", {"x": 0.0})

    def test_abs_away_from_kink(self):
        assert partial(parse("abs(x)"), "x", {"x": -2.0}) == -1.0

    def test_partial_of_unseeded_variable_is_zero(self):
        assert partial(parse("x^2"), "z", {"x": 3.0, "z": 1.0}) == 0.0

    @pytest.mark.parametrize("text, expected", [
        ("sqrt(exp(-exp(1000*dx))) + z", 1.0),
        ("exp(-exp(1000*dx))^0.5 + z", 1.0),
        ("exp(-exp(1000*dx)) * z", 0.0),
    ])
    def test_overflow_without_the_seed_leaves_the_partial_exact(self, text, expected):
        # exp(1000) overflows to inf in a subtree without z; its tangent is an
        # exact zero, never 0 * inf = NaN, so no kink or power check fires
        e = parse(text)
        assert partial(e, "z", {"dx": 1.0, "z": 0.0}) == expected
        with np.errstate(over="ignore"):
            arr = partial(e, "z", {"dx": np.ones(3), "z": np.zeros(3)})
        np.testing.assert_array_equal(np.broadcast_to(arr, (3,)), expected)

    def test_quotient_rule(self):
        e = parse("x / (1 + x^2)")
        x = 0.7
        exact = partial(e, "x", {"x": x})
        expected = (1 - x * x) / (1 + x * x) ** 2
        assert exact == pytest.approx(expected, rel=1e-14)
