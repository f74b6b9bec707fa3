import math
import warnings

import numpy as np
import pytest

import herglotz as hg
from herglotz import errors, expr
from herglotz.expr import (
    FUNCTIONS,
    VARIABLES,
    Bin,
    Call,
    Neg,
    Num,
    Var,
    _degree,
    affine,
    evaluate,
    parse,
    partial,
    to_text,
    value_and_partial,
    variables_in,
)
from herglotz.integrate import integrate_z

from conftest import build_paper, wavy_sampled, whole_tree_z


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


def exit_code(err):
    """The exit code herglotz.cli.main gives an evaluation error."""
    return 3 if isinstance(err, (errors.DomainError, errors.NonFinite)) else 2


def outcome(fn):
    """(value, partial) as floats, or the exit code of what fn raised."""
    try:
        return tuple(float(v) for v in fn())
    except errors.HerglotzError as err:
        return exit_code(err)


def same_bits(a, b):
    """Equal exit codes, or equal float bits with NaN payloads aside."""
    if isinstance(a, int) or isinstance(b, int):
        return a == b
    return all(math.isnan(x) and math.isnan(y) or
               np.float64(x).tobytes() == np.float64(y).tobytes() for x, y in zip(a, b))


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

    # exponent from z; exp(z) with z = 1000 is inf, and inf - inf is nan
    @pytest.mark.parametrize("x, exponent, z", [
        (0.0, "z", -2.0), (-0.0, "z", -1.0), (0.0, "z", 0.0), (-0.0, "z", 0.5),
        (-2.0, "z", 0.5), (-2.0, "z", 3.0), (-2.0, "z", -3.0), (10.0, "z", 400.0),
        (-10.0, "z", 401.0), (-2.0, "exp(z)", 1000.0), (-0.5, "exp(z)", 1000.0),
        (-2.0, "-exp(z)", 1000.0), (0.0, "exp(z)", 1000.0), (0.0, "-exp(z)", 1000.0),
        (-2.0, "exp(z) - exp(z)", 1000.0), (2.0, "exp(z) - exp(z)", 1000.0),
        (0.0, "exp(z) - exp(z)", 1000.0), (1.0, "exp(z) - exp(z)", 1000.0),
    ])
    def test_power_domain_same_for_scalars_and_arrays(self, x, exponent, z):
        e = parse(f"x^({exponent})")

        def outcome(bindings):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    return float(np.squeeze(evaluate(e, bindings)))
            except errors.DomainError as err:
                return str(err)

        scalar = outcome({"x": x, "z": z})
        vector = outcome({"x": np.array([x]), "z": np.array([z])})
        if isinstance(scalar, float) and math.isnan(scalar):
            assert math.isnan(vector)
        else:
            assert scalar == vector

    # 0, -0.0, inf and nan reach /, log, sqrt and abs; exp(z) with z = 1000
    # is inf, and exp(z) - exp(z) is nan
    @pytest.mark.parametrize("text, x", [
        (t, x) for t in ("1/x", "z/(x*exp(z))", "x/(exp(z) - exp(z))", "1/(-exp(z)*x)",
                         "log(x)", "log(x*exp(z))", "log(-x*exp(z))",
                         "log(exp(z) - exp(z) + x)", "sqrt(x)", "sqrt(x*exp(z))",
                         "sqrt(-x*exp(z))", "sqrt(exp(z) - exp(z) + x)", "abs(x)",
                         "abs(x*exp(z))", "abs(exp(z) - exp(z) + x)")
        for x in (0.0, -0.0, 1.0, -1.0)])
    def test_domain_checks_same_for_scalars_and_arrays(self, text, x):
        e = parse(text)

        def scalar(fn):
            return outcome(lambda: fn({"x": x, "z": 1000.0}))

        def array(fn):
            with np.errstate(all="ignore"):
                return outcome(lambda: tuple(
                    np.squeeze(v) for v in fn({"x": np.array([x]), "z": np.array([1000.0])})))

        for fn in (lambda b: (evaluate(e, b),), lambda b: value_and_partial(e, "x", b)):
            assert same_bits(scalar(fn), array(fn))

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


class TestAffine:
    X = np.array([0.5, -1.5, 2.0])

    @pytest.mark.parametrize("text, a, b", [
        ("z", 0.0, 1.0),
        ("3*z", 0.0, 3.0),
        ("z/x", 0.0 / X, 1.0 / X),
        ("x^2 - 0.2*z", X ** 2, -0.2),
        ("-(z)", -0.0, -1.0),
        ("z - z", 0.0, 0.0),
        ("x^2", X ** 2, 0.0),
    ])
    def test_affine_columns(self, text, a, b):
        got = affine(parse(text), "z", {"x": self.X})
        assert got is not None
        for col, want in zip(got, (a, b)):
            assert col.shape == self.X.shape
            assert np.broadcast_to(want, self.X.shape).tobytes() == col.tobytes()

    @pytest.mark.parametrize("text", ["z*z", "x/z", "sin(z)", "z^1", "2^z", "exp(x*z) + 1"])
    def test_not_affine(self, text):
        assert affine(parse(text), "z", {"x": self.X}) is None

    def test_overflow_is_silent(self):
        x = {"x": np.array([0.0, 1.0])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a1, b1 = affine(parse("1e300*x*1e300 + x*z"), "z", x)
            a2, b2 = affine(parse("exp(exp(exp(5 + x)))*z"), "z", x)
        assert list(a1) == [0.0, math.inf] and list(b1) == [0.0, 1.0]
        assert np.all(np.isnan(a2)) and list(b2) == [math.inf] * 2

    def test_integration_matches_the_stage_walk_on_random_trees(self):
        # lambda bit for bit (B is the z-partial the stages take); z within
        # 1e-13 relative where L is affine in z, exact where the tree is
        # A +- b*z itself, and bit for bit where it is not affine, transcendental
        # subtrees included. Where the stage walk raises or meets a non-finite
        # value, so does integrate_z
        problem, _, _, _ = build_paper(8)
        traj = wavy_sampled(problem)
        names = {"t", "x", "dx", "xtau", "dxtau", "z"}
        compared = {1: 0, 2: 0}
        with_z = 0
        for tree in random_trees(11, 1500):
            if not variables_in(tree) <= names:
                continue
            p = hg.HerglotzProblem(grid=problem.grid, gamma=0.5, beta=problem.beta,
                                   history=problem.history, lagrangian=tree)
            try:
                with np.errstate(all="ignore"):
                    z, lam = whole_tree_z(p, traj)
            except (errors.HerglotzError, AssertionError):
                with pytest.raises(errors.HerglotzError):
                    integrate_z(p, traj)
                continue
            zp = integrate_z(p, traj)
            assert zp.lam.tobytes() == lam.tobytes()
            degree = max(_degree(tree, "z"), 1)
            if degree == 1:
                assert np.all(np.abs(zp.z - z) <= 1e-13 * np.abs(z))
                with_z += "z" in variables_in(tree)
            else:
                assert zp.z.tobytes() == z.tobytes()
            compared[degree] += 1
        assert compared[1] > 1000 and with_z > 50 and compared[2] > 40


class TestSquare:
    # -0.0, a subnormal, squares that underflow to a subnormal and to zero,
    # two where glibc's pow(x, 2.0) is 1 ulp off the rounded square, and one
    # that overflows
    X = np.array([-0.0, 0.0, 5e-324, 1.5e-160, -2.2250738585072014e-308,
                  2.817595433862767, -0.8843031552730771, 3.0, 1e200])

    def test_square_is_the_product_on_every_path(self):
        with np.errstate(over="ignore"):
            want = (self.X * self.X).tobytes()
        e = parse("x^2 + z")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floats = np.array([evaluate(e.left, {"x": x}) for x in self.X.tolist()])
            a, _ = affine(e, "z", {"x": self.X})
        with np.errstate(over="ignore"):
            plain = evaluate(e.left, {"x": self.X})
        for got in (floats, a, plain):
            assert got.tobytes() == want

    def test_integration_runs_no_per_sample_power(self, monkeypatch):
        def per_sample(u, v):
            raise AssertionError(f"per-sample power {u}^{v}")

        problem, traj, _, _ = build_paper(2000)
        monkeypatch.setattr(expr, "_pow", per_sample)
        assert integrate_z(problem, traj).z_b == pytest.approx(math.e ** 2 - math.e, rel=1e-9)
        assert math.isfinite(integrate_z(problem, wavy_sampled(problem)).z_b)

    @pytest.mark.parametrize("exponent", [3.0, 0.5])
    def test_other_exponents_keep_the_libm_bits(self, exponent):
        xs = np.abs(self.X[2:-1])
        want = np.array([x ** exponent for x in xs.tolist()]).tobytes()
        e = parse(f"x^{exponent} + z")
        floats = np.array([evaluate(e.left, {"x": x}) for x in xs.tolist()])
        a, _ = affine(e, "z", {"x": xs})
        assert floats.tobytes() == a.tobytes() == want
        assert evaluate(e.left, {"x": xs}).tobytes() == np.power(xs, exponent).tobytes()

    def test_variable_exponent_keeps_the_libm_bits(self):
        xs = np.abs(self.X[2:-1])
        zs = np.linspace(0.3, 3.7, len(xs)).tolist()
        e = parse("x^z")
        got = [value_and_partial(e, "z", {"x": x, "z": z})[0] for x, z in zip(xs.tolist(), zs)]
        assert np.array(got).tobytes() == np.array(
            [x ** z for x, z in zip(xs.tolist(), zs)]).tobytes()
