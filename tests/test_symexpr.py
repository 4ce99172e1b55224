import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cartanvp import flows
from cartanvp import forms as fm
from cartanvp import symexpr as sx
from cartanvp.errors import (
    DivisionByZeroError,
    ExpansionLimitError,
    ParseError,
    UnboundFunctionError,
    UnboundVariableError,
)
from conftest import rand_poly

x, y, z = sx.variables("x y z")


class TestCanon:
    def test_collapse_product(self):
        assert sx.canon(x * (x + 1) - x**2) == x

    def test_annihilator_and_unit(self):
        assert sx.canon(sx.sin(x) * 0 + sx.num(3) / 3) == sx.ONE

    def test_binomial_identity(self):
        e = (x + y) ** 2 - (x**2 + 2 * x * y + y**2)
        assert sx.canon(e).is_const_zero()

    def test_idempotent_on_corpus(self):
        rng = random.Random(7)
        for _ in range(50):
            e = rand_poly(rng, ["x", "y", "z", "w"], degree=4, terms=4)
            c = sx.canon(e)
            assert sx.canon(c) == c

    def test_quotients_are_reduced(self):
        # the polynomial gcd reduces every quotient to lowest terms
        assert sx.canon((x**2 - 1) / (x - 1)) == sx.canon(x + 1)
        assert sx.canon(x * (1 + z) / (y * (1 + z))) == sx.canon(x / y)
        assert sx.canon((x**2 - y**2) / (x - y)) == sx.canon(x + y)
        d4 = 1 / (x + 1)
        for _ in range(4):
            d4 = sx.diff(d4, "x")
        assert d4 == sx.canon(24 / (x + 1) ** 5)
        assert str(d4) == "24/(x^5 + 5*x^4 + 10*x^3 + 10*x^2 + 5*x + 1)"
        assert sx.is_zero((x**2 - 1) / (x - 1) - (x + 1)).is_zero

    def test_monomial_content_cancels(self):
        r = (x**2 * y) / (x * y)
        assert sx.canon(r) == x

    def test_equal_iff_difference_is_zero_property(self):
        # canonical forms are unique: a == b exactly when a - b is 0, on
        # rational functions in x, y, z and an opaque atom
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        B = _Raw.func("B", _Raw.var("x"), _Raw.var("y"))
        leaves = st.one_of(
            st.sampled_from([_Raw.var("x"), _Raw.var("y"), _Raw.var("z"), B]),
            st.integers(-3, 3).map(_Raw.of),
        )

        def extend(kids):
            pairs = st.tuples(kids, kids)
            return st.one_of(
                pairs.map(lambda t: t[0] + t[1]),
                pairs.map(lambda t: t[0] - t[1]),
                pairs.map(lambda t: t[0] * t[1]),
                pairs.map(lambda t: t[0] / t[1]),
                st.tuples(kids, st.integers(-2, 2)).map(lambda t: t[0] ** t[1]),
            )

        trees = st.recursive(leaves, extend, max_leaves=8)

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(trees, trees, trees)
        def check(r1, r2, r3):
            try:
                a, b, c = r1.value(), r2.value(), r3.value()
                # the same function summed two ways, and a reordered twin
                u, w = (a + b) * c, a * c + c * b
            except DivisionByZeroError:
                hypothesis.assume(False)
            assert u == w and (u - w).is_const_zero()
            assert (a == b) == (a - b).is_const_zero() == (str(a) == str(b))
            assert (a == b) == (a.key() == b.key())

        check()

    def test_matches_sympy_cancel(self):
        # the canonical form of each corpus tree is sympy's cancelled
        # quotient: the same function, numerator and denominator coprime
        sympy = pytest.importorskip("sympy")
        for r, c in zip(_canon_corpus(raw=True), _canon_corpus()):
            _assert_sympy_quotient(sympy, c, sympy.cancel(r.sympy(sympy)))

    def test_identically_zero_denominator_raises(self):
        with pytest.raises(DivisionByZeroError):
            sx.canon(1 / (x - x))

    def test_pythagorean_rewrite_flag(self):
        p = sx.sin(x) ** 2 + sx.cos(x) ** 2 - 1
        assert not sx.canon(p).is_const_zero()


class TestDiff:
    def test_power_rule(self):
        assert sx.diff(x**2 * y, "x") == sx.canon(2 * x * y)

    def test_table_rule(self):
        assert sx.diff(sx.sin(x), "x") == sx.cos(x)

    def test_constant(self):
        c = sx.canon(y * 3 + sx.num(Fraction(1, 2)))
        assert sx.diff(c, "x").is_const_zero()

    def test_chain_rule(self):
        e = sx.exp(x**2)
        got = sx.diff(e, "x")
        want = sx.canon(2 * x * sx.exp(x**2))
        assert sx.canon(got - want).is_const_zero()

    def test_ln(self):
        got = sx.diff(sx.ln(x**2 + 1), "x")
        assert sx.is_zero(got - 2 * x / (x**2 + 1)).is_zero

    def test_product_rule_on_corpus(self):
        rng = random.Random(11)
        for _ in range(50):
            e1 = rand_poly(rng, ["x", "y", "z"], degree=3)
            e2 = rand_poly(rng, ["x", "y", "z"], degree=3)
            lhs = sx.diff(e1 * e2, "x")
            rhs = sx.diff(e1, "x") * e2 + e1 * sx.diff(e2, "x")
            assert sx.canon(lhs - rhs).is_const_zero()

    def test_opaque_atom_partials(self):
        F = sx.func("B11", x, y)
        got = sx.diff(F, "x")
        assert str(got) == "B11@1(x, y)"
        # chain rule through arguments
        G = sx.func("C1", x**2)
        got2 = sx.diff(G, "x")
        want = sx.canon(sx.func("C1@1", x**2) * 2 * x)
        assert sx.canon(got2 - want).is_const_zero()


    @staticmethod
    def _assert_product_rule(r, v):
        # the derivative of the payload is the canonical form of the
        # product-rule tree
        got, want = sx.diff(r.value(), v), r.diff(v).value()
        assert got._rat.num == want._rat.num and got._rat.den == want._rat.den
        assert got.key() == want.key() and str(got) == str(want)

    def test_matches_sympy_diff_and_cancel(self):
        # every corpus expression, by each of its variables and by an
        # absent one, and atoms whose derivatives are quotients (ln, atoms
        # of quotients): the derivative is sympy's, cancelled.  The sums of
        # four quotients (every fifth corpus entry) take sympy seconds per
        # variable; their derivatives are checked against the product-rule
        # tree instead.
        sympy = pytest.importorskip("sympy")
        quotient_atoms = [
            sx.ln(x**2 + y) * z,
            sx.func("B", x / (y + 1), z) + x,
            sx.sin(1 / (x + 1)) * y,
            (x + sx.ln(x)) / (y + x),
        ]
        corpus = _canon_corpus(raw=True)
        for i, c in enumerate(_canon_corpus() + quotient_atoms):
            s = _Raw.of(c).sympy(sympy)
            for v in sorted(sx.free_vars(c)) + ["q"]:
                if i % 5 == 4 and i < len(corpus):
                    self._assert_product_rule(corpus[i], v)
                    continue
                _assert_sympy_quotient(sympy, sx.diff(c, v), sympy.cancel(sympy.diff(s, sympy.Symbol(v))))

    def test_payload_route_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        X, Y, Z = map(_Raw.var, "xyz")
        leaves = st.one_of(
            st.sampled_from([X, Y, Z]),
            st.fractions(min_value=-3, max_value=3, max_denominator=4).map(_Raw.of),
        )

        def extend(kids):
            pairs = st.tuples(kids, kids)
            return st.one_of(
                pairs.map(lambda t: t[0] + t[1]),
                pairs.map(lambda t: t[0] * t[1]),
                pairs.map(lambda t: t[0] / t[1]),
                st.tuples(kids, st.integers(-2, 3)).map(lambda t: t[0] ** t[1]),
                kids.map(lambda k: _Raw.func("B", X, _Raw.func("C", k))),
                kids.map(lambda k: _Raw.func("exp", k)),
                kids.map(lambda k: _Raw.func("ln", k * k + 1)),
            )

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.recursive(leaves, extend, max_leaves=10))
        def check(r):
            try:
                r.value()
            except DivisionByZeroError:
                hypothesis.assume(False)
            for v in ("x", "y", "z", "w"):
                self._assert_product_rule(r, v)

        check()

    def test_absent_variable_is_exactly_zero_property(self):
        # the variables of a payload, atoms' arguments included, bound every
        # variable whose derivative can be nonzero; by any other the
        # derivative is the ZERO node, and the product-rule tree's is 0
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        X, Y, Z = map(_Raw.var, "xyz")
        leaves = st.one_of(
            st.sampled_from([X, Y, Z]),
            st.fractions(min_value=-3, max_value=3, max_denominator=4).map(_Raw.of),
        )

        def extend(kids):
            pairs = st.tuples(kids, kids)
            return st.one_of(
                pairs.map(lambda t: t[0] + t[1]),
                pairs.map(lambda t: t[0] * t[1]),
                pairs.map(lambda t: t[0] / t[1]),
                st.tuples(kids, st.integers(-2, 3)).map(lambda t: t[0] ** t[1]),
                kids.map(lambda k: _Raw.func("B", k, _Raw.func("C", Y))),
                kids.map(lambda k: _Raw.func("ln", k * k + 1)),
                kids.map(lambda k: _Raw.func("sin", k)),
            )

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.recursive(leaves, extend, max_leaves=8))
        def check(r):
            try:
                c = r.value()
            except DivisionByZeroError:
                hypothesis.assume(False)
            names = sx._rat_vars(c._rat)
            assert names == _Raw.of(c).vars() and sx.free_vars(c) == set(names)
            for v in {"x", "y", "z", "w"} - names:
                assert sx.diff(c, v) is sx.ZERO
                assert sx._rat_is_zero(sx._rat_diff(c._rat, v))
                assert r.diff(v).value() is sx.ZERO

        check()

    def test_free_vars_copies_the_cached_set(self):
        c = sx.canon(x * sx.func("B", y, z) + 1 / (x + 2))
        got = sx.free_vars(c)
        assert got == {"x", "y", "z"} and type(got) is set
        got.add("w")
        assert sx.free_vars(c) == {"x", "y", "z"}
        # a product unions the variable sets of its factors
        assert sx.free_vars(c * sx.var("w")) == {"w", "x", "y", "z"}

    def test_canonical_polynomial_is_not_re_expanded(self, monkeypatch):
        # 50 terms, one of them over an opaque atom no other test uses: the
        # derivative reads the payload, so only the atom's own derivative is
        # formed, once per variable, and the polynomial takes no gcd
        B = sx.func("Bcount", x, y)
        terms = [(k + 1) * x ** (k % 4) * y ** (k // 4 % 4) * z ** (k // 16) for k in range(49)]
        c = sx.canon(sum(terms, B * x * z))
        assert len(sx.poly_terms(c)) == 50
        calls = []
        atom_diff, t_gcd = sx._atom_diff, sx._t_gcd

        def counting(a, v):
            calls.append(v)
            return atom_diff(a, v)

        def no_gcd(a, b):
            raise AssertionError("a polynomial's derivative takes no gcd")

        monkeypatch.setattr(sx, "_atom_diff", counting)
        monkeypatch.setattr(sx, "_t_gcd", no_gcd)
        for v in ("x", "y", "z"):
            sx.diff(c, v)
        assert calls == ["x", "y", "z"]
        monkeypatch.setattr(sx, "_t_gcd", t_gcd)


def _value(e, point):
    """The compiled float value of `e` at a point given by name."""
    return sx.compile_expr(e, list(point))([float(v) for v in point.values()])


class TestEval:
    def test_polynomial(self):
        assert _value(x**2 + y, {"x": 2, "y": 1}) == 5.0

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            _value(1 / x, {"x": 0})

    def test_exp_times_constant(self):
        assert _value(sx.exp(sx.num(0)) * 7, {}) == 7.0

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            _value(x + y, {"x": 1})

    def test_opaque_needs_interpretation(self):
        F = sx.func("B11", x)
        with pytest.raises(UnboundFunctionError):
            _value(F, {"x": 1})

    def test_near_zero_denominator_tolerance(self):
        with pytest.raises(DivisionByZeroError):
            _value(1 / x, {"x": 1e-13})

    def test_product_eval_consistency_200_pairs(self):
        # canonical product evaluates like the product of evaluations
        rng = random.Random(13)
        for _ in range(200):
            e1 = rand_poly(rng, ["x", "y", "z", "w"], degree=4, terms=3)
            e2 = rand_poly(rng, ["x", "y", "z", "w"], degree=4, terms=3)
            prod = sx.canon(e1 * e2)
            for _ in range(20):
                pt = {n: rng.uniform(-1, 1) for n in ("x", "y", "z", "w")}
                lhs = _value(prod, pt)
                rhs = _value(e1, pt) * _value(e2, pt)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def _evaluates(f, value) -> bool:
    try:
        f([value])
    except (DivisionByZeroError, UnboundVariableError, ValueError):
        return False
    return True


class TestCompiled:
    def test_differential_against_exact_rationals(self):
        # quotients and negative powers of seeded polynomials with nested
        # opaque atoms; denominators stay at least 2 away from zero
        rng = random.Random(23)
        names = ["x", "y", "z"]
        C = _Raw.func("C", _Raw.var("y"))
        B = _Raw.func("B", _Raw.var("x"), C)
        checked = 0

        def poly(**kw):
            return _Raw.of(rand_poly(rng, names, **kw))

        for _ in range(40):
            p1 = poly(degree=3, terms=3) + B * poly(degree=1)
            q1 = 2 + poly(degree=1, terms=2) ** 2 + C**2
            q2 = 3 + B**2 + poly(degree=2, terms=2) ** 2
            r = p1 / q1 + poly(degree=2) * q2**-2
            e = r.value()
            symbols, points = sx.sample_points([e], seed=rng.randrange(1 << 16), count=8)
            f = sx.compile_expr(e, symbols)
            for vals in points:
                env = dict(zip(symbols, vals))
                want = r.exact(env)
                tol = 1e-12 * max(1.0, abs(float(want)))
                assert abs(f(vals) - float(want)) <= tol
                # the slots bind by symbol, in any order
                assert sx.compile_expr(e, symbols[::-1])(vals[::-1]) == f(vals)
                checked += 1
        assert checked == 320

    @pytest.mark.parametrize(
        "expr, values, error, compiled_msg",
        [
            (1 / x, {"x": 1e-13}, DivisionByZeroError, "denominator within 1e-12"),
            # the canonical form of a negative power is a quotient
            ((x - 1) ** -3, {"x": 1 + 1e-13}, DivisionByZeroError, "denominator within 1e-12"),
            (x + y, {"x": 1.0}, UnboundVariableError, "'y'"),
            (sx.func("B11", x) + 1, {"x": 1.0}, UnboundFunctionError, "'B11'"),
        ],
    )
    def test_error_contract(self, expr, values, error, compiled_msg):
        f = sx.compile_expr(expr, list(values))
        with pytest.raises(error, match=compiled_msg):
            f(list(values.values()))

    def test_tolerance_edge(self):
        f = sx.compile_expr(1 / x, ["x"])
        assert f([2e-12]) == 1 / 2e-12

    def test_columns_match_scalar_bitwise(self):
        # sums with cancellation (fsum per row), quotients, integer powers
        # and the known functions, with an opaque atom under sin
        rng = random.Random(31)
        names = ["x", "y", "z"]
        F = sx.func("F", x, y)
        for _ in range(30):
            p1 = rand_poly(rng, names, degree=3, terms=4)
            q = 3 + rand_poly(rng, names, degree=1, terms=2) ** 2
            e = p1 / q + sx.sin(F + x) * z**3 - sx.exp(y) * sx.ln(2 + x**2) + sx.cos(p1) * (x - y) ** -2
            symbols, points = sx.sample_points([e], seed=rng.randrange(1 << 16), count=40)
            f = sx.compile_expr(e, symbols)
            rows = [vals for vals in points if abs(vals[0] - vals[1]) > 1e-3]
            scalar = np.array([f(list(vals)) for vals in rows])
            columns = f(list(np.array(rows).T))
            assert np.array_equal(columns, scalar)
        assert sx.compile_expr(x * 0 + 5, ["x"])([np.zeros(3)]) == 5.0

    def test_compiling_builds_no_tree(self, monkeypatch):
        # the closures read the payload: compiling and calling a quotient
        # with sums, powers, sin/ln and nested opaque atoms, on floats and
        # on columns, the RK4 step of a product field and printing make no
        # node
        B = sx.func("B", x, sx.func("C", y + 1))
        e = sx.canon((x**2 * B - 2 * sx.sin(x * y + 1) + 3) / (4 + y**2 + sx.ln(2 + x**2) ** 2))
        symbols, points = sx.sample_points([e], seed=5, count=3)
        rows = list(points)
        chart = fm.Chart(["x", "y"])
        X = fm.VecField(chart, [sx.canon(-3 * x * y), sx.canon(sx.num(Fraction(2, 7)) * y)])
        builds = 0
        new_node = sx._new_node

        def counting(*args):
            nonlocal builds
            builds += 1
            return new_node(*args)

        monkeypatch.setattr(sx, "_new_node", counting)
        f = sx.compile_expr(e, symbols)
        scalar = [f(vals) for vals in rows]
        assert np.array_equal(f(list(np.array(rows).T)), scalar)
        flows._compile_step(X)([0.5, 0.25], 0.1, 0.05, 0.1 / 6)
        str(e)
        assert builds == 0

    @pytest.mark.parametrize(
        "expr, column, error",
        [
            (1 / (x - 1), [3.0, 1.0 + 1e-13, 2.0], DivisionByZeroError),
            (sx.sin(x) * (x - 1) ** -3 + x, [3.0, 1.0, 2.0], DivisionByZeroError),
            (sx.ln(x) + 1, [1.0, -1.0], ValueError),
            (x + y, [1.0, 2.0], UnboundVariableError),
            (sx.func("B11", x) + 1, [1.0, 2.0], UnboundFunctionError),
        ],
    )
    def test_column_errors_are_the_scalar_errors(self, expr, column, error):
        f = sx.compile_expr(expr, ["x"])
        with pytest.raises(error) as on_column:
            f([np.array(column)])
        bad = next(v for v in column if not _evaluates(f, v))
        with pytest.raises(error) as on_row:
            f([bad])
        assert str(on_column.value) == str(on_row.value)

    def test_sampler_draws_pinned(self):
        # labels of the first two draws, recorded before the sampler was
        # unified; any change to names, atom keys or draw order shows here
        exprs = [sx.func("B", x, sx.func("C", y)) * z, y / (1 + sx.func("C", y) ** 2)]
        symbols, points = sx.sample_points(exprs, box=(0.0, 2.0), seed=11, count=2, center=True)
        assert [sx.point_label(symbols, v) for v in points] == [
            {"x": 1.0, "y": 1.0, "z": 1.0, "B(x, C(y))": -0.09524089298036276, "C(y)": 0.11954477216099191},
            {"x": 1.8484211680474587, "y": 0.9313001401995467, "z": 1.0156825461245422,
             "B(x, C(y))": 0.1747696576997939, "C(y)": -0.6306793122902468},
        ]
        symbols, points = sx.sample_points(exprs, box=(0.0, 2.0), seed=11, count=2)
        assert [sx.point_label(symbols, v) for v in points] == [
            {"x": 0.9047591070196372, "y": 1.119544772160992, "z": 1.8484211680474587,
             "B(x, C(y))": -0.06869985980045334, "C(y)": 0.01568254612454223},
            {"x": 1.174769657699794, "y": 0.36932068770975324, "z": 1.023817278083611,
             "B(x, C(y))": 0.25976544043360383, "C(y)": 0.5859537450399053},
        ]


class TestIsZero:
    def test_structural_zero(self):
        assert sx.is_zero(x**2 - x * x).verdict == "zero"

    def test_nonzero_with_witness(self):
        res = sx.is_zero(x + 1, box=(0, 1))
        assert res.verdict == "nonzero"
        assert res.witness is not None and abs(res.witness_value) > 1e-9

    def test_pythagorean_unknown_by_default(self):
        p = sx.sin(x) ** 2 + sx.cos(x) ** 2 - 1
        assert sx.is_zero(p).verdict == "unknown"
        # dense sampling oracle: |value| <= 1e-9 at 1000 points
        rng = random.Random(3)
        worst = max(abs(_value(p, {"x": rng.uniform(-4, 4)})) for _ in range(1000))
        assert worst <= 1e-9

    def test_seed_recorded(self):
        res = sx.is_zero(x, seed=123)
        assert res.seed == 123

    def test_per_variable_box(self):
        # x - 3 is nonzero on a box clear of 3, undetectable around it
        res = sx.is_zero(x - 3, box={"x": (0.0, 1.0)})
        assert res.verdict == "nonzero"
        assert 0.0 <= res.witness["x"] <= 1.0

    def test_opaque_atom_under_known_function_is_drawn(self):
        res = sx.is_zero(sx.sin(sx.func("F", x)) + x)
        assert res.verdict == "nonzero"
        assert "F(x)" in res.witness

    def test_constant_decided_by_its_value(self, monkeypatch):
        # a nonzero constant is "nonzero" at any size, with the empty
        # witness {} and its exact value (10^400 has no float), and no draw
        # or compile
        monkeypatch.setattr(sx, "sample_points", _no_sampling)
        monkeypatch.setattr(sx, "_compile", _no_sampling)
        for c in (3, Fraction(-7, 3), Fraction(1, 10**8), Fraction(1, 10**12), Fraction(-1, 10**400), 10**400):
            res = sx.is_zero(sx.num(c), seed=5)
            assert res == sx.ZeroTest("nonzero", {}, c, 5)
        assert sx.is_zero(sx.num(0)).verdict == "zero"
        with pytest.raises(AssertionError, match="sampled"):
            sx.is_zero(x - x + x)

    @pytest.mark.parametrize(
        "text, verdict",
        [
            # below 1e-9 at every sample: the canonical form decides, with
            # no witness, unless a sin, cos, exp or ln atom sits at any depth
            ("1/1000000000000*x", "nonzero"),
            ("1/1000000000000*B(1/x)/(x + 3)", "nonzero"),
            ("1/1000000000000*sin(x)^2 + 1/1000000000000*cos(x)^2", "unknown"),
            ("1/1000000000000*B(exp(x))", "unknown"),
            ("x/(1000000000000*x^2 + 1000000000000*cos(x)^2)", "unknown"),
        ],
    )
    def test_below_threshold_everywhere(self, text, verdict):
        assert sx.is_zero(sx.parse(text)) == sx.ZeroTest(verdict)


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled")


class TestParser:
    def test_precedence_and_rationals(self):
        e = sx.parse("3/2*x^2 - -y")
        want = sx.num(Fraction(3, 2)) * x**2 + y
        assert sx.canon(e - want).is_const_zero()

    def test_unary_minus_binds_below_power(self):
        assert sx.canon(sx.parse("-x^2") + x**2).is_const_zero()

    def test_functions(self):
        e = sx.parse("sin(x)*cos(y) + exp(0) + ln(x)")
        assert sx.free_vars(e) == {"x", "y"}

    def test_opaque_multi_argument(self):
        e = sx.parse("B11(x1, x2, z1)")
        assert str(sx.canon(e)) == "B11(x1, x2, z1)"

    def test_whitespace_insignificant(self):
        assert sx.parse(" x + 2 * y ") == sx.parse("x+2*y")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            sx.parse("x + * y")
        assert err.value.position is not None

    def test_sin_arity(self):
        with pytest.raises(ParseError):
            sx.parse("sin(x, y)")

    def test_leaves_are_shared(self):
        # a variable parses to its registry atom, a small integer to one
        # shared node, and each is canonical
        assert sx.parse("x") is x and sx.parse(" y ") is sx.var("y")
        assert sx.parse("x*y + 2*x") == x * y + 2 * x
        for n in (sx.parse("x"), sx.parse("7")):
            assert sx.canon(n) is n
            assert_payload(n._rat)
        assert sx.parse("0") is sx.ZERO and sx.parse("1") is sx.ONE
        # the integers held are bounded by their magnitude
        assert sx.parse("1023") is sx.parse("1023")
        assert sx.parse("1024") is not sx.parse("1024")
        assert sx.parse("1024") == sx.parse("1024")

    def test_matches_reference_parser_on_pinned_texts(self):
        texts = [
            "3/2*x^2 - -y", "-x^2", "--x", "x - -1", "0 + 0", "0*x + 1*y", "x*1*y/1*z",
            "a + (b + c) - (d - e)", "(a + b) + c", "a*(b*c)*-d", "(a*b)*c", "(a*b)/c*d",
            "x^-2", "x^(-2)", "x^(2*3 - 1)", "-x^-(3)",
            "sin(x)*cos(y) + exp(0) + ln(x)", "B11(x1, x2, z1)", "F(x, G(y, 1/2), -3)",
            " x +\t2 * y ", "Dz1_x2 * x2", "٣*x + ١٢", "é + x", "x\x1c+ y",
            # errors: characters, tokens, exponents, brackets, arity, trailing input
            "", "   ", "x + * y", "x @ y", "@", "x +", "(x", "(x + y", "x)", "x y", "2x", "2_x",
            "_x", "x ½", "½", "x^", "x^y", "x^(y)", "x^(1/2)", "x^1.5", "x^(1", "x^(1 y)", "x^-",
            "sin(x, y)", "ln()", "F(x,", "F(x y)", "F(x; y)", "sin(x", "x ^ 2 ^ 3", "()", "(,)",
            "x^²", "²", "x + ²", "(x ²", "x^(1/0)", "1/0", "x^(0/0)",
            # a digit run with a non-decimal digit, met where a bracket must close
            "(x 0²)", "F(x 0²)", "(F(x, x 0²))",
            # powers of sums, which the parser expands
            "(x + y)^3", "(x - 2*y)^2*(x + 1)", "-(a + b)^2", "(x + 1)^-2", "F(x, (x + y)^2)",
            "(x + y)^0", "(x + y)^1", "(x + y)^(3 - 1)", "((x + y)^2 - z)^3", "(x/y + 1)^2",
            "(sin(x) + 1)^2", "1/(x - y)^3", "(1/2*x - 3)^3/(x + 1)^2", "(x - x)^-2", "(x + y)^-(2)",
        ]
        for text in texts:
            _assert_matches_reference(text)

    def test_matches_reference_parser_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        space = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
        names = st.sampled_from(["x", "y", "z1", "Dz1_x2", "é", "B", "sin", "ln"])
        ints = st.sampled_from(["0", "1", "2", "7", "12", "007", "1023", "1024", "99999", "٣", "١٢"])
        # parsing expands powers, so exponents stay small: at most 3, and
        # at most 27 through nested brackets
        exps = st.sampled_from(["0", "1", "2", "3", "003", "٣"])

        def extend(kids):
            binary = st.tuples(kids, space, st.sampled_from("+-*/"), kids)
            power = st.tuples(kids, st.sampled_from(["", "-"]), exps)
            sum_power = st.tuples(kids, st.sampled_from("+-"), kids, st.sampled_from(["", "-"]), exps)
            call = st.tuples(st.sampled_from(["sin", "exp", "F", "G1"]), st.lists(kids, min_size=1, max_size=3))
            return st.one_of(
                binary.map(lambda t: f"{t[0]}{t[1]}{t[2]}{t[1]}{t[3]}"),
                kids.map(lambda k: f"-{k}"),
                kids.map(lambda k: f"({k})"),
                power.map(lambda t: f"{t[0]}^{t[1]}{t[2]}"),
                sum_power.map(lambda t: f"({t[0]} {t[1]} {t[2]})^{t[3]}{t[4]}"),
                st.tuples(kids, exps, exps).map(lambda t: f"{t[0]}^({t[1]} - {t[2]})"),
                call.map(lambda t: f"{t[0]}({', '.join(t[1])})"),
            )

        valid = st.recursive(st.one_of(names, ints), extend, max_leaves=8)
        noise = st.sampled_from(list("+-*/^(),_@.;x2 ") + ["²", "½", "٣", "\x1c", "Ⅻ", "sin(", ")", "2x"])

        @st.composite
        def texts(draw):
            text = draw(valid)
            for _ in range(draw(st.integers(0, 2))):
                at = draw(st.integers(0, len(text)))
                edit = draw(st.sampled_from(["insert", "delete", "cut"]))
                if edit == "insert":
                    text = text[:at] + draw(noise) + text[at:]
                elif edit == "delete":
                    text = text[:at] + text[at + 1 :]
                else:
                    text = text[:at]
            hypothesis.assume(all(int(e) <= 3 for e in re.findall(r"\^[\s(-]*(\d+)", text)))
            return text

        @hypothesis.settings(max_examples=600, deadline=None, database=None)
        @hypothesis.given(texts())
        def check(text):
            # the reference expands a power of any size; a text over the
            # term limit is test_power_too_large_to_expand's
            hypothesis.assume("power too large" not in str(_outcome(sx.parse, text)))
            _assert_matches_reference(text)

        check()


    def test_names_bound_while_reading(self):
        # parse(text, names) is subst(parse(text), names), except that an
        # exponent binds no names
        names = {"B": sx.func("B", x, z), "C": y / 2 + 1, "D": sx.num(3)}
        texts = [
            "B", "B*x + C^2", "sin(B) - C/B", "F(B, C)*D", "G(x^2, B) + B^-2", "x^(2)",
            "(B + C)^3/(x - C)", "D^2", "-C*-B",
        ]
        for text in texts:
            got = sx.parse(text, names)
            want = sx.subst(sx.parse(text), names)
            assert got == want and str(got) == str(want), text
        assert sx.parse("B", names) is names["B"]
        with pytest.raises(ParseError, match="exponent must be an integer"):
            sx.parse("x^(D)", names)
        with pytest.raises(DivisionByZeroError):
            sx.parse("1/(D - 3)", names)

    def test_power_too_large_to_expand(self):
        # a power of a sum of t terms has up to C(n + t - 1, t - 1) terms;
        # the parser refuses one over the limit at the exponent, at once
        assert len(sx.parse("(x + y)^999")._rat.num[2]) == 1000 == sx._POWER_TERM_LIMIT
        for text, at in [("(x + y)^1000", 8), ("(x + y)^99999", 8), ("1/(x + 1)^-99999", 10),
                         ("(x + y + z)^(50 - 5)", 12)]:
            with pytest.raises(ParseError, match="power too large") as err:
                sx.parse(text)
            assert err.value.position == at, text
        # a monomial's power has one term
        assert str(sx.parse("(2*x*y)^99")) == f"{2**99}*x^99*y^99"

    def test_operator_power_has_the_parser_bound(self):
        # `**` refuses the powers the parser refuses, with a typed error,
        # before expanding anything
        with pytest.raises(ExpansionLimitError, match="power too large"):
            (x + y + z) ** 60
        with pytest.raises(ExpansionLimitError):
            (x + 1) ** -1000
        assert (x + y + z) ** 43 == sx.parse("(x + y + z)^43")
        assert str((2 * x * y) ** 99) == f"{2**99}*x^99*y^99"

    def test_subst_power_has_the_parser_bound(self):
        # subst(parse(text), names) is parse(text, names): both refuse a
        # power of a bound sum that would expand past the term limit
        names = {"x": x + y + z}
        with pytest.raises(ParseError, match="power too large"):
            sx.parse("x^60", names)
        with pytest.raises(ExpansionLimitError, match="power too large"):
            sx.subst(x**60, names)
        with pytest.raises(ExpansionLimitError):
            sx.subst(sx.func("B", x**60), names)
        assert sx.subst(x**43 / (y - 1), names) == sx.parse("x^43/(y - 1)", names)

    def test_roundtrip_on_corpus(self):
        rng = random.Random(17)
        for _ in range(40):
            e = sx.canon(rand_poly(rng, ["x", "y"], degree=3, terms=4))
            assert sx.canon(sx.parse(str(e))) == e

    def test_roundtrip_rational_function(self):
        e = sx.canon((x + 1) / (y**2 + 2))
        assert sx.canon(sx.parse(str(e))) == e


def _outcome(parse, text):
    """The parsed expression's key, or the error: a ParseError's message
    and position, or another exception's type and message."""
    try:
        return "expr", parse(text).key()
    except ParseError as exc:
        return "ParseError", str(exc), exc.position
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _assert_matches_reference(text):
    """`sx.parse` gives the reference parser's value or error, except where
    the reference lets `int` fail on a digit run that holds a non-decimal
    digit (`x^²`, `2²`): there it raises a ParseError at that digit."""
    ref = _RefParser(text)
    got, want = _outcome(sx.parse, text), _outcome(lambda _: ref.parse(), text)
    if want[0] != "ValueError" or not want[1].startswith("invalid literal for int()"):
        assert got == want, text
        return
    # the reference's tokenizer stopped at the end of the failing run
    end = start = ref.tk.pos
    while start and text[start - 1].isdigit():
        start -= 1
    at = next(i for i in range(start, end) if not text[i].isdecimal())
    messages = [f"unexpected character {text[at]!r}", "trailing input"]
    assert got[0] == "ParseError" and got[2] == at, text
    assert got[1] in [f"{m} (at position {at})" for m in messages], text


# The character scanner and parser that `sx.parse` replaced, kept as the
# reference for its values and its errors; it combines its operands with
# the `Expr` operators as it meets them, as the parser does.


class _RefTokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos, self.text)

    def peek(self):
        t = self.text
        n = len(t)
        p = self.pos
        while p < n and t[p].isspace():
            p += 1
        self.pos = p
        if p >= n:
            return None
        return t[p]

    def next_token(self):
        ch = self.peek()
        if ch is None:
            return None, None
        p = self.pos
        t = self.text
        if ch.isdigit():
            q = p
            while q < len(t) and t[q].isdigit():
                q += 1
            self.pos = q
            return "int", int(t[p:q])
        if ch.isalpha():
            q = p
            while q < len(t) and (t[q].isalnum() or t[q] == "_"):
                q += 1
            self.pos = q
            return "ident", t[p:q]
        if ch in "+-*/^(),":
            self.pos = p + 1
            return ch, ch
        self.error(f"unexpected character {ch!r}")


class _RefParser:
    def __init__(self, text: str):
        self.tk = _RefTokenizer(text)

    def parse(self):
        e = self.add()
        if self.tk.peek() is not None:
            self.tk.error("trailing input")
        return e

    def add(self):
        e = self.mul()
        while True:
            ch = self.tk.peek()
            if ch == "+":
                self.tk.next_token()
                e = e + self.mul()
            elif ch == "-":
                self.tk.next_token()
                e = e - self.mul()
            else:
                return e

    def mul(self):
        e = self.unary()
        while True:
            ch = self.tk.peek()
            if ch == "*":
                self.tk.next_token()
                e = e * self.unary()
            elif ch == "/":
                self.tk.next_token()
                e = e / self.unary()
            else:
                return e

    def unary(self):
        if self.tk.peek() == "-":
            self.tk.next_token()
            return -self.unary()
        return self.power()

    def power(self):
        e = self.atom()
        if self.tk.peek() == "^":
            self.tk.next_token()
            sign = 1
            if self.tk.peek() == "-":
                self.tk.next_token()
                sign = -1
            kind, val = self.tk.next_token()
            if kind == "int":
                return e ** (sign * val)
            if kind == "(":
                inner = self.add()
                k2, _ = self.tk.next_token()
                if k2 != ")":
                    self.tk.error("expected ')' in exponent")
                c = inner.const_value()
                if c is None or c.denominator != 1:
                    self.tk.error("exponent must be an integer")
                return e ** (sign * int(c))
            self.tk.error("exponent must be an integer")
        return e

    def atom(self):
        kind, val = self.tk.next_token()
        if kind == "int":
            return sx.num(val)
        if kind == "ident":
            if self.tk.peek() == "(":
                self.tk.next_token()
                args = [self.add()]
                while self.tk.peek() == ",":
                    self.tk.next_token()
                    args.append(self.add())
                k2, _ = self.tk.next_token()
                if k2 != ")":
                    self.tk.error("expected ')' after function arguments")
                if val in sx.KNOWN_FUNCS and len(args) != 1:
                    self.tk.error(f"{val} takes exactly one argument")
                return sx.func(val, *args)
            return sx.var(val)
        if kind == "(":
            e = self.add()
            k2, _ = self.tk.next_token()
            if k2 != ")":
                self.tk.error("expected ')'")
            return e
        self.tk.error(f"unexpected token {val!r}" if kind else "unexpected end of input")


def _canon_corpus(raw=False):
    """200 seeded expressions for the pinned canonical strings: sums,
    products, positive and negative integer powers, quotients (sums over
    equal and over distinct denominators, non-monic denominators, rational
    constants) and nested opaque atoms, one with a non-canonical argument;
    as raw trees, or their values."""
    rng = random.Random(0xCA40)
    names = ["x", "y", "z", "w"]
    X, Y, Z = map(_Raw.var, "xyz")
    C = _Raw.func("C", Y, Z)
    B = _Raw.func("B", X, C)
    D = _Raw.func("D", X * (Y + 1) - X * Y, _Raw.func("sin", Z))
    out = []
    for _ in range(40):
        p = _Raw.of(rand_poly(rng, names, degree=3, terms=3))
        q = _Raw.of(rand_poly(rng, names, degree=2, terms=2))
        r = _Raw.of(Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 6)))
        out.append(p + r * q - D * q)
        out.append((p + B) * (q - r * C) * r)
        out.append((q + r * x) ** rng.randint(2, 3) - p)
        out.append(p * (C + q) ** -rng.randint(1, 2) + r * Y**-1)
        quot = (p + r * B) / (r * (q**2 + C))
        same_den = (q - p) / (q**2 + C)
        out.append(quot + same_den + q / (X * Y - D) - quot / (3 * q * X + 2 * B))
    return out if raw else [t.value() for t in out]


def _assert_sympy_quotient(sympy, got, want):
    """`got` is the cancelled sympy quotient `want`: the same function,
    with numerator and denominator of the same degrees (quotients in lowest
    terms differ by a constant factor only)."""
    rat = got._rat
    keys = sorted({a for poly in (rat.num, rat.den) for m in poly[2] for a, _ in m})
    gens = [_Raw.of(sx._ATOM_REGISTRY[a]).sympy(sympy) for a in keys] or [sympy.Symbol("q")]

    def poly(p):
        exps = {m: tuple(dict(m).get(a, 0) for a in keys) or (0,) for m in p[2]}
        coeffs = {exps[m]: sympy.Rational(p[0] * c, p[1]) for m, c in p[2].items()}
        return sympy.Poly.from_dict(coeffs or {(0,) * len(gens): 0}, *gens, domain="QQ")

    num, den = poly(rat.num), poly(rat.den)
    n, d = (sympy.Poly(e, *gens, domain="QQ") for e in sympy.fraction(want))
    assert num * d == n * den
    assert (num.total_degree(), den.total_degree()) == (n.total_degree(), d.total_degree())


def _assert_payload_answers(c):
    """What `c` answers from its payload equals what the tree the printer
    writes for it answers."""
    tree = _Raw.of(c)
    twin = tree.value()
    assert twin == c and c == twin and hash(twin) == hash(c)
    assert twin._rat.num == c._rat.num and twin._rat.den == c._rat.den
    assert c.key() == tree.key() == twin.key() and str(c) == tree.format() == str(twin)
    assert sx.free_vars(c) == set(tree.vars())
    assert list(sx.opaque_atoms(c)) == tree.opaque()
    assert c.is_const_zero() == (tree.op == "const" and tree.args[0] == 0)
    value = c.const_value()
    assert value == (tree.args[0] if tree.op == "const" else None)
    assert value is None or type(value) is Fraction
    assert not hasattr(c, "nonexistent")
    # the numerator alone equals c exactly when there is no denominator
    num, den = sx.numer_denom(c)
    assert (num == c) == (c == num) == (den == sx.ONE) == (tree.op != "div")
    assert den == sx.ONE or num / den == c
    assert_payload(c._rat)
    return c


def assert_payload(rat):
    """The payload invariant: each poly is (p, q, terms), p/q a positive
    content in lowest terms and `terms` a primitive int polynomial, the
    zero poly is (0, 1, {}), and the denominator is monic (content 1/l for
    its leading coefficient l), the shared _ONE_POLY when it is 1."""
    for p, q, terms in (rat.num, rat.den):
        assert type(p) is int and type(q) is int and q > 0
        assert all(type(k) is int and k for k in terms.values())
        if terms:
            assert p > 0 and math.gcd(p, q) == 1 and math.gcd(*terms.values()) == 1
        else:
            assert (p, q) == (0, 1)
    p, q, terms = rat.den
    assert p == 1 and q == max(terms.items(), key=sx._mono_order)[1]
    assert (rat.den is sx._ONE_POLY) == (terms == {(): 1})


def _mono_mul_reference(m1, m2):
    """The monomial product by a dict of exponents, sorted afterwards."""
    acc = dict(m1)
    for a, e in m2:
        acc[a] = acc.get(a, 0) + e
    return tuple(sorted(acc.items()))


class TestConstantRatio:
    def test_ratio_of_payloads(self):
        # a = c * b iff the denominators are equal and the primitive
        # numerators are equal up to sign; c is never 0
        delta = sx.parse("x^2*y - 3*x*z + 1/2")
        assert sx.constant_ratio(2 * delta, delta) == 2
        assert sx.constant_ratio(-delta, delta) == -1
        assert sx.constant_ratio(delta, delta) == 1
        a, b = x * y - 1, x + y + z
        assert sx.constant_ratio(3 * a / b, a / b) == 3
        assert sx.constant_ratio(sx.canon(-a / (2 * b)), a / b) == Fraction(-1, 2)
        # different denominators, or numerators that differ beyond a constant
        assert sx.constant_ratio(a / b, a / (x + y)) is None
        assert sx.constant_ratio(a / b, a) is None
        assert sx.constant_ratio(delta + 1, delta) is None
        assert sx.constant_ratio(sx.ZERO, delta) is None
        assert sx.constant_ratio(delta, sx.ZERO) is None
        assert sx.constant_ratio(sx.ZERO, sx.ZERO) is None


class TestCanonicalCore:
    def test_monomial_product_merge_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # variable and opaque-atom keys, "f" sorting before "v", atoms of one
        # name ordered by their argument keys
        atoms = [
            ("v", "x"),
            ("v", "y"),
            ("v", "z1"),
            ("f", "B", (("v", "x"),)),
            ("f", "B", (("v", "y"),)),
            ("f", "B@1", (("v", "x"), ("c", (1, 2)))),
            ("f", "C", (("f", "B", (("v", "x"),)),)),
        ]
        monos = st.dictionaries(st.sampled_from(atoms), st.integers(1, 5), max_size=len(atoms)).map(
            lambda d: tuple(sorted(d.items()))
        )

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(monos, monos)
        def check(m1, m2):
            got = sx._mono_mul(m1, m2)
            assert type(got) is tuple and got == _mono_mul_reference(m1, m2)
            assert got == sx._mono_mul(m2, m1)

        check()
        assert sx._mono_mul((), ()) == ()
        assert sx._mono_mul((), ((atoms[0], 2),)) == ((atoms[0], 2),)

    def test_pinned_canonical_strings(self):
        # recorded with the Fraction-only canonicalization that preceded the
        # integer coefficients, the no-op normalization fast path and the
        # payload cache: canonical forms must not change
        with open(Path(__file__).parent / "data" / "canon_strings.txt") as f:
            want = f.read().splitlines()
        got = [str(sx.canon(e)) for e in _canon_corpus()]
        assert len(got) == len(want) == 200
        assert got == want

    def test_payload_printer_matches_tree_printer_property(self):
        # a canonical node is printed from its payload; the text must be the
        # tree printer's text of its built tree in every operand position
        # (top level, summand, factor, numerator or denominator, power base)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        X, Y, Z = map(_Raw.var, "xyz")
        leaves = st.one_of(
            st.sampled_from([X, Y, Z]),
            st.fractions(min_value=-7, max_value=7, max_denominator=6).map(_Raw.of),
        )

        def extend(kids):
            pairs = st.tuples(kids, kids)
            return st.one_of(
                pairs.map(lambda t: t[0] + t[1]),
                pairs.map(lambda t: t[0] - t[1]),
                pairs.map(lambda t: t[0] * t[1]),
                pairs.map(lambda t: t[0] / t[1]),
                st.tuples(kids, st.integers(-2, 3)).map(lambda t: t[0] ** t[1]),
                pairs.map(lambda t: _Raw.func("B", t[0], _Raw.func("C", t[1], X))),
                pairs.map(lambda t: _Raw.func("D", t[0]) ** 2 / (t[1] - _Raw.func("B", Y, t[0]))),
                kids.map(lambda k: _Raw.func("sin", k)),
                kids.map(lambda k: _Raw.func("ln", k * k + 1)),
            )

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.recursive(leaves, extend, max_leaves=10))
        def check(r):
            try:
                c = r.value()
            except DivisionByZeroError:
                hypothesis.assume(False)
            texts = [sx._rat_format(c._rat, prec) for prec in (0, 10, 21, 30, 41)]
            tree = _Raw.of(c)
            assert texts == [tree.format(prec) for prec in (0, 10, 21, 30, 41)]
            assert str(c) == texts[0]

        check()

    def test_cached_payload_and_idempotence_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        X, Y, Z = map(_Raw.var, "xyz")
        leaves = st.one_of(
            st.sampled_from([X, Y, Z]),
            st.fractions(min_value=-3, max_value=3, max_denominator=4).map(_Raw.of),
        )

        def extend(kids):
            pairs = st.tuples(kids, kids)
            return st.one_of(
                pairs.map(lambda t: t[0] + t[1]),
                pairs.map(lambda t: t[0] - t[1]),
                pairs.map(lambda t: t[0] * t[1]),
                pairs.map(lambda t: t[0] / t[1]),
                st.tuples(kids, st.integers(-2, 3)).map(lambda t: t[0] ** t[1]),
                kids.map(lambda k: _Raw.func("B", X, _Raw.func("C", k))),
            )

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.recursive(leaves, extend, max_leaves=10))
        def check(r):
            try:
                c = _assert_payload_answers(r.value())
            except DivisionByZeroError:
                hypothesis.assume(False)
            assert sx.canon(c) is c

        check()
        F, G = sx.func("F", x), sx.func("G", y, sx.func("F", x))
        known = [sx.sin(F) * G + sx.exp(x * G) / (x + 1), sx.cos(sx.ln(G) + F) - F, x, sx.num(1), x - x]
        for e in _canon_corpus() + known:
            _assert_payload_answers(e)

    def test_coefficient_types_at_the_boundary(self):
        rng = random.Random(29)
        polys = [sx.canon(rand_poly(rng, ["x", "y"], degree=3, terms=4)) for _ in range(20)]
        polys.append(sx.canon(x / 2 + sx.num(Fraction(4, 2)) * y - 3))
        for c in _canon_corpus() + polys + [sx.num(Fraction(6, 4)), sx.ZERO]:
            value = c.const_value()
            assert value is None or type(value) is Fraction
            assert all(type(k) is Fraction for k in sx.poly_coeffs(c) or [])
        for e in polys:
            coeffs = sx.poly_coeffs(e)
            assert coeffs and all(type(k) is Fraction for k in coeffs)
            assert [k for k, _ in sx.poly_terms(e)] == coeffs
        assert sx.poly_coeffs(x / 2 + 2 * y - 3) == [-3, Fraction(1, 2), 2]
        assert sx.poly_coeffs(1 / (x + 1)) is None

    def test_subst_payload_route_matches_tree_route(self):
        # an input is substituted on its payload; the result must be the
        # canonical form of the substituted tree, quotients and raised
        # errors included
        F = sx.func("F", x, y)
        mappings = [
            {"x": y + 1},
            {"y": sx.num(Fraction(2, 3)), "w": x},
            {"z": F},
            {"x": y},
            {"q": x},
        ]
        rational = {"x": 1 / (y - 2), "z": x * y}
        for c in _canon_corpus()[::4]:
            for m in mappings + [rational]:
                try:
                    want = _Raw.of(c).subst(m).value()
                except DivisionByZeroError:
                    with pytest.raises(DivisionByZeroError):
                        sx.subst(c, m)
                    continue
                got = sx.subst(c, m)
                assert got._rat.num == want._rat.num and got._rat.den == want._rat.den
                assert got.key() == want.key() and str(got) == str(want)

    def test_opaque_atoms_order(self):
        # numerator then denominator, terms in canonical order, each atom
        # before the atoms nested in its arguments; atoms found only under
        # a known function (sin) come last
        C = sx.func("C", y, z)
        B = sx.func("B", x, C)
        D = sx.func("D", C + x)
        e = (y * B + C**2 * x - D) / (x + sx.func("E", D, B) + 3) + sx.sin(sx.func("F", x))
        want = ["C(y, z)", "E(D(x + C(y, z)), B(x, C(y, z)))", "D(x + C(y, z))", "B(x, C(y, z))", "F(x)"]
        assert [str(a) for a in sx.opaque_atoms(e).values()] == want
        assert list(sx.opaque_atoms(e)) == list(sx.opaque_atoms(sx.canon(e)))


# A raw expression tree: the reference that canonical payloads are checked
# against.  Its nodes are const (a Fraction), var (a name), add, mul, div,
# pow (a base and an int) and func (a name and its arguments), in the
# order they were built; `value` folds a tree left to right with the
# `Expr` operators, `from_payload` is the tree of a payload as the printer
# writes it, and `diff`, `subst`, `key`, `format`, `vars`, `opaque` and
# `exact` are the product rule, substitution, structural key, printer,
# variables, opaque-atom walk and exact evaluation of the tree.


class _Raw:
    __slots__ = ("op", "args")

    def __init__(self, op, args):
        self.op, self.args = op, args

    @staticmethod
    def of(x):
        if isinstance(x, _Raw):
            return x
        if isinstance(x, sx.Expr):
            return _Raw.from_payload(x)
        return _Raw("const", (Fraction(x),))

    @staticmethod
    def var(name):
        return _Raw("var", (name,))

    @staticmethod
    def func(name, *args):
        return _Raw("func", (name, *map(_Raw.of, args)))

    def __add__(self, o):
        return _Raw("add", (self, _Raw.of(o)))

    def __radd__(self, o):
        return _Raw("add", (_Raw.of(o), self))

    def __sub__(self, o):
        return self + -_Raw.of(o)

    def __rsub__(self, o):
        return _Raw.of(o) + -self

    def __mul__(self, o):
        return _Raw("mul", (self, _Raw.of(o)))

    def __rmul__(self, o):
        return _Raw("mul", (_Raw.of(o), self))

    def __truediv__(self, o):
        return _Raw("div", (self, _Raw.of(o)))

    def __rtruediv__(self, o):
        return _Raw("div", (_Raw.of(o), self))

    def __pow__(self, n):
        return _Raw("pow", (self, n))

    def __neg__(self):
        return _Raw("mul", (_Raw.of(-1), self))

    def value(self):
        op, args = self.op, self.args
        if op == "const":
            return sx.num(args[0])
        if op == "var":
            return sx.var(args[0])
        if op == "func":
            return sx.func(args[0], *(a.value() for a in args[1:]))
        if op == "pow":
            return args[0].value() ** args[1]
        acc = args[0].value()
        for a in args[1:]:
            v = a.value()
            acc = acc + v if op == "add" else acc * v if op == "mul" else acc / v
        return acc

    @staticmethod
    def from_payload(c):
        rat = c._rat
        tree = _Raw._poly(rat.num)
        return tree if rat.den is sx._ONE_POLY else _Raw("div", (tree, _Raw._poly(rat.den)))

    @staticmethod
    def _poly(poly):
        p, q, terms = poly
        if not terms:
            return _Raw.of(0)
        ordered = sorted(terms.items(), key=sx._mono_order, reverse=True)
        exprs = [_Raw._mono(m, Fraction(p * c, q)) for m, c in ordered]
        return exprs[0] if len(exprs) == 1 else _Raw("add", tuple(exprs))

    @staticmethod
    def _mono(mono, coeff):
        factors = [_Raw.of(coeff)] if coeff != 1 or not mono else []
        for a, e in mono:
            base = _Raw.var(a[1]) if a[0] == "v" else _Raw.func(a[1], *sx._ATOM_ARGS[a])
            factors.append(base if e == 1 else base**e)
        return factors[0] if len(factors) == 1 else _Raw("mul", tuple(factors))

    def diff(self, v):
        op, args = self.op, self.args
        if op == "const":
            return _Raw.of(0)
        if op == "var":
            return _Raw.of(1 if args[0] == v else 0)
        if op == "add":
            return _Raw("add", tuple(a.diff(v) for a in args))
        if op == "mul":
            return _Raw("add", tuple(
                _Raw("mul", args[:i] + (args[i].diff(v),) + args[i + 1 :]) for i in range(len(args))
            ))
        if op == "pow":
            base, n = args
            return _Raw.of(0) if n == 0 else _Raw("mul", (_Raw.of(n), base ** (n - 1), base.diff(v)))
        if op == "div":
            a, b = args
            return (a.diff(v) * b - a * b.diff(v)) / b**2
        name, inner = args[0], args[1:]
        if name == "sin":
            outer = _Raw.func("cos", *inner)
        elif name == "cos":
            outer = -_Raw.func("sin", *inner)
        elif name == "exp":
            outer = self
        elif name == "ln":
            outer = 1 / inner[0]
        else:  # formal partials name@i, one per argument slot
            terms = [_Raw.func(f"{name}@{i}", *inner) * a.diff(v) for i, a in enumerate(inner, start=1)]
            return _Raw("add", tuple(terms))
        return outer * inner[0].diff(v)

    def subst(self, mapping):
        op, args = self.op, self.args
        if op == "const":
            return self
        if op == "var":
            return _Raw.of(mapping[args[0]]) if args[0] in mapping else self
        if op == "func":
            return _Raw("func", (args[0], *(a.subst(mapping) for a in args[1:])))
        if op == "pow":
            return _Raw("pow", (args[0].subst(mapping), args[1]))
        return _Raw(op, tuple(a.subst(mapping) for a in args))

    def key(self):
        op, args = self.op, self.args
        if op == "const":
            return ("c", (args[0].numerator, args[0].denominator))
        if op == "var":
            return ("v", args[0])
        if op == "func":
            return ("f", args[0], tuple(a.key() for a in args[1:]))
        if op == "pow":
            return ("p", args[0].key(), args[1])
        return ({"add": "a", "mul": "m", "div": "d"}[op], tuple(a.key() for a in args))

    def format(self, prec=0):
        op, args = self.op, self.args
        if op == "const":
            c = args[0]
            s = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            return f"({s})" if (c < 0 and prec > 10) or (c.denominator != 1 and prec >= 40) else s
        if op == "var":
            return args[0]
        if op == "func":
            return f"{args[0]}({', '.join(a.format(0) for a in args[1:])})"
        if op == "pow":
            return f"{args[0].format(41)}^{args[1]}"
        if op == "add":
            parts = [args[0].format(10)]
            for a in args[1:]:
                s = a.format(10)
                parts.append(" - " + s[1:] if s.startswith("-") else " + " + s)
            out = "".join(parts)
            return f"({out})" if prec > 10 else out
        if op == "mul":
            args, sign = list(args), ""
            if args[0].op == "const":
                c = args[0].args[0]
                if c < 0:
                    sign, c = "-", -c
                args = args[1:] if c == 1 and len(args) > 1 else [_Raw.of(c)] + args[1:]
            out = sign + "*".join(a.format(21) for a in args)
            return f"({out})" if prec > 20 else out
        out = f"{args[0].format(30)}/{args[1].format(30)}"
        return f"({out})" if prec > 20 else out

    def children(self):
        if self.op in ("const", "var"):
            return ()
        return self.args[1:] if self.op == "func" else self.args[:1] if self.op == "pow" else self.args

    def nodes(self):
        yield self
        for a in self.children():
            yield from a.nodes()

    def vars(self):
        return frozenset(n.args[0] for n in self.nodes() if n.op == "var")

    def opaque(self):
        """The documented order of `opaque_atoms`: atoms in tree order, each
        before its arguments' atoms, then those under known functions."""
        out, known = {}, []

        def walk(e):
            if e.op == "func":
                if e.args[0] in sx.KNOWN_FUNCS:
                    known.extend(e.args[1:])
                    return
                if e.key() in out:
                    return
                out[e.key()] = e
            for n in e.children():
                walk(n)

        walk(self)
        for a in known:
            walk(a)
        return list(out)

    def exact(self, env):
        """Exact rational value; opaque atoms read env by registry key."""
        op, args = self.op, self.args
        if op == "const":
            return args[0]
        if op == "var":
            return Fraction(env[args[0]])
        if op == "func":
            return Fraction(env[self.key()])
        if op == "pow":
            return args[0].exact(env) ** args[1]
        vals = [a.exact(env) for a in args]
        if op == "add":
            return sum(vals, Fraction(0))
        if op == "div":
            return vals[0] / vals[1]
        out = Fraction(1)
        for v in vals:
            out *= v
        return out

    def sympy(self, sympy):
        """The tree in sympy: opaque atoms are functions whose partial by
        slot i is the function name@i, as in `diff`."""
        op, args = self.op, self.args
        if op == "const":
            return sympy.Rational(args[0].numerator, args[0].denominator)
        if op == "var":
            return sympy.Symbol(args[0])
        if op == "func":
            inner = [a.sympy(sympy) for a in args[1:]]
            known = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp, "ln": sympy.log}
            return (known.get(args[0]) or _sympy_function(sympy, args[0]))(*inner)
        if op == "pow":
            return args[0].sympy(sympy) ** args[1]
        vals = [a.sympy(sympy) for a in args]
        if op == "add":
            return sympy.Add(*vals)
        if op == "mul":
            return sympy.Mul(*vals)
        return vals[0] / vals[1]


_SYMPY_FUNCTIONS = {}


def _sympy_function(sympy, name):
    f = _SYMPY_FUNCTIONS.get(name)
    if f is None:

        def fdiff(self, argindex=1):
            return _sympy_function(sympy, f"{name}@{argindex}")(*self.args)

        f = _SYMPY_FUNCTIONS[name] = type(name, (sympy.Function,), {"fdiff": fdiff})
    return f


# The payload arithmetic over Fraction-coefficient dicts (int when
# integral) that the (content, primitive int polynomial) payload replaced,
# kept as the reference it must agree with coefficient by coefficient.


def _ref_coeff(c):
    return c.numerator if c.denominator == 1 else c


def _ref_p_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = _ref_coeff(Fraction(s))
        else:
            del out[mono]
    return out


def _ref_p_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = sx._mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = _ref_coeff(Fraction(s))
            else:
                del out[m]
    return out


def _ref_p_pow(a, n):
    out = {(): 1}
    for _ in range(n):
        out = _ref_p_mul(out, a)
    return out


def _ref_rat_normalize(num, den):
    if not num:
        return {}, {(): 1}
    content = sx._content_mono([num, den])
    num = sx._terms_divide_mono(num, content) if content else num
    den = sx._terms_divide_mono(den, content) if content else den
    inv = 1 / Fraction(max(den.items(), key=sx._mono_order)[1])
    return (
        {m: _ref_coeff(c * inv) for m, c in num.items()},
        {m: _ref_coeff(c * inv) for m, c in den.items()},
    )


def _ref_p_diff(p, v):
    out = {}
    for mono, c in p.items():
        for i, (a, n) in enumerate(mono):
            if a[0] == "v":
                if a != ("v", v):
                    continue
                da = {(): 1}
            else:
                d = sx.diff(sx._ATOM_REGISTRY[a], v)._rat
                if d.den is not sx._ONE_POLY:
                    return None
                da = _fractions(d.num)
            rest = mono[:i] + ((a, n - 1),) + mono[i + 1 :] if n > 1 else mono[:i] + mono[i + 1 :]
            for m, c2 in da.items():
                m = sx._mono_mul(rest, m)
                s = out.get(m, 0) + c * n * c2
                if s:
                    out[m] = _ref_coeff(Fraction(s))
                else:
                    del out[m]
    return out


def _fractions(poly):
    """The coefficients a poly means, as the reference stores them."""
    p, q, terms = poly
    return {m: _ref_coeff(Fraction(p * c, q)) for m, c in terms.items()}


def _poly(coeffs):
    """The poly of a reference coefficient dict, built independently of
    the module: content = gcd of the numerators over lcm of the
    denominators."""
    if not coeffs:
        return (0, 1, {})
    fs = [Fraction(c) for c in coeffs.values()]
    g = Fraction(math.gcd(*(f.numerator for f in fs)), math.lcm(*(f.denominator for f in fs)))
    return g.numerator, g.denominator, {m: int(Fraction(c) / g) for m, c in coeffs.items()}


class TestIntegerPayload:
    # variables, atoms whose derivatives have contents 1/2 and 3, an opaque
    # atom, and ln, whose derivative has a denominator
    ATOMS = [x, y, sx.sin(x / 2), sx.exp(3 * y), sx.func("G", x, y), sx.ln(x)]

    @pytest.fixture(scope="class")
    def keys(self):
        return sorted(next(iter(sx.canon(a)._rat.num[2]))[0][0] for a in self.ATOMS)

    def _polys(self, st, keys, max_size=5):
        monos = st.tuples(*[st.integers(0, 2)] * len(keys)).map(
            lambda es: tuple((a, e) for a, e in zip(keys, es) if e)
        )
        coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
        return st.dictionaries(monos, coeffs.map(_ref_coeff), max_size=max_size)

    def test_arithmetic_agrees_with_fraction_dicts(self, keys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        polys = self._polys(st, keys)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(polys, polys, st.integers(0, 3), st.sampled_from(["x", "y", "w"]))
        def check(a, b, n, v):
            pa, pb = _poly(a), _poly(b)
            assert _fractions(pa) == a and _poly(_fractions(pa)) == pa
            for got, want in (
                (sx._p_add(pa, pb), _ref_p_add(a, b)),
                (sx._p_mul(pa, pb), _ref_p_mul(a, b)),
                (sx._p_pow(pa, n), _ref_p_pow(a, n)),
                (sx._p_neg(pa), {m: -c for m, c in a.items()}),
            ):
                # the same coefficients, and the one representation of them
                assert _fractions(got) == want and got == _poly(want)
            got, want = sx._p_diff(pa, v), _ref_p_diff(a, v)
            if want is not None:  # else an atom derivative (ln) is a quotient
                assert got.den is sx._ONE_POLY
                assert _fractions(got.num) == want and got.num == _poly(want)
            if b:
                rat = sx._rat_normalize(pa, pb)
                want_num, want_den = _ref_rat_normalize(a, b)
                assert_payload(rat)
                got_num, got_den = _fractions(rat.num), _fractions(rat.den)
                # the reference cancels monomials only: the same quotient,
                # and the same terms where no common sum remains
                assert _ref_p_mul(got_num, want_den) == _ref_p_mul(want_num, got_den)
                if len(want_num) < 2 or len(want_den) < 2:
                    assert (got_num, got_den) == (want_num, want_den)

        check()

    def test_products_by_operand_shape_property(self, keys):
        # one-term operands take their own path in `_p_mul`: the unit,
        # other constants (also the non-primitive ones `_t_mul` passes in
        # the gcd, such as {(): 3}) and monomials, on either side
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monos = st.tuples(*[st.integers(0, 2)] * len(keys)).map(
            lambda es: tuple((a, e) for a, e in zip(keys, es) if e)
        )
        ints = st.integers(-9, 9).filter(bool)
        one_term = st.one_of(
            st.sampled_from([{(): 1}, {(): -1}, {(): 3}, {(): -6}]),
            st.builds(lambda c: {(): c}, ints),
            st.builds(lambda m, c: {m: c}, monos, st.sampled_from([1, -1, 2, -4])),
        )
        dicts = st.one_of(one_term, st.dictionaries(monos, ints, max_size=5))
        contents = st.sampled_from([(1, 1), (2, 3), (5, 1), (1, 4)])

        @hypothesis.settings(max_examples=400, deadline=None, database=None)
        @hypothesis.given(dicts, dicts, contents, contents)
        def check(a, b, ca, cb):
            want = _ref_p_mul(a, b)
            assert sx._t_mul(a, b) == want
            pa, pb = (*ca, a), (*cb, b)
            got = sx._p_mul(pa, pb)
            assert _fractions(got) == _ref_p_mul(_fractions(pa), _fractions(pb))
            if a and b and _poly(_fractions(pa)) == pa and _poly(_fractions(pb)) == pb:
                assert got == _poly(_fractions(got))  # primitive operands, primitive product

        check()
        pb = (2, 3, {((keys[0], 1),): 1, (): -1})
        assert sx._p_mul(sx._ONE_POLY, pb) is pb and sx._p_mul(pb, sx._ONE_POLY) is pb
        assert sx._p_mul((2, 1, {(): 1}), pb)[2] is pb[2]

    def test_the_unit_is_free(self):
        r = (x + 1)._rat
        assert sx._rat_mul(r, sx._RAT_ONE) is r and sx._rat_mul(sx._RAT_ONE, r) is r
        assert sx._rat_div(r, sx._RAT_ONE) is r
        q = x / (y + 1)
        for e in (x, q, 3 * x):
            assert e * sx.ONE is e and sx.ONE * e is e and e / sx.ONE is e
            assert e * 1 is e and e / 1 is e

    def test_every_payload_keeps_the_invariant(self, monkeypatch):
        # every _Rat built by canon, diff, subst and the forms calculus has
        # positive contents, primitive int polynomials and a monic
        # denominator; each is checked as it is built
        built = 0
        init = sx._Rat.__init__

        def checking(self, num, den):
            nonlocal built
            init(self, num, den)
            assert_payload(self)
            built += 1

        monkeypatch.setattr(sx._Rat, "__init__", checking)
        corpus = [sx.canon(e) for e in _canon_corpus()[::3]]
        for c in corpus:
            for v in ("x", "y"):
                sx.diff(c, v)
            sx.subst(c, {"x": y / 2 + 1, "z": sx.func("F", x)})
        # polynomials and small quotients: products of the corpus
        # quotients swell without a gcd
        p = [c for c in corpus if sx.numer_denom(c)[1] == sx.ONE]
        chart = fm.Chart(["x", "y", "z", "w"])
        a = fm.one_form(chart, {"x": p[0], "y": p[1] / 3, "z": x / (2 * y + 4)})
        b = fm.one_form(chart, {"y": p[2], "w": sx.func("F", x) / 6})
        X = fm.VecField(chart, [p[3], x / 3, sx.ONE, 1 / (z - 2)])
        fm.ext_d(fm.wedge(a, b))
        fm.interior(X, fm.wedge(a, fm.ext_d(b)))
        fm.hodge_star(a)
        fm.lie_bracket(X, fm.VecField(chart, [y / 5, x, p[4], sx.ZERO]))
        assert built > 1000
