import random

import pytest

from cartanvp import forms as fm
from cartanvp import symexpr as sx
from cartanvp.errors import ChartMismatchError
from conftest import rand_field, rand_form, rand_poly


def B(chart, name):
    return sx.func(name, *[sx.var(c) for c in chart.coords])


class TestWedge:
    def test_repeated_factor_vanishes(self, chart5):
        dx1 = fm.d_coord(chart5, "x1")
        dx2 = fm.d_coord(chart5, "x2")
        assert fm.wedge(fm.wedge(dx1, dx2), dx2).is_zero_form()

    def test_anticommutativity(self, chart5):
        dz1 = fm.d_coord(chart5, "z1")
        dz2 = fm.d_coord(chart5, "z2")
        assert fm.wedge(dz1, dz2) == fm.wedge(dz2, dz1) * sx.num(-1)

    def test_manual_expansion(self, chart5):
        # (dz1 + B11 dx1) ^ (dz2 + B21 dx1), expanded term by term
        B11, B21 = B(chart5, "B11"), B(chart5, "B21")
        a = fm.d_coord(chart5, "z1") + fm.d_coord(chart5, "x1") * B11
        b = fm.d_coord(chart5, "z2") + fm.d_coord(chart5, "x1") * B21
        got = fm.wedge(a, b)
        expected = fm.DiffForm(
            chart5,
            2,
            {
                (chart5.index("z1"), chart5.index("z2")): sx.ONE,
                (chart5.index("x1"), chart5.index("z2")): B11,
                (chart5.index("x1"), chart5.index("z1")): sx.canon(-B21),
            },
        )
        assert got == expected

    def test_graded_commutativity_random(self, rng, chart5):
        for _ in range(20):
            da = rng.randint(1, 2)
            db = rng.randint(1, 2)
            a = rand_form(rng, chart5, da)
            b = rand_form(rng, chart5, db)
            sign = (-1) ** (da * db)
            lhs = fm.wedge(a, b)
            rhs = fm.wedge(b, a) * sx.num(sign)
            assert lhs == rhs

    def test_associativity_random(self, rng, chart5):
        for _ in range(15):
            a = rand_form(rng, chart5, 1)
            b = rand_form(rng, chart5, 1)
            c = rand_form(rng, chart5, 1)
            assert fm.wedge(fm.wedge(a, b), c) == fm.wedge(a, fm.wedge(b, c))

    def test_chart_mismatch(self, chart5):
        other = fm.Chart(["u", "v"])
        with pytest.raises(ChartMismatchError):
            fm.wedge(fm.d_coord(chart5, "x1"), fm.d_coord(other, "u"))


class TestExteriorDerivative:
    def test_basic(self, chart5):
        f = fm.DiffForm(chart5, 1, {(chart5.index("z1"),): sx.var("x1")})
        got = fm.ext_d(f)
        assert got == fm.DiffForm(
            chart5, 2, {(chart5.index("x1"), chart5.index("z1")): sx.ONE}
        )

    def test_dd_zero_on_functions(self, rng, chart5):
        for _ in range(50):
            f = rand_poly(rng, list(chart5.coords), degree=3)
            df = fm.ext_d(fm.DiffForm(chart5, 0, {(): f}))
            assert fm.ext_d(df).is_zero_form()

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_dd_zero_on_random_forms(self, n):
        rng = random.Random(100 + n)
        chart = fm.Chart([f"c{i}" for i in range(n)])
        for degree in range(0, n):
            for _ in range(max(100 // n, 10)):
                a = rand_form(rng, chart, degree)
                assert fm.ext_d(fm.ext_d(a)).is_zero_form()

    def test_leibniz(self, rng, chart5):
        for _ in range(15):
            a = rand_form(rng, chart5, 1)
            b = rand_form(rng, chart5, 1)
            lhs = fm.ext_d(fm.wedge(a, b))
            rhs = fm.wedge(fm.ext_d(a), b) - fm.wedge(a, fm.ext_d(b))
            assert lhs == rhs


class TestInterior:
    def test_basic(self, chart5):
        dz12 = fm.wedge(fm.d_coord(chart5, "z1"), fm.d_coord(chart5, "z2"))
        got = fm.interior(fm.coord_field(chart5, "z1"), dz12)
        assert got == fm.d_coord(chart5, "z2")

    def test_nilpotent_and_antiderivation(self, rng, chart5):
        for _ in range(100):
            X = rand_field(rng, chart5)
            a = rand_form(rng, chart5, rng.randint(1, 2))
            b = rand_form(rng, chart5, rng.randint(1, 2))
            assert fm.interior(X, fm.interior(X, fm.wedge(a, b))).is_zero_form()
            lhs = fm.interior(X, fm.wedge(a, b))
            sign = (-1) ** a.degree
            rhs = fm.wedge(fm.interior(X, a), b) + fm.wedge(a, fm.interior(X, b)) * sx.num(sign)
            assert lhs == rhs

    def test_normal_form_duality(self, chart5):
        # contraction of the fiber frame with normal-form factors is the
        # Kronecker delta
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart5, f"z{a}")
            for j in (1, 2):
                alpha = alpha + fm.d_coord(chart5, f"x{j}") * B(chart5, f"B{a}{j}")
            alphas.append(alpha)
        for a in (1, 2, 3):
            V = fm.coord_field(chart5, f"z{a}")
            for j, alpha in enumerate(alphas, start=1):
                got = fm.interior(V, alpha).terms.get((), sx.ZERO)
                assert got == (sx.ONE if j == a else sx.ZERO)

    def test_example1_psi1_display(self, chart5):
        # contraction of eta with the first fiber frame field, as printed
        Bt = {(a, j): B(chart5, f"B{a}{j}") for a in (1, 2, 3) for j in (1, 2)}
        alphas = [
            fm.d_coord(chart5, f"z{a}")
            + fm.d_coord(chart5, "x1") * Bt[(a, 1)]
            + fm.d_coord(chart5, "x2") * Bt[(a, 2)]
            for a in (1, 2, 3)
        ]
        eta = fm.wedge_all(alphas)
        psi1 = fm.interior(fm.coord_field(chart5, "z1"), eta)
        ix = chart5.index
        want = fm.DiffForm(
            chart5,
            2,
            {
                (ix("z2"), ix("z3")): sx.ONE,
                (ix("x1"), ix("z2")): sx.canon(-Bt[(3, 1)]),
                (ix("x2"), ix("z2")): sx.canon(-Bt[(3, 2)]),
                (ix("x1"), ix("z3")): Bt[(2, 1)],
                (ix("x2"), ix("z3")): Bt[(2, 2)],
                (ix("x1"), ix("x2")): sx.canon(
                    Bt[(2, 1)] * Bt[(3, 2)] - Bt[(2, 2)] * Bt[(3, 1)]
                ),
            },
        )
        assert psi1 == want


class TestPullback:
    def test_definition(self, chart5):
        x1, x2 = sx.var("x1"), sx.var("x2")
        phi = fm.SectionMap(chart5, {"z1": x1 * x2, "z2": sx.ZERO, "z3": x2**2})
        got = fm.pullback(phi, fm.d_coord(chart5, "z1"))
        base = chart5.base_only()
        assert got == fm.one_form(base, {"x1": x2, "x2": x1})

    def test_normal_form_factor_pullback(self, chart5):
        # section pullback of a normal-form factor collects the slopes
        x1, x2 = sx.var("x1"), sx.var("x2")
        B11 = rand_poly(random.Random(5), ["x1", "x2", "z1"], degree=1)
        alpha = fm.d_coord(chart5, "z1") + fm.d_coord(chart5, "x1") * B11
        phi = fm.SectionMap(chart5, {"z1": x1**2, "z2": sx.ZERO, "z3": sx.ZERO})
        got = fm.pullback(phi, alpha)
        coeff_x1 = got.terms[(0,)]
        want = sx.canon(sx.subst(B11, {"z1": x1**2}) + 2 * x1)
        assert sx.canon(coeff_x1 - want).is_const_zero()

    def test_commutes_with_d(self, rng, chart5):
        x1, x2 = sx.var("x1"), sx.var("x2")
        for _ in range(50):
            phi = fm.SectionMap(
                chart5,
                {
                    "z1": rand_poly(rng, ["x1", "x2"], degree=2),
                    "z2": rand_poly(rng, ["x1", "x2"], degree=2),
                    "z3": rand_poly(rng, ["x1", "x2"], degree=2),
                },
            )
            a = rand_form(rng, chart5, 1)
            lhs = fm.pullback(phi, fm.ext_d(a))
            rhs = fm.ext_d(fm.pullback(phi, a))
            assert lhs == rhs

    def test_commutes_with_wedge(self, rng, chart5):
        phi = fm.SectionMap(
            chart5,
            {"z1": sx.var("x1"), "z2": sx.var("x2"), "z3": sx.var("x1") * sx.var("x2")},
        )
        for _ in range(20):
            a = rand_form(rng, chart5, 1)
            b = rand_form(rng, chart5, 1)
            assert fm.pullback(phi, fm.wedge(a, b)) == fm.wedge(
                fm.pullback(phi, a), fm.pullback(phi, b)
            )

    def test_vanishing_pullback_keeps_the_degree(self, chart5):
        # a 3-form on a 2-dimensional base, and a wedge chain that cancels
        # (z1 = x1^2 sends dz1 to 2*x1 dx1), both pull back to the zero
        # form of the source degree
        x1, x2 = sx.var("x1"), sx.var("x2")
        phi = fm.SectionMap(chart5, {"z1": x1**2, "z2": x2, "z3": sx.ZERO})
        base = chart5.base_only()
        dx1, dz1, dz2 = (fm.d_coord(chart5, n) for n in ("x1", "z1", "z2"))
        top = fm.wedge(fm.wedge(dx1, dz1), dz2) * (x2 + 1)
        assert fm.pullback(phi, top) == fm.zero_form(base, 3)
        assert fm.pullback(phi, fm.wedge(dx1, dz1) * x2) == fm.zero_form(base, 2)

    def test_section_rejects_fiber_variables(self, chart5):
        with pytest.raises(ValueError):
            fm.SectionMap(chart5, {"z1": sx.var("z2"), "z2": sx.ZERO, "z3": sx.ZERO})


class TestAccumulation:
    def test_sum_keeps_canonical_coefficients_whole(self, chart5, monkeypatch):
        # a running sum of forms reads each canonical coefficient through its
        # cached payload instead of expanding the sum so far term by term
        x1 = sx.var("x1")
        pieces = [fm.DiffForm(chart5, 1, {(0,): x1**n}) for n in range(1, 201)]
        calls = 0
        to_rat = sx._to_rat

        def counting(e):
            nonlocal calls
            calls += 1
            return to_rat(e)

        monkeypatch.setattr(sx, "_to_rat", counting)
        acc = fm.zero_form(chart5, 1)
        for piece in pieces:
            acc = acc + piece
        assert len(acc.terms[(0,)].args) == len(pieces)
        assert calls <= 10 * len(pieces)


    def test_identities_build_no_coefficient_trees(self, rng, chart6w, monkeypatch):
        # forms work reads canonical coefficients through their payloads:
        # d∘d, the interior antiderivation rule and pullback-commutes-with-d
        # on 6 coordinates build no expression tree until one is printed
        builds = 0
        build_tree = sx._build_tree

        def counting(e):
            nonlocal builds
            builds += 1
            return build_tree(e)

        monkeypatch.setattr(sx, "_build_tree", counting)
        a, b = rand_form(rng, chart6w, 1, coeff_terms=3), rand_form(rng, chart6w, 2)
        X = rand_field(rng, chart6w)
        da = fm.ext_d(a)
        assert fm.ext_d(da).is_zero_form() and not da.is_zero_form()
        lhs = fm.interior(X, fm.wedge(a, b))
        rhs = fm.wedge(fm.interior(X, a), b) - fm.wedge(a, fm.interior(X, b))
        assert lhs == rhs and not lhs.is_zero_form()
        base = ["x1", "x2"]
        phi = fm.SectionMap(chart6w, {n: rand_poly(rng, base) for n in chart6w.fiber})
        pulled = fm.pullback(phi, fm.ext_d(a))
        assert pulled == fm.ext_d(fm.pullback(phi, a)) and not pulled.is_zero_form()
        assert builds == 0
        str(next(iter(lhs.terms.values())))
        assert builds > 0


class TestLie:
    def test_coordinate_fields_commute(self, chart5):
        got = fm.lie_bracket(fm.coord_field(chart5, "x1"), fm.coord_field(chart5, "x2"))
        assert got.is_zero_field()

    def test_constant_coefficients_commute(self, chart5):
        Y1 = fm.VecField(chart5, [sx.ONE, sx.ZERO, sx.num(2), sx.num(-1), sx.num(3)])
        Y2 = fm.VecField(chart5, [sx.ZERO, sx.ONE, sx.num(5), sx.num(7), sx.ZERO])
        assert fm.lie_bracket(Y1, Y2).is_zero_field()

    def test_jacobi_identity(self, rng, chart5):
        for _ in range(10):
            X = rand_field(rng, chart5)
            Y = rand_field(rng, chart5)
            Z = rand_field(rng, chart5)
            acc = fm.lie_bracket(X, fm.lie_bracket(Y, Z))
            acc = acc + fm.lie_bracket(Y, fm.lie_bracket(Z, X))
            acc = acc + fm.lie_bracket(Z, fm.lie_bracket(X, Y))
            assert acc.is_zero_field()

    def test_lie_derivative(self, chart5):
        assert fm.lie_derivative(fm.coord_field(chart5, "x1"), sx.var("x1") ** 2) == sx.canon(
            2 * sx.var("x1")
        )

    def test_lie_derivative_of_fiber_coordinate(self, chart5):
        # base-only field kills a fiber coordinate
        Y = fm.VecField(chart5, [sx.var("x2"), sx.var("x1"), sx.ZERO, sx.ZERO, sx.ZERO])
        assert fm.lie_derivative(Y, sx.var("z1")).is_const_zero()


class TestHodge:
    def test_r3_basis(self):
        e3 = fm.Chart(["x1", "x2", "x3"])
        got = fm.hodge_star(fm.d_coord(e3, "x1"))
        assert got == fm.wedge(fm.d_coord(e3, "x2"), fm.d_coord(e3, "x3"))

    def test_star_of_one_is_volume(self):
        e3 = fm.Chart(["x1", "x2", "x3"])
        one = fm.DiffForm(e3, 0, {(): sx.ONE})
        assert fm.hodge_star(one) == fm.volume_form(e3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_double_star_sign(self, n):
        import itertools

        chart = fm.Chart([f"c{i}" for i in range(n)])
        for k in range(n + 1):
            sign = (-1) ** (k * (n - k))
            for idx in itertools.combinations(range(n), k):
                a = fm.DiffForm(chart, k, {idx: sx.ONE})
                assert fm.hodge_star(fm.hodge_star(a)) == a * sx.num(sign)

    def test_dual_one_form(self):
        e3 = fm.Chart(["t", "z", "w"])
        f = sx.var("z")
        X = fm.VecField(e3, [sx.ONE, f, sx.ZERO])
        assert fm.dual_one_form(X) == fm.one_form(e3, {"t": sx.ONE, "z": f})
        zero = fm.VecField(e3, [sx.ZERO] * 3)
        assert fm.dual_one_form(zero).is_zero_form()
