import itertools
import random

import pytest

from cartanvp import forms as fm
from cartanvp import ideals as ids
from cartanvp import liouville as lv
from cartanvp import symexpr as sx
from cartanvp.errors import ChartMismatchError, DivisionByZeroError
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
        assert calls == 0

    def test_calculus_folds_payloads(self, rng, chart5, monkeypatch):
        # on canonical inputs, quotients included, wedge, interior, d and the
        # Lie bracket canonicalize no raw tree: they fold payloads
        x1, z1 = sx.var("x1"), sx.var("z1")
        a = rand_form(rng, chart5, 1, coeff_terms=3) + fm.d_coord(chart5, "z2") * (x1 / (z1 + 2))
        b = rand_form(rng, chart5, 2) + fm.wedge(fm.d_coord(chart5, "x1"), fm.d_coord(chart5, "z3")) * (
            1 / (x1 - 3)
        )
        X = rand_field(rng, chart5) + fm.coord_field(chart5, "z1") * (z1 / (x1 + 1))
        Y = rand_field(rng, chart5)
        raw = []
        to_rat = sx._to_rat

        def counting(e):
            if e._canon is None:
                raw.append(e)
            return to_rat(e)

        monkeypatch.setattr(sx, "_to_rat", counting)
        results = [fm.wedge(a, b), fm.interior(X, b), fm.ext_d(a), fm.ext_d(b), fm.lie_bracket(X, Y)]
        assert raw == []
        assert not any(r.is_zero_form() if isinstance(r, fm.DiffForm) else r.is_zero_field() for r in results)


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
        assert _lie_derivative(fm.coord_field(chart5, "x1"), sx.var("x1") ** 2) == sx.canon(
            2 * sx.var("x1")
        )

    def test_lie_derivative_of_fiber_coordinate(self, chart5):
        # base-only field kills a fiber coordinate
        Y = fm.VecField(chart5, [sx.var("x2"), sx.var("x1"), sx.ZERO, sx.ZERO, sx.ZERO])
        assert _lie_derivative(Y, sx.var("z1")).is_const_zero()


class TestComputedResults:
    """The calculus builds its results without the validating
    constructors: each must equal `DiffForm(...)` or `VecField(...)` of the
    same terms, and d and the bracket, which differentiate payloads, must
    equal the raw sums over every coordinate."""

    def test_equal_to_validated_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        chart = fm.Chart(["x", "y", "z", "w"])
        x, y, z = sx.variables("x y z")
        pool = [sx.ZERO, sx.ONE, sx.num(-2), x, y * z, x * x - y, 1 / (x + 2), y / (z - 3) + x]
        pool += [sx.func("B", x, y), sx.sin(z) * x, sx.ln(y * y + 1), sx.func("C", x / (y + 1)) * z]
        coeffs = st.sampled_from([sx.canon(c) for c in pool])

        def forms(degree):
            indices = st.sampled_from(list(itertools.combinations(range(4), degree)))
            return st.dictionaries(indices, coeffs, max_size=4).map(lambda t: fm.DiffForm(chart, degree, t))

        fields = st.lists(coeffs, min_size=4, max_size=4).map(lambda c: fm.VecField(chart, c))

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(forms(1), forms(2), fields, fields, coeffs)
        def check(a, b, X, Y, s):
            computed = [fm.wedge(a, b), fm.interior(X, b), fm.ext_d(a), fm.ext_d(b), fm.hodge_star(b)]
            computed += [a + a, a - a, b * s, -b, fm.wedge(a, a)]
            for r in computed:
                want = fm.DiffForm(r.chart, r.degree, r.terms)
                assert r == want and list(r.terms) == list(want.terms)
                assert all(c._canon is c for c in r.terms.values())
            for f in (a, b):
                _same_form(fm.ext_d(f), _raw_ext_d(f))
            for V in (fm.lie_bracket(X, Y), X + Y, X - Y, X * s):
                assert V == fm.VecField(V.chart, V.components)
                assert all(c._canon is c for c in V.components)
            _same_field(fm.lie_bracket(X, Y), _raw_lie_bracket(X, Y))

        check()

    def test_zero_sums_are_dropped(self):
        chart = fm.Chart(["x", "y"])
        r = sx.canon(sx.var("x") / (sx.var("y") + 1))._rat
        got = fm._collect(chart, 1, [((0,), r), ((1,), sx._RAT_ZERO), ((0,), sx._rat_neg(r)), ((1,), r)])
        assert got.terms == {(1,): sx._rat_to_expr(r)}
        assert got == fm.DiffForm(chart, 1, {(0,): sx.ZERO, (1,): sx._rat_to_expr(r)})

    def test_underivable_atom_raises_as_diff_does(self):
        # ln(x - x) is ln(0), an atom of no variable whose derivative, 1/0
        # times zero, cannot be formed: d and the bracket raise as diff does
        chart = fm.Chart(["x", "y"])
        c = sx.canon(sx.parse("ln(x - x)"))
        with pytest.raises(DivisionByZeroError):
            sx.diff(c, "y")
        with pytest.raises(DivisionByZeroError):
            fm.ext_d(fm.DiffForm(chart, 0, {(): c}))
        with pytest.raises(DivisionByZeroError):
            fm.lie_bracket(fm.coord_field(chart, "y"), fm.VecField(chart, [c, sx.ZERO]))
        # a coefficient at every index is differentiated by no coordinate
        assert fm.ext_d(fm.DiffForm(chart, 2, {(0, 1): c})).is_zero_form()


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


# ---------------------------------------------------------------------------
# the raw-tree calculus: each operation as one raw Expr sum per index,
# canonicalized once; the payload fold must give the same bytes


def _raw_collect(chart, degree, contributions):
    acc = {}
    for K, c in contributions:
        acc[K] = acc[K] + c if K in acc else c
    return fm.DiffForm(chart, degree, acc)


def _raw_wedge(a, b):
    contributions = []
    for I, ca in a.terms.items():
        for J, cb in b.terms.items():
            m = fm._merge_indices(I, J)
            if m is not None:
                contributions.append((m[1], ca * cb * sx.num(m[0])))
    return _raw_collect(a.chart, a.degree + b.degree, contributions)


def _raw_ext_d(a):
    contributions = []
    for I, c in a.terms.items():
        for i, name in enumerate(a.chart.coords):
            dc = sx.diff(c, name)
            m = fm._merge_indices((i,), I)
            if m is not None and not dc.is_const_zero():
                contributions.append((m[1], dc * sx.num(m[0])))
    return _raw_collect(a.chart, a.degree + 1, contributions)


def _raw_interior(X, a):
    contributions = []
    for I, c in a.terms.items():
        for pos, i in enumerate(I):
            comp = X.components[i]
            if not comp.is_const_zero():
                K = I[:pos] + I[pos + 1 :]
                contributions.append((K, comp * c * sx.num(-1 if pos % 2 else 1)))
    return _raw_collect(a.chart, a.degree - 1, contributions)


def _raw_hodge_star(a):
    n = a.chart.dim
    contributions = []
    for I, c in a.terms.items():
        comp = tuple(i for i in range(n) if i not in I)
        contributions.append((comp, c * sx.num(fm._perm_sign(I + comp))))
    return _raw_collect(a.chart, n - a.degree, contributions)


def _raw_pullback_with(a, target, diff_map, coeff_sub):
    contributions = []
    for I, c in a.terms.items():
        cc = sx.subst(c, coeff_sub) if coeff_sub else c
        piece = fm.DiffForm(target, 0, {(): cc})
        for i in I:
            piece = _raw_wedge(piece, diff_map[i])
        contributions.extend(piece.terms.items())
    return _raw_collect(target, a.degree, contributions)


def _raw_lie_bracket(X, Y):
    comps = []
    for i in range(X.chart.dim):
        acc = sx.ZERO
        for j, cj in enumerate(X.chart.coords):
            acc = acc + X.components[j] * sx.diff(Y.components[i], cj)
            acc = acc - Y.components[j] * sx.diff(X.components[i], cj)
        comps.append(acc)
    return fm.VecField(X.chart, comps)


def _lie_derivative(X, f):
    """Derivative of a scalar along a field through the form calculus:
    X(f) = iota_X df."""
    df = fm.ext_d(fm.DiffForm(X.chart, 0, {(): f}))
    return fm.interior(X, df).terms.get((), sx.ZERO)


def _raw_lie_derivative(X, f):
    acc = sx.ZERO
    for name, comp in zip(X.chart.coords, X.components):
        acc = acc + comp * sx.diff(f, name)
    return sx.canon(acc)


# reference loops for `ids.contraction_matrix`, `lv.homotopy_antiderivative`
# and `lv._lift`, written out by index and sign


def _raw_contraction_matrix(eta):
    n = eta.chart.dim
    rows = sorted({J[:pos] + J[pos + 1 :] for J in eta.terms for pos in range(len(J))})
    mat = []
    for K in rows:
        row = [sx.ZERO] * n
        for i in range(n):
            J = tuple(sorted(K + (i,)))
            if i not in K and J in eta.terms:
                row[i] = sx.canon(eta.terms[J] * sx.num(-1 if J.index(i) % 2 else 1))
        mat.append(row)
    return rows, mat


def _raw_homotopy(beta):
    # one contribution per monomial and removed position: x^i m / (q + deg m)
    q = beta.degree
    contributions = []
    for I, c in beta.terms.items():
        for coeff, mono in sx.poly_terms(c):
            term = sx.num(coeff / (q + sum(e for _, e in mono)))
            for atom, e in mono:
                term = term * atom**e
            for pos, i in enumerate(I):
                x = sx.var(beta.chart.coords[i])
                contributions.append((I[:pos] + I[pos + 1 :], x * term * sx.num(-1 if pos % 2 else 1)))
    return _raw_collect(beta.chart, q - 1, contributions)


def _raw_lift(form, ext):
    # re-indexing without a sign: right for a monotone shift only
    shift = {i: ext.index(name) for i, name in enumerate(form.chart.coords)}
    return fm.DiffForm(ext, form.degree, {tuple(sorted(shift[i] for i in I)): c for I, c in form.terms.items()})


def _same_bytes(got, want):
    assert got._canon is got
    assert got._rat.num == want._rat.num and got._rat.den == want._rat.den
    assert str(got) == str(want)


def _same_form(got, want):
    assert got.degree == want.degree and got.terms.keys() == want.terms.keys()
    for K, c in want.terms.items():
        _same_bytes(got.terms[K], c)


def _same_field(got, want):
    for g, w in zip(got.components, want.components):
        _same_bytes(g, w)


class TestRawSumOracle:
    """Quotients over distinct denominators, where the order of a sum can
    change its canonical quotient (it does when a denominator comes back
    after another): every payload operation equals the canonical form of
    the raw sum it stands for."""

    @pytest.fixture(scope="class")
    def q(self):
        from test_symexpr import _canon_corpus

        corpus = _canon_corpus()
        # p*(C + q)^-k + r/y: one denominator per entry, none shared
        return [sx.canon(corpus[i]) for i in range(3, 60, 5)]

    @pytest.fixture(scope="class")
    def chart(self):
        return fm.Chart(["x", "y", "z", "w"])

    def test_denominators_are_distinct(self, q):
        dens = [str(sx.numer_denom(v)[1]) for v in q]
        assert len(set(dens)) == len(dens) and "1" not in dens

    def _forms(self, q, chart):
        x, y = sx.var("x"), sx.var("y")
        # A = den q[0] and B = den q[4] alternate within one index's sum
        a = fm.one_form(chart, {"x": q[0], "y": q[4], "z": q[0] + x, "w": q[4] * y})
        b = fm.one_form(chart, {"x": q[1], "y": q[5], "z": q[6], "w": q[7]})
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        coeffs = [q[0], q[0] * y, sx.ONE, q[4], q[0] + x, q[8]]
        c = fm.DiffForm(chart, 2, dict(zip(pairs, coeffs)))
        return a, b, c

    def test_form_operations(self, q, chart):
        a, b, c = self._forms(q, chart)
        X = fm.VecField(chart, [sx.ONE, q[4], sx.var("x"), sx.ONE])
        _same_form(fm.wedge(a, b), _raw_wedge(a, b))
        _same_form(fm.wedge(a, c), _raw_wedge(a, c))
        for f in (a, c):
            _same_form(fm.ext_d(f), _raw_ext_d(f))
            _same_form(fm.interior(X, f), _raw_interior(X, f))
            _same_form(fm.hodge_star(f), _raw_hodge_star(f))
        ab = fm.wedge(a, b)
        _same_form(ab + c, _raw_collect(chart, 2, [*ab.terms.items(), *c.terms.items()]))
        neg = [(K, v * sx.num(-1)) for K, v in c.terms.items()]
        _same_form(ab - c, _raw_collect(chart, 2, [*ab.terms.items(), *neg]))
        for s in (q[2], sx.num(-3), 2, sx.var("y") + 1):
            scaled = {K: v * (s if isinstance(s, sx.Expr) else sx.num(s)) for K, v in c.terms.items()}
            _same_form(c * s, fm.DiffForm(chart, 2, scaled))

    def test_pullback_with(self, q, chart):
        target = fm.Chart(["x", "y"])
        x, y = sx.var("x"), sx.var("y")
        diff_map = {
            0: fm.d_coord(target, "x"),
            1: fm.one_form(target, {"x": sx.ONE, "y": sx.ONE}),
            2: fm.one_form(target, {"x": x, "y": 1 / (x + 2)}),
            3: fm.one_form(target, {"y": y / (x - 3)}),
        }
        sub = {"z": x / (y - 1), "w": y}
        a, _, c = self._forms(q, chart)
        for f in (a, c):
            for coeff_sub in (sub, {}):
                got = fm.pullback_with(f, target, diff_map, coeff_sub)
                _same_form(got, _raw_pullback_with(f, target, diff_map, coeff_sub))

    def test_fields(self, q, chart):
        x = sx.var("x")
        X = fm.VecField(chart, [q[0], sx.ONE, sx.ZERO, sx.ZERO])
        Y = fm.VecField(chart, [q[4], q[0] + x, sx.ZERO, sx.ZERO])
        _same_field(fm.lie_bracket(X, Y), _raw_lie_bracket(X, Y))
        X = fm.VecField(chart, [q[0], q[1], sx.ZERO, q[0] * x])
        Y = fm.VecField(chart, [q[4], sx.ONE, q[6], q[7]])
        for f in (q[8], x / (sx.var("y") + sx.var("w"))):
            _same_bytes(_lie_derivative(X, f), _raw_lie_derivative(X, f))
        pairs = list(zip(X.components, Y.components))
        _same_field(X + Y, fm.VecField(chart, [u + v for u, v in pairs]))
        _same_field(X - Y, fm.VecField(chart, [u - v for u, v in pairs]))
        _same_field(X * q[9], fm.VecField(chart, [u * q[9] for u in X.components]))

    def test_merge_indices_is_the_sorting_sign(self):
        tuples = [t for k in range(4) for t in itertools.combinations(range(6), k)]
        for I in tuples:
            for J in tuples:
                want = None if set(I) & set(J) else (fm._perm_sign(I + J), tuple(sorted(I + J)))
                assert fm._merge_indices(I, J) == want

    def test_contraction_matrix(self, q, chart, rng):
        a, b, c = self._forms(q, chart)
        seeded = [rand_form(rng, chart, d) for d in (1, 2, 3)]
        for eta in (a, c, fm.wedge(a, b), fm.wedge(a, c), *seeded):
            rows, mat = ids.contraction_matrix(eta)
            want_rows, want = _raw_contraction_matrix(eta)
            assert rows == want_rows
            for got_row, want_row in zip(mat, want, strict=True):
                for g, w in zip(got_row, want_row, strict=True):
                    _same_bytes(g, w)

    def test_homotopy(self, chart, rng):
        for d in (0, 1, 2, 3):
            beta = fm.ext_d(rand_form(rng, chart, d, coeff_terms=3))
            assert not beta.is_zero_form()
            _same_form(lv.homotopy_antiderivative(beta), _raw_homotopy(beta))

    def test_lift(self, q, chart, rng):
        ext = fm.BundleChart(["t", "x", "y"], ["z", "w"])
        a, b, c = self._forms(q, chart)
        for f in (a, c, fm.wedge(a, c), rand_form(rng, chart, 3)):
            _same_form(lv._lift(f, ext), _raw_lift(f, ext))
        # where the shift is not monotone the pullback carries the sign
        swapped = fm.BundleChart(["t", "y", "x"], ["z", "w"])
        dxdy = fm.wedge(fm.d_coord(chart, "x"), fm.d_coord(chart, "y"))
        assert lv._lift(dxdy, swapped) == -_raw_lift(dxdy, swapped)

    def test_spec_sums_its_parse_trees(self, chart):
        # a repeated index splices both parse trees into one sum; folding
        # their two canonical forms instead would give another quotient
        first, second = "x/(y + 2) + z/(x + 1)", "w/(x + 1) + y/(y + 2)"
        spec = [{"coeff": first, "index": ["x", "y"]}, {"coeff": second, "index": ["x", "y"]}]
        got = fm.form_from_spec(chart, spec).terms[(0, 1)]
        _same_bytes(got, sx.canon(sx.parse(first) + sx.parse(second)))
        folded = sx._rat_add(sx.canon(sx.parse(first))._rat, sx.canon(sx.parse(second))._rat)
        assert str(sx._rat_to_expr(folded)) != str(got)
        # the other order of the index puts the sign on the second tree
        spec[1]["index"] = ["y", "x"]
        got = fm.form_from_spec(chart, spec).terms[(0, 1)]
        _same_bytes(got, sx.canon(sx.parse(first) - sx.parse(second)))
