import itertools
import json
import random
import sys
from fractions import Fraction
from typing import Optional
from unittest import mock

import numpy as np
import pytest

from cartanvp import fixtures as fx
from cartanvp import forms as fm
from cartanvp import ideals as ids
from cartanvp import linalg as la
from cartanvp import specio
from cartanvp import symexpr as sx
from cartanvp import varprin as vp
from cartanvp.errors import (
    ChartMismatchError,
    NonConstantRankError,
    UndecidedPivotError,
    UnequalGeneratorDegreesError,
)
from conftest import analyze_shapes, gen_analyze, output_digest, rand_poly


def opaque(chart, name):
    return sx.func(name, *[sx.var(c) for c in chart.coords])


def example1_eta(chart, constant=False):
    alphas = []
    for a in (1, 2, 3):
        alpha = fm.d_coord(chart, f"z{a}")
        for j in (1, 2):
            coeff = sx.func(f"B{a}{j}") if constant else opaque(chart, f"B{a}{j}")
            alpha = alpha + fm.d_coord(chart, f"x{j}") * coeff
        alphas.append(alpha)
    return fm.wedge_all(alphas)


def example1_closed_alphas(chart):
    """Example 1 factors with polynomial coefficients that satisfy the
    closure condition."""
    x1, x2 = sx.var("x1"), sx.var("x2")
    alphas = []
    for a in (1, 2, 3):
        B1, B2 = x2 * a, x1 * a  # Y1(B2) = Y2(B1) termwise
        alphas.append(
            fm.d_coord(chart, f"z{a}") + fm.d_coord(chart, "x1") * B1 + fm.d_coord(chart, "x2") * B2
        )
    return alphas


class TestAnnihilator:
    def test_plane_form_in_r3(self):
        chart = fm.Chart(["x1", "x2", "x3"])
        eta = fm.wedge(fm.d_coord(chart, "x1"), fm.d_coord(chart, "x2"))
        D = ids.characteristic_distribution((eta,))
        assert D.rank == 1
        assert ids.span_equal(list(D.basis), [fm.coord_field(chart, "x3")])

    def test_example1_generators(self, chart5):
        eta = example1_eta(chart5)
        D = ids.characteristic_distribution((eta,))
        assert D.rank == 2
        Bs = {(a, j): opaque(chart5, f"B{a}{j}") for a in (1, 2, 3) for j in (1, 2)}
        want = []
        for j in (1, 2):
            comps = [sx.ZERO] * 5
            comps[chart5.index(f"x{j}")] = sx.ONE
            for a in (1, 2, 3):
                comps[chart5.index(f"z{a}")] = sx.canon(-Bs[(a, j)])
            want.append(fm.VecField(chart5, comps))
        assert ids.span_equal(list(D.basis), want)
        # and in this normal form the engine reproduces the display exactly
        assert list(D.basis) == want

    def test_example2_generators(self):
        chart = fm.BundleChart(["x1", "x2", "x3"], ["z1", "z2", "z3"])
        Bs = {(a, k): opaque(chart, f"B{a}{k}") for a in (1, 2, 3) for k in (1, 2, 3)}
        Cs = {k: opaque(chart, f"C{k}") for k in (1, 2, 3)}
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart, f"z{a}")
            for k in (1, 2, 3):
                alpha = alpha + fm.d_coord(chart, f"x{k}") * Bs[(a, k)]
            alphas.append(alpha)
        alpha4 = fm.zero_form(chart, 1)
        for k in (1, 2, 3):
            alpha4 = alpha4 + fm.d_coord(chart, f"x{k}") * Cs[k]
        eta = fm.wedge_all(alphas + [alpha4])
        D = ids.characteristic_distribution((eta,))
        assert D.rank == 2
        want = []
        for pair in ((1, 3), (2, 3)):
            i, j = pair
            comps = [sx.ZERO] * 6
            comps[chart.index(f"x{i}")] = Cs[j]
            comps[chart.index(f"x{j}")] = sx.canon(-Cs[i])
            for a in (1, 2, 3):
                comps[chart.index(f"z{a}")] = sx.canon(Bs[(a, j)] * Cs[i] - Bs[(a, i)] * Cs[j])
            want.append(fm.VecField(chart, comps))
        assert ids.span_equal(list(D.basis), want)


class TestCharacteristicDistribution:
    def test_agrees_with_annihilator_on_example1(self, chart5):
        eta = example1_eta(chart5)
        psis = tuple(fm.interior(fm.coord_field(chart5, f"z{a}"), eta) for a in (1, 2, 3))
        D1 = ids.characteristic_distribution(psis)
        D2 = ids.characteristic_distribution((eta,))
        assert D1.rank == D2.rank == 2
        assert ids.span_equal(list(D1.basis), list(D2.basis))

    def test_single_generator_in_r3(self):
        chart = fm.BundleChart(["x1"], ["z1", "z2"])
        g = fm.wedge(fm.d_coord(chart, "z1"), fm.d_coord(chart, "x1"))
        D = ids.characteristic_distribution((g,))
        assert D.rank == 1
        assert ids.span_equal(list(D.basis), [fm.coord_field(chart, "z2")])
        # oracle: pointwise numeric nullspace at 20 samples
        rows, mat = ids.contraction_matrix(g)
        rng = random.Random(1)
        points = [tuple(rng.uniform(-1, 1) for _ in chart.coords) for _ in range(20)]
        stack, failures = la.sample_stack(mat, chart.coords, points)
        assert not failures and len(stack) == 20
        null_dims = stack.shape[2] - la.numeric_ranks(stack)
        assert null_dims.tolist() == [1] * 20

    def test_zero_locus_generator_raises(self):
        chart = fm.BundleChart(["x1", "x2"], ["z1"])
        g = fm.wedge(fm.d_coord(chart, "z1"), fm.d_coord(chart, "x2")) * sx.var("x1")
        with pytest.raises(NonConstantRankError) as err:
            ids.characteristic_distribution((g,))
        assert err.value.witnesses
        # the box center sits on the degeneracy locus x1 = 0
        assert any(abs(w.get("x1", 1.0)) < 1e-12 for w in err.value.witnesses)

    def test_unequal_degrees_rejected(self, chart5):
        g1 = fm.d_coord(chart5, "z1")
        g2 = fm.wedge(fm.d_coord(chart5, "z1"), fm.d_coord(chart5, "z2"))
        with pytest.raises(UnequalGeneratorDegreesError):
            ids.characteristic_distribution((g1, g2))

    def test_chart_mismatch_rejected(self, chart5):
        other = fm.BundleChart(["x1", "x2"], ["z1", "z2", "w"])
        g1 = fm.wedge(fm.d_coord(chart5, "z1"), fm.d_coord(chart5, "x1"))
        g2 = fm.wedge(fm.d_coord(other, "z1"), fm.d_coord(other, "x1"))
        with pytest.raises(ChartMismatchError):
            ids.characteristic_distribution((g1, g2))


    def test_zero_forms_rejected(self, chart5):
        with pytest.raises(ValueError, match="zero forms"):
            ids.characteristic_distribution((fm.zero_form(chart5, 2), fm.zero_form(chart5, 2)))


def _interior_contraction_matrix(eta):
    """The reference: column i is the contraction of eta with d/dx^i by
    `forms.interior`, rows the (deg-1)-indices the columns reach."""
    chart = eta.chart
    cols = [fm.interior(fm.coord_field(chart, name), eta).terms for name in chart.coords]
    rows = sorted(set().union(*cols))
    return rows, [[col.get(K, sx.ZERO) for col in cols] for K in rows]


class TestContractionMatrix:
    def test_matches_interior_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def forms(draw):
            n = draw(st.integers(1, 5))
            chart = fm.Chart([f"x{i + 1}" for i in range(n)])
            coords = [sx.var(c) for c in chart.coords]
            small = st.integers(-3, 3).filter(bool)

            def coefficient():
                a, b = (coords[draw(st.integers(0, n - 1))] for _ in range(2))
                kind = draw(st.sampled_from(["constant", "polynomial", "opaque", "quotient"]))
                if kind == "constant":
                    return sx.num(draw(small))
                if kind == "polynomial":
                    return a * b * draw(small) + draw(small)
                if kind == "opaque":
                    return sx.func("F", *coords) * draw(small) + a
                return (a * draw(small) + sx.func("G", b)) / (b + draw(small))

            degree = draw(st.integers(1, n))
            indices = list(itertools.combinations(range(n), degree))
            picked = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=4, unique=True))
            return fm.DiffForm(chart, degree, {I: coefficient() for I in picked})

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(forms())
        def check(eta):
            rows, mat = ids.contraction_matrix(eta)
            want_rows, want = _interior_contraction_matrix(eta)
            assert rows == want_rows
            for got_row, want_row in zip(mat, want, strict=True):
                assert len(got_row) == len(want_row)
                for g, w in zip(got_row, want_row):
                    assert g == w

        check()


class TestFrobenius:
    def test_coordinate_distribution(self, chart5):
        D = ids.characteristic_distribution(
            (fm.wedge_all([fm.d_coord(chart5, n) for n in ("z1", "z2", "z3")]),)
        )
        assert ids.frobenius_check(D).verdict == "integrable"

    def test_scaling_field_pair(self):
        chart = fm.BundleChart(["x1", "x2"], ["z1"])
        Y1 = fm.VecField(chart, [sx.ONE, sx.ZERO, sx.var("z1")])
        Y2 = fm.coord_field(chart, "x2")
        cert = la.RankCertificate(2, 0, None, 0, [])
        D = ids.Distribution(chart, (Y1, Y2), 2, cert)
        assert ids.frobenius_check(D).verdict == "integrable"

    def test_example1_generic_vs_closed(self, chart5):
        # generic coefficients: the bracket leaves the span
        D = ids.characteristic_distribution((example1_eta(chart5),))
        res = ids.frobenius_check(D)
        assert res.verdict == "not_integrable"
        assert res.witness_pair == (0, 1) and res.witness_point is not None

        # polynomial coefficients satisfying the closure condition
        D2 = ids.characteristic_distribution((fm.wedge_all(example1_closed_alphas(chart5)),))
        assert ids.frobenius_check(D2).verdict == "integrable"

    def test_numeric_only_pair_leaves_later_pairs_symbolic(self):
        # [Y0, Y1] = -e d/dw with e = sin(x)^2 + cos(x)^2 - 1, zero but not
        # canonically so: numeric only; [Y0, Y2] = d/dw leaves the span
        chart = fm.Chart(["x", "y", "z", "w"])
        x, y = sx.var("x"), sx.var("y")
        e = sx.sin(x) ** 2 + sx.cos(x) ** 2 - 1
        basis = (
            fm.VecField(chart, [sx.ONE, sx.ZERO, sx.ZERO, y * e]),
            fm.coord_field(chart, "y"),
            fm.VecField(chart, [sx.ZERO, sx.ZERO, sx.ONE, x]),
        )
        cert = la.RankCertificate(3, 0, None, 0, [])
        res = ids.frobenius_check(ids.Distribution(chart, basis, 3, cert))
        assert res.verdict == "not_integrable"
        assert res.witness_pair == (0, 2)

    def test_witness_is_the_zero_tests(self, chart5, monkeypatch):
        # the witness point is the one `is_zero` labels for the first
        # residual column it certifies nonzero, so one point is formatted
        # per escaping pair; a constant residual has the empty witness,
        # and a pair whose residual is sin^2 + cos^2 - 1 is passed over
        calls = []
        point_label = sx.point_label

        def counting(symbols, values):
            calls.append(values)
            return point_label(symbols, values)

        monkeypatch.setattr(sx, "point_label", counting)
        D = ids.characteristic_distribution((example1_eta(chart5),))
        calls.clear()
        res = ids.frobenius_check(D)
        assert len(calls) == 1
        _, residual = ids._forced(D, fm.lie_bracket(*D.basis).components, range(5))
        c = next(c for c, r in enumerate(residual) if not r.is_const_zero())
        want = sx.is_zero(residual[c], box=D.certificate.box, seed=D.certificate.seed)
        assert res == ids.FrobeniusResult(
            "not_integrable", (0, 1), want.witness, f"bracket escapes the span in {chart5.coords[c]}"
        )
        calls.clear()
        chart = fm.Chart(["x", "y", "z", "w"])
        x, y = sx.var("x"), sx.var("y")
        e = sx.sin(x) ** 2 + sx.cos(x) ** 2 - 1
        basis = (
            fm.VecField(chart, [sx.ONE, sx.ZERO, sx.ZERO, y * e]),
            fm.coord_field(chart, "y"),
            fm.VecField(chart, [sx.ZERO, sx.ZERO, sx.ONE, x]),
        )
        cert = la.RankCertificate(3, 0, None, 0, [])
        res = ids.frobenius_check(ids.Distribution(chart, basis, 3, cert))
        assert res == ids.FrobeniusResult("not_integrable", (0, 2), {}, "bracket escapes the span in w")
        assert calls == []
        res = ids.frobenius_check(ids.Distribution(chart, basis[:2], 2, cert))
        assert res.verdict == "unknown" and res.witness_pair is None
        assert res.detail.startswith("bracket residual in w is canonically nonzero")

    def test_canonically_nonzero_residual_below_threshold(self):
        # [Y0, Y1] = 10^-12 d/dz is below 1e-9 everywhere, and exactly
        # outside the span: no witness point
        chart = fm.Chart(["x", "y", "z"])
        tiny = sx.num(Fraction(1, 10**12))
        basis = (fm.VecField(chart, [sx.ONE, sx.ZERO, tiny * sx.var("y")]), fm.coord_field(chart, "y"))
        cert = la.RankCertificate(2, 0, None, 0, [])
        res = ids.frobenius_check(ids.Distribution(chart, basis, 2, cert))
        assert res == ids.FrobeniusResult("not_integrable", (0, 1), {}, "bracket escapes the span in z")
        basis = (fm.VecField(chart, [sx.ONE, sx.ZERO, tiny * sx.var("y") ** 2]), fm.coord_field(chart, "y"))
        res = ids.frobenius_check(ids.Distribution(chart, basis, 2, cert))
        assert res == ids.FrobeniusResult("not_integrable", (0, 1), None, "bracket escapes the span in z")

    def test_pointwise_solve_oracle(self, chart5):
        # independent oracle for span membership: least squares at samples
        D = ids.characteristic_distribution((example1_eta(chart5),))
        Z = fm.lie_bracket(D.basis[0], D.basis[1])
        exprs = [e for Y in D.basis for e in Y.components] + list(Z.components)
        symbols, points = sx.sample_points(exprs, seed=99, count=20, center=True)
        points = list(points)
        A_at, A_failures = la.sample_stack([[Y.components[i] for Y in D.basis] for i in range(5)], symbols, points)
        b_at, b_failures = la.sample_stack([Z.components], symbols, points)
        assert not A_failures and not b_failures and len(A_at) == len(b_at) == 20
        worst = 0.0
        for A, b in zip(A_at, b_at[:, 0]):
            coef, *_ = np.linalg.lstsq(A, b, rcond=None)
            worst = max(worst, float(np.linalg.norm(A @ coef - b)))
        assert worst > 1e-9  # generic coefficients: bracket escapes the span

    def test_matches_least_squares_on_digest_specs(self):
        # the annihilator of every problem spec of tools/output_digest.py,
        # generic and with each instance
        digest = output_digest()
        specs = {name: fx.load(name) for name in fx.FIXTURE_NAMES}
        specs.update((name, spec) for name, spec in digest.INPUTS.items() if "chart" in spec)
        seen, undecided = set(), []
        for name, spec in specs.items():
            for inst in [None, *spec.get("instances", {})]:
                try:
                    D = _spec_problem(spec, inst).annihilator
                except UndecidedPivotError:
                    undecided.append(name)
                    continue
                got = ids.frobenius_check(D)
                assert (got.verdict, got.witness_pair) == _least_squares_frobenius(D), (name, inst)
                seen.add(got.verdict)
        assert seen == {"integrable", "not_integrable", "unknown"}
        assert undecided == ["pythagorean-pivot-k2.json"]

    def test_matches_least_squares_on_generated_specs(self):
        # analyze-generic's factor specs: every k <= 3 case it runs
        # `analyze` on, opaque and polynomial
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        gen = gen_analyze()
        cases = analyze_shapes(gen)

        seen = set()

        @hypothesis.settings(max_examples=40, deadline=None, database=None)
        @hypothesis.given(st.integers(0, 10**6), st.sampled_from(cases))
        def check(seed, shape):
            spec = gen.factor_spec(random.Random(seed), *shape)["spec"]
            D = _spec_problem(spec).annihilator
            got = ids.frobenius_check(D)
            assert (got.verdict, got.witness_pair) == _least_squares_frobenius(D)
            seen.add(got.verdict)

        check()
        assert seen == {"integrable", "not_integrable"}


def _spec_problem(spec: dict, instance=None) -> vp.VariationalProblem:
    """The problem the CLI builds from `spec` with its own seed and box."""
    options = specio.options_from_spec(spec)
    inst = specio.instance_from_spec(spec, instance) if instance else None
    return specio.problem_from_spec(spec, box=options["box"], seed=options["seed"], instance=inst)


def _least_squares_frobenius(D: ids.Distribution) -> tuple[str, Optional[tuple[int, int]]]:
    """Oracle for the Frobenius verdict, the float fallback it once had:
    a pair whose bracket is not a combination of the basis canonically is
    solved by least squares at 32 points drawn with D's certificate box
    and seed (the box center first); a residual above 1e-9 at any point
    escapes the span, and a pair that stays below it everywhere makes the
    verdict 'unknown' unless a later pair escapes.  Returns the verdict
    and the escaping pair."""
    box, seed = D.certificate.box, D.certificate.seed
    A = [[Y.components[c] for Y in D.basis] for c in range(D.chart.dim)]
    numeric_only = False
    for i, j in itertools.combinations(range(len(D.basis)), 2):
        Z = fm.lie_bracket(D.basis[i], D.basis[j])
        if Z.is_zero_field() or ids.combination(D, Z.components, range(D.chart.dim)) is not None:
            continue
        exprs = [e for Y in D.basis for e in Y.components] + list(Z.components)
        symbols, points = sx.sample_points(exprs, box=box, seed=seed, count=32, center=True)
        points = list(points)
        A_at, A_failures = la.sample_stack(A, symbols, points)
        b_at, b_failures = la.sample_stack([Z.components], symbols, points)
        assert not A_failures and not b_failures
        worst = 0.0
        for Ai, bi in zip(A_at, b_at[:, 0]):
            coef, *_ = np.linalg.lstsq(Ai, bi, rcond=None)
            worst = max(worst, float(np.linalg.norm(Ai @ coef - bi)))
        if worst > 1e-9:
            return "not_integrable", (i, j)
        numeric_only = True
    return ("unknown" if numeric_only else "integrable"), None


def _solve_by_elimination(A, b):
    """Oracle for span membership: one solution of A u = b from a
    Gauss-Jordan of [A | b] in which only A's columns pivot (free unknowns
    0), or None when a row whose A part vanished keeps a nonzero b."""
    n = len(A[0])
    elim = la.gauss_eliminate([list(row) + [bi] for row, bi in zip(A, b)], col_groups=[range(n)])
    if any(all(e.is_const_zero() for e in row[:n]) and not row[n].is_const_zero() for row in elim.rows):
        return None
    u = [sx.ZERO] * n
    for ri, pj in elim.pivots:
        u[pj] = elim.rows[ri][n]
    return u


class TestSpanMembership:
    def test_anchors(self, chart5):
        # a kernel basis is anchored on its free columns
        D = ids.characteristic_distribution((fm.wedge_all([fm.d_coord(chart5, n) for n in ("z1", "z2", "z3")]),))
        assert D.anchors == (0, 1)
        # d/dx + x d/dy and d/dx - d/dy are both nonzero on every column
        chart = fm.Chart(["x", "y"])
        fields = (fm.VecField(chart, [sx.ONE, sx.var("x")]), fm.VecField(chart, [sx.ONE, sx.num(-1)]))
        with pytest.raises(ValueError, match="alone"):
            ids.Distribution(chart, fields, 2, la.RankCertificate(2, 0, None, 0, []))

    def test_frobenius_runs_no_elimination(self, chart5, eliminations):
        generic = ids.characteristic_distribution((example1_eta(chart5),))
        closed = ids.characteristic_distribution((fm.wedge_all(example1_closed_alphas(chart5)),))
        constant = fx.problem("example1", instance="constant").annihilator
        eliminations.clear()
        assert ids.frobenius_check(generic).verdict == "not_integrable"
        assert ids.frobenius_check(closed).verdict == "integrable"
        assert ids.frobenius_check(constant).verdict == "integrable"
        assert eliminations == []

    def test_combination_matches_elimination(self):
        # nullspace bases of seeded polynomial matrices; targets in the span
        # (a polynomial combination of the basis) and off it (a random
        # vector); over all columns the anchors decide exactly what the
        # elimination decides, and over fewer columns an answer still
        # matches the target there
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        chart = fm.Chart(["x", "y", "z"])
        names = list(chart.coords)
        cert = la.RankCertificate(0, 0, None, 0, [])

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(st.integers(0, 10**6), st.integers(1, 2), st.booleans())
        def check(seed, rows, in_span):
            rng = random.Random(seed)
            mat = [[rand_poly(rng, names, degree=1, terms=2) for _ in names] for _ in range(rows)]
            basis = tuple(fm.VecField(chart, v) for v in la.nullspace(mat))
            D = ids.Distribution(chart, basis, len(basis), cert)
            if in_span:
                w = [rand_poly(rng, names, degree=1, terms=2) for _ in basis]
                target = [sx.canon(sum((wc * Y.components[i] for wc, Y in zip(w, basis)), sx.ZERO)) for i in range(3)]
            else:
                target = [sx.canon(rand_poly(rng, names, degree=2, terms=2)) for _ in names]
            got = ids.combination(D, target, range(3))
            want = _solve_by_elimination([[Y.components[i] for Y in basis] for i in range(3)], target)
            assert (got is None) == (want is None)
            if in_span:
                assert got is not None
            if got is not None:
                assert all(sx.canon(a - b).is_const_zero() for a, b in zip(got, want))
            part = ids.combination(D, target, [0, 1])
            if part is not None:
                for i in (0, 1):
                    acc = sum((u * Y.components[i] for u, Y in zip(part, basis)), sx.ZERO)
                    assert sx.canon(acc - target[i]).is_const_zero()

        check()


# ---------------------------------------------------------------------------
# ranks proved from exact minors, against the sampled certificate


def _proved_and_sampled(build):
    """The distribution `build()` returns, and the one it returns with the
    proof switched off (no entry reads as everywhere defined), which
    samples as the certificate did before the proof."""
    proved = build()
    with mock.patch.object(sx, "everywhere_defined", lambda e: False):
        sampled = build()
    assert not sampled.certificate.proved
    assert proved == sampled
    assert proved.certificate.to_record() == sampled.certificate.to_record()
    return proved


def _both_annihilators(make_problem):
    """`_proved_and_sampled` of a problem's annihilator and its vertical
    part, each on a fresh problem."""
    return [
        _proved_and_sampled(lambda: getattr(make_problem(), attr))
        for attr in ("annihilator", "vertical_annihilator")
    ]


def _generated_factors(rng, k, p, kind, scaled):
    """A factor set shaped as perfbench's `analyze` generator shapes one:
    z rows dz_a + B_a.dx, then k + 1 - p base rows dx_j plus C entries on
    the base columns that are no row's pivot, each coefficient an opaque
    atom over the chart or c1*u*v + c2*w in its coordinates (zero at the
    box center, so the unit entries pivot), rows shuffled; `scaled`
    multiplies one row by 2 + x1^2, which makes the pivot minor a
    function."""
    chart = fm.BundleChart([f"x{m}" for m in range(1, k + 1)], [f"z{a}" for a in range(1, p + 1)])
    names = list(chart.coords)

    def coeff(name):
        if kind == "opaque":
            return opaque(chart, name)
        c1, c2 = (sx.num(Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 2, 3]))) for _ in "12")
        u, v, w = (sx.var(rng.choice(names)) for _ in "uvw")
        return c1 * u * v + c2 * w

    rows = []
    for a in range(1, p + 1):
        alpha = fm.d_coord(chart, f"z{a}")
        for m in range(1, k + 1):
            alpha = alpha + fm.d_coord(chart, f"x{m}") * coeff(f"B{a}{m}")
        rows.append(alpha)
    pivots = rng.sample(range(k), k + 1 - p)
    for i, j in enumerate(pivots, start=1):
        alpha = fm.d_coord(chart, f"x{j + 1}")
        for m in range(k):
            if m not in pivots:
                alpha = alpha + fm.d_coord(chart, f"x{m + 1}") * coeff(f"C{i}{m + 1}")
        rows.append(alpha)
    rng.shuffle(rows)
    if scaled:
        j = rng.randrange(len(rows))
        rows[j] = rows[j] * (2 + sx.var("x1") ** 2)
    return chart, rows


class TestProvedRank:
    """A distribution whose system has everywhere-defined entries and a
    constant pivot minor has its rank proved; its certificate records
    what the 64 samples give, so reports do not change."""

    def test_elimination_corpus(self):
        from test_decomp import _elimination_corpus

        proved = [
            _proved_and_sampled(
                lambda: ids.characteristic_distribution(fs.alphas, vertical_only=vertical)
            ).certificate.proved
            for fs in _elimination_corpus()
            for vertical in (False, True)
        ]
        # one row of each set is scaled by a function or by 1
        assert 0 < sum(proved) < len(proved) == 192

    def test_generated_factor_specs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # (k, fiber size): maximal degree, intermediate, maximally characteristic
        shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]

        @hypothesis.settings(max_examples=40, deadline=None, database=None)
        @hypothesis.given(
            st.integers(0, 10**6), st.sampled_from(shapes), st.sampled_from(["opaque", "poly"]), st.booleans()
        )
        def check(seed, shape, kind, scaled):
            chart, rows = _generated_factors(random.Random(seed), *shape, kind, scaled)
            dists = _both_annihilators(lambda: vp.build_problem(chart, factors=rows))
            if not scaled:
                assert all(D.certificate.proved for D in dists)

        check()

    def test_digest_specs(self):
        specs = [(name, fx.load(name), None) for name in ("example1", "example2", "example3")]
        specs += [
            (name, fx.load(name), inst) for name, spec, _ in list(specs) for inst in spec.get("instances", {})
        ]
        specs += [(name, payload, None) for name, payload in output_digest().INPUTS.items() if "chart" in payload]
        proved = {}
        for name, spec, inst in specs:
            if name == "pythagorean-pivot-k2.json":  # normalizing cannot certify its dz1 pivot
                with pytest.raises(UndecidedPivotError):
                    specio.problem_from_spec(spec)
                continue
            instance = specio.instance_from_spec(spec, inst) if inst else None
            dists = _both_annihilators(lambda: specio.problem_from_spec(spec, instance=instance))
            proved[name, inst] = [D.certificate.proved for D in dists]
        assert proved[("swell-k3-maximal-degree-0.json", None)] == [True, True]
        assert proved[("k6probe-intermediate-opaque-0.json", None)] == [True, True]

    @pytest.mark.parametrize(
        "name, coeff",
        [("singular-k2.json", None), ("quotients-k2.json", None), ("sin", "sin(x1)"), ("exp", "exp(x1)")],
    )
    def test_inputs_that_sample(self, name, coeff):
        # a quotient, and a coefficient of a known function, keep the
        # sampled certificate; so do the normalized factors of the singular
        # spec, which carry 1/x1 (the sample at the box center fails)
        inputs = output_digest().INPUTS
        if coeff is None:
            spec = inputs[name]
        else:
            spec = json.loads(json.dumps(inputs["swell-k3-maximal-degree-0.json"]))
            spec["factors"][1][1]["coeff"] = coeff
        D = specio.problem_from_spec(spec).annihilator
        assert not D.certificate.proved
        if name == "singular-k2.json":
            assert D.certificate.count == 63

    def test_no_sampling_on_a_proved_distribution(self, monkeypatch):
        # the basis check is skipped too: each field has a nonzero constant
        # in a column where it alone is nonzero
        spec = output_digest().INPUTS["swell-k3-maximal-degree-0.json"]
        monkeypatch.setattr(la, "certify_rank", mock.Mock(side_effect=AssertionError("sampled")))
        p = specio.problem_from_spec(spec)
        assert p.annihilator.certificate.proved and p.vertical_annihilator.certificate.proved
        assert la.certify_rank.call_count == 0

    def test_roundoff_no_longer_decides(self):
        # dx + 10^20 x dy and dy have the pivot minor 1, but at a sample the
        # smaller singular value is about 10^-20 |x|^-1, below RANK_TOL
        chart = fm.Chart(["x", "y", "z"])
        forms = (
            fm.d_coord(chart, "x") + fm.d_coord(chart, "y") * (sx.num(10**20) * sx.var("x")),
            fm.d_coord(chart, "y"),
        )
        D = ids.characteristic_distribution(forms)
        assert D.rank == 1 and D.certificate.proved and D.certificate.ranks == [2] * 64
        with mock.patch.object(sx, "everywhere_defined", lambda e: False):
            with pytest.raises(NonConstantRankError, match="sampled rank differs"):
                ids.characteristic_distribution(forms)


class TestEverywhereDefined:
    @pytest.mark.parametrize(
        "text, want",
        [
            ("3", True),
            ("x*y^2 - 1/2", True),
            ("B(x, y^2 + 1)*x", True),
            ("B(C(x))", True),
            ("1/x", False),
            ("x/(y^2 + 1)", False),
            ("B(1/x)", False),
            ("sin(x)", False),
            ("exp(x)*y", False),
            ("B(ln(x))", False),
        ],
    )
    def test_examples(self, text, want):
        assert sx.everywhere_defined(sx.parse(text)) is want

    @pytest.mark.parametrize(
        "text, want",
        [
            ("B(x, y^2 + 1)*x", True),
            ("x/(y^2 + 1)", True),
            ("B(1/x)", True),
            ("x/B(y)", True),
            ("sin(x)", False),
            ("B(ln(x))", False),
            ("x/(B(x) + cos(y))", False),
            ("B(x/C(exp(y)))", False),
        ],
    )
    def test_decided_by_canon(self, text, want):
        # the same atom walk, with quotients allowed at any depth
        assert sx.decided_by_canon(sx.parse(text)) is want
