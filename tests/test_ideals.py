import random
import sys

import numpy as np
import pytest

from cartanvp import forms as fm
from cartanvp import ideals as ids
from cartanvp import linalg as la
from cartanvp import symexpr as sx
from cartanvp.errors import ChartMismatchError, NonConstantRankError, UnequalGeneratorDegreesError


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


class TestAnnihilator:
    def test_plane_form_in_r3(self):
        chart = fm.Chart(["x1", "x2", "x3"])
        eta = fm.wedge(fm.d_coord(chart, "x1"), fm.d_coord(chart, "x2"))
        D = ids.annihilator(eta)
        assert D.rank == 1
        assert ids.span_equal(list(D.basis), [fm.coord_field(chart, "x3")])

    def test_example1_generators(self, chart5):
        eta = example1_eta(chart5)
        D = ids.annihilator(eta)
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
        D = ids.annihilator(eta)
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
        D2 = ids.annihilator(eta)
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


class TestFrobenius:
    def test_coordinate_distribution(self, chart5):
        D = ids.annihilator(
            fm.wedge_all([fm.d_coord(chart5, n) for n in ("z1", "z2", "z3")])
        )
        assert ids.frobenius_check(D).verdict == "integrable"

    def test_scaling_field_pair(self):
        chart = fm.BundleChart(["x1", "x2"], ["z1"])
        Y1 = fm.VecField(chart, [sx.ONE, sx.ZERO, sx.var("z1")])
        Y2 = fm.coord_field(chart, "x2")
        cert = la.RankCertificate(2, 0, None, 0, [])
        D = ids.Distribution(chart, (Y1, Y2), 2, None, cert)
        assert ids.frobenius_check(D).verdict == "integrable"

    def test_example1_generic_vs_closed(self, chart5):
        # generic coefficients: the bracket leaves the span
        D = ids.annihilator(example1_eta(chart5))
        res = ids.frobenius_check(D)
        assert res.verdict == "not_integrable"
        assert res.witness_pair == (0, 1) and res.witness_point is not None

        # polynomial coefficients satisfying the closure condition
        x1, x2 = sx.var("x1"), sx.var("x2")
        alphas = []
        for a in (1, 2, 3):
            B1, B2 = x2 * a, x1 * a  # Y1(B2) = Y2(B1) termwise
            alphas.append(
                fm.d_coord(chart5, f"z{a}")
                + fm.d_coord(chart5, "x1") * B1
                + fm.d_coord(chart5, "x2") * B2
            )
        D2 = ids.annihilator(fm.wedge_all(alphas))
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
        res = ids.frobenius_check(ids.Distribution(chart, basis, 3, None, cert))
        assert res.verdict == "not_integrable"
        assert res.witness_pair == (0, 2)

    def test_numeric_fallback_labels_one_point(self, chart5, monkeypatch):
        # only the witness, the first point of the largest residual, is
        # formatted: none for a pair that holds numerically, one for a pair
        # whose bracket escapes (the zero tests format their own witnesses)
        calls = []
        point_label = sx.point_label

        def counting(symbols, values):
            if sys._getframe(1).f_code is ids.frobenius_check.__code__:
                calls.append(values)
            return point_label(symbols, values)

        monkeypatch.setattr(sx, "point_label", counting)
        res = ids.frobenius_check(ids.annihilator(example1_eta(chart5)))
        assert res.verdict == "not_integrable" and len(calls) == 1
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
        res = ids.frobenius_check(ids.Distribution(chart, basis, 3, None, cert))
        assert res.verdict == "not_integrable" and res.witness_pair == (0, 2) and len(calls) == 1

    def test_pointwise_solve_oracle(self, chart5):
        # independent oracle for span membership: least squares at samples
        D = ids.annihilator(example1_eta(chart5))
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
