import math

import numpy as np
import pytest

from cartanvp import forms as fm
from cartanvp import linalg as la
from cartanvp import symexpr as sx
from cartanvp import varprin as vp
from cartanvp.errors import DivisionByZeroError, NonConstantRankError

x, y = sx.var("x"), sx.var("y")


def _residual(A, u, b):
    return [sx.canon(sum((a * ui for a, ui in zip(row, u)), sx.ZERO) - bi) for row, bi in zip(A, b)]


class TestSolveLinear:
    def test_consistent_system(self):
        A = [[sx.ONE, x], [y, sx.num(2)]]
        b = [x + 1, y * x]
        u = la.solve_linear(A, b)
        assert u is not None
        assert all(r.is_const_zero() for r in _residual(A, u, b))

    def test_inconsistent_system(self):
        A = [[sx.ONE, x], [sx.num(2), 2 * x]]
        assert la.solve_linear(A, [sx.ONE, sx.num(3)]) is None

    def test_underdetermined_free_unknowns_zero(self):
        A = [[sx.ONE, x, sx.ZERO], [sx.ZERO, sx.ZERO, y + 2]]
        b = [x * y, sx.ONE]
        u = la.solve_linear(A, b)
        assert u == [sx.canon(x * y), sx.ZERO, sx.canon(1 / (y + 2))]
        assert all(r.is_const_zero() for r in _residual(A, u, b))

    def test_unchecked_candidate_rejected(self):
        # canonically nonzero but zero as a function, so never certified as
        # a pivot: the elimination stops with u = 0, which fails A u = b
        e = sx.sin(x) ** 2 + sx.cos(x) ** 2 - 1
        assert not sx.canon(e).is_const_zero()
        assert not sx.is_zero(e).is_nonzero
        assert la.solve_linear([[e]], [sx.ONE]) is None


# ---------------------------------------------------------------------------
# stacked certification against a per-point loop


def _per_point_certificate(mat, count=la.SAMPLE_COUNT):
    """Ranks and kept point labels of `certify_rank`'s samples, evaluated
    one point at a time with the scalar closures and one SVD per point;
    points that fail to evaluate are dropped."""
    symbols, samples = sx.sample_points([e for row in mat for e in row], count=count, center=True)
    entries = [[sx.compile_expr(e, symbols) for e in row] for row in mat]
    ranks, kept = [], []
    for vals in samples:
        try:
            arr = np.array([[f(vals) for f in row] for row in entries], dtype=float)
        except (DivisionByZeroError, OverflowError, ValueError):
            continue
        ranks.append(int(np.sum(np.linalg.svd(arr, compute_uv=False) > la.RANK_TOL)))
        kept.append(sx.point_label(symbols, vals))
    return ranks, kept


z1 = sx.var("z1")
B, C = sx.func("B", x, y), sx.func("C", x, z1)


class TestStackedCertificate:
    def test_generic_opaque_matrix(self):
        mat = [[sx.ONE, B, x * C, sx.ZERO], [C, y, sx.ONE + B * B, sx.sin(x)], [B + C, x * y, sx.ONE, 1 / (2 + C)]]
        cert = la.certify_rank(mat)
        ranks, kept = _per_point_certificate(mat)
        assert cert.ranks == ranks == [3] * 64
        assert cert.count == len(kept) == 64

    def test_rank_varying_matrix_witnesses(self):
        # x^60 drops below the rank tolerance for |x| < 10^(-9/60), about 0.71
        mat = [[x**60, B], [sx.ZERO, sx.ONE]]
        ranks, kept = _per_point_certificate(mat)
        assert set(ranks) == {1, 2}
        with pytest.raises(NonConstantRankError) as err:
            la.certify_rank(mat)
        want = max(set(ranks), key=lambda r: (ranks.count(r), r))
        assert err.value.witnesses == [p for r, p in zip(ranks, kept) if r != want]

    def test_singular_factors_drop_the_center(self):
        # the normalized factors of [x1 dz1 + dx1, dz2 + dx2, dz3] carry 1/x1,
        # which fails at the box center
        chart = fm.BundleChart(["x1", "x2"], ["z1", "z2", "z3"])
        d = {n: fm.d_coord(chart, n) for n in chart.coords}
        alphas = [d["z1"] * sx.var("x1") + d["x1"], d["z2"] + d["x2"], d["z3"]]
        p = vp.build_problem(chart, factors=alphas)
        mat = [[a.terms.get((i,), sx.ZERO) for i in range(chart.dim)] for a in p.factors.alphas]
        cert = la.certify_rank(mat)
        ranks, kept = _per_point_certificate(mat)
        assert cert.ranks == ranks and cert.count == len(kept) == 63
        assert all(abs(pt["x1"]) > 0 for pt in kept)
        assert p.annihilator.certificate.count == 63


class TestSampleStack:
    def test_failures_in_point_order_with_the_first_failing_entry(self):
        mat = [[x, 1 / y], [sx.ln(x), sx.ONE]]
        points = [(1.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (2.0, 3.0), (-1.0, 0.0)]
        stack, failures = la.sample_stack(mat, ["x", "y"], points)
        assert [i for i, _ in failures] == [1, 2, 4]
        # row-major: 1/y fails before ln(x) at the last point
        assert [type(exc) for _, exc in failures] == [ValueError, DivisionByZeroError, DivisionByZeroError]
        assert np.array_equal(stack, [[[1.0, 1.0], [0.0, 1.0]], [[2.0, 1 / 3.0], [math.log(2.0), 1.0]]])

    def test_columns_give_the_scalar_bits(self):
        mat = [[sx.sin(x) * B + y / 3, sx.exp(x - y) ** 3], [sx.ONE, x * y]]
        symbols, points = sx.sample_points([e for row in mat for e in row], count=50, center=True)
        points = list(points)
        stack, failures = la.sample_stack(mat, symbols, points)
        entries = [[sx.compile_expr(e, symbols) for e in row] for row in mat]
        assert not failures
        assert np.array_equal(stack, [[[f(v) for f in row] for row in entries] for v in points])
