import math

import numpy as np
import pytest

from cartanvp import forms as fm
from cartanvp import linalg as la
from cartanvp import symexpr as sx
from cartanvp import varprin as vp
from cartanvp.errors import DivisionByZeroError, NonConstantRankError

x, y = sx.var("x"), sx.var("y")


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

    def test_float_warnings_ignored_once_per_stack(self, monkeypatch):
        # one np.errstate for the column pass of the whole stack, none for
        # the per-point pass of Python floats; an overflow still reads inf
        entered = []
        errstate = np.errstate

        def counting(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counting)
        mat = [[x, x * y, y], [sx.sin(x), sx.ONE, 1 / y]]
        stack, failures = la.sample_stack(mat, ["x", "y"], [(1.0, 1.0), (1e200, 1e200)])
        assert entered == [{"all": "ignore"}] and not failures
        assert stack[1, 0, 1] == math.inf
        entered.clear()
        _, failures = la.sample_stack(mat, ["x", "y"], [(1.0, 1.0), (1e200, 0.0)])
        assert entered == [{"all": "ignore"}] and [i for i, _ in failures] == [1]
