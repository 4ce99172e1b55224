from cartanvp import linalg as la
from cartanvp import symexpr as sx

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
