"""Linear algebra over the symbolic expression field, with sampled
certification.

Rank constancy is never proved, only certified: matrices are evaluated at
the box center plus seeded uniform sample points (opaque coefficient atoms
drawn as generic values), and numeric ranks must agree.  Pivots for the
symbolic elimination are chosen greedily by sampled magnitude at the box
center and certified nonzero by the tri-state zero test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Sequence

import numpy as np

from . import symexpr as sx
from .errors import DivisionByZeroError, NonConstantRankError
from .symexpr import DEFAULT_SEED, Expr

RANK_TOL = 1e-9
SAMPLE_COUNT = 64


def compile_matrix(mat, symbols: Sequence) -> Callable[[Sequence[float]], np.ndarray]:
    """Float evaluator of a matrix of expressions at points aligned with
    `symbols` (see `symexpr.sample_points`), compiled once."""
    rows = [[sx.compile_expr(e, symbols) for e in row] for row in mat]
    return lambda v: np.array([[f(v) for f in row] for row in rows], dtype=float)


def numeric_rank(arr: np.ndarray, tol: float = RANK_TOL) -> int:
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.sum(s > tol))


# ---------------------------------------------------------------------------
# symbolic elimination


@dataclass
class Elimination:
    rank: int
    pivots: list[tuple[int, int]]
    rows: list[list[Expr]]
    row_order: list[int]
    uncertain: bool = False


def _certified_nonzero(e: Expr, box, seed) -> bool:
    return sx.is_zero(e, box=box, seed=seed).is_nonzero


def gauss_eliminate(
    mat,
    box=None,
    seed: int = DEFAULT_SEED,
    pivot_cols: Optional[int] = None,
    col_groups: Optional[Sequence[Sequence[int]]] = None,
) -> Elimination:
    """Gauss-Jordan over the expression field.

    Pivot rule: among remaining entries, the one of largest magnitude at
    the box center (generic atom draw), certified nonzero by sampling;
    falls back to a row-major certified-nonzero scan.  Entries that are
    canonically nonzero but never certifiable leave `uncertain` set.
    Only the first `pivot_cols` columns are eligible for pivoting
    (augmented-system solving passes the width of the coefficient block);
    `col_groups` orders column preference tiers, e.g. fiber columns before
    base columns so that kernel bases come out in the transversal normal
    form.
    """
    rows = [[sx.canon(e) for e in row] for row in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    ncols = n if pivot_cols is None else pivot_cols
    groups = [list(g) for g in col_groups] if col_groups else [list(range(ncols))]
    symbols, points = sx.sample_points(
        [e for row in rows for e in row], box=box, seed=seed, count=1, center=True
    )
    center = next(points)
    pivots: list[tuple[int, int]] = []
    used_cols: set[int] = set()
    row_order = list(range(m))
    r = 0
    while r < m:
        picked = None
        any_nonzero_left = False
        for group in groups:
            best = None
            for i in range(r, m):
                for j in group:
                    if j in used_cols or j >= ncols:
                        continue
                    e = rows[i][j]
                    if e.is_const_zero():
                        continue
                    any_nonzero_left = True
                    try:
                        mag = abs(sx.compile_expr(e, symbols)(center))
                    except (DivisionByZeroError, OverflowError, ValueError):
                        mag = 0.0
                    if best is None or mag > best[0]:
                        best = (mag, i, j)
            if best is None:
                continue
            if best[0] > 0 and _certified_nonzero(rows[best[1]][best[2]], box, seed):
                picked = (best[1], best[2])
                break
            for i in range(r, m):
                for j in group:
                    if j in used_cols or j >= ncols or rows[i][j].is_const_zero():
                        continue
                    if _certified_nonzero(rows[i][j], box, seed):
                        picked = (i, j)
                        break
                if picked:
                    break
            if picked:
                break
        if picked is None:
            return Elimination(r, pivots, rows, row_order, uncertain=any_nonzero_left)
        pi, pj = picked
        if pi != r:
            rows[pi], rows[r] = rows[r], rows[pi]
            row_order[pi], row_order[r] = row_order[r], row_order[pi]
        pivot = rows[r][pj]
        rows[r] = [sx.canon(e / pivot) for e in rows[r]]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][pj]
            if f.is_const_zero():
                continue
            rows[i] = [sx.canon(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append((r, pj))
        used_cols.add(pj)
        r += 1
    return Elimination(r, pivots, rows, row_order)


def clear_denominators(comps: list[Expr], anchor: Optional[int] = None) -> list[Expr]:
    """Scale a vector by the product of distinct denominators, then divide
    by the common rational content and normalize the sign; the result is a
    function multiple of the input with polynomial entries.  The sign makes
    the `anchor` component (or else the first nonzero one) lead positive."""
    nums, dens = [], []
    for c in comps:
        cc = sx.canon(c)
        if cc.op == "div":
            nums.append(cc.args[0])
            dens.append(cc.args[1])
        else:
            nums.append(cc)
            dens.append(sx.ONE)
    distinct: list[Expr] = []
    for d in dens:
        if d != sx.ONE and all(d != q for q in distinct):
            distinct.append(d)
    cleared = []
    for nu, de in zip(nums, dens):
        factor = sx.ONE
        for q in distinct:
            if q != de:
                factor = factor * q
        cleared.append(sx.canon(nu * factor))
    content = _rational_content(cleared)
    if content is not None and content != 1:
        cleared = [sx.canon(c / sx.num(content)) for c in cleared]
    order = list(range(len(cleared)))
    if anchor is not None:
        order = [anchor] + [i for i in order if i != anchor]
    for i in order:
        lead = _lead_fraction(cleared[i])
        if lead is None or lead == 0:
            continue
        if lead < 0:
            cleared = [sx.canon(-x) for x in cleared]
        break
    return cleared


def _lead_fraction(e: Expr) -> Optional[Fraction]:
    fr = sx.poly_coeffs(e)
    if not fr:
        return None
    return fr[-1]


def _rational_content(exprs: list[Expr]) -> Optional[Fraction]:
    nums: list[int] = []
    dens: list[int] = []
    for e in exprs:
        fr = sx.poly_coeffs(e)
        if fr is None:
            return None
        for f in fr:
            nums.append(abs(f.numerator))
            dens.append(f.denominator)
    if not nums:
        return None
    g = 0
    for x in nums:
        g = gcd(g, x)
    l = 1
    for x in dens:
        l = l * x // gcd(l, x)
    if g == 0:
        return None
    return Fraction(g, l)


def nullspace(
    mat, box=None, seed: int = DEFAULT_SEED, col_groups=None
) -> list[list[Expr]]:
    """Basis of the right kernel, denominator-cleared, deterministic."""
    return kernel_basis(gauss_eliminate(mat, box=box, seed=seed, col_groups=col_groups))


def kernel_basis(elim: Elimination) -> list[list[Expr]]:
    """Right-kernel basis read off a finished elimination: one vector per
    free column, denominator-cleared and anchored on that column."""
    n = len(elim.rows[0]) if elim.rows else 0
    pivot_cols = {pj: ri for ri, pj in elim.pivots}
    free_cols = [j for j in range(n) if j not in pivot_cols]
    basis = []
    for f in free_cols:
        v: list[Expr] = [sx.ZERO] * n
        v[f] = sx.ONE
        for ri, pj in elim.pivots:
            v[pj] = sx.canon(-elim.rows[ri][f])
        basis.append(clear_denominators(v, anchor=f))
    return basis


def solve_linear(A, b, box=None, seed: int = DEFAULT_SEED) -> Optional[list[Expr]]:
    """One symbolic solution of A u = b over the expression field, or None
    when the system is symbolically inconsistent; free unknowns are 0."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [list(row) + [bi] for row, bi in zip(A, b)]
    elim = gauss_eliminate(aug, box=box, seed=seed, pivot_cols=n)
    rows = elim.rows
    for i in range(elim.rank, m):
        if all(rows[i][j].is_const_zero() for j in range(n)) and not rows[i][n].is_const_zero():
            return None
    sol: list[Expr] = [sx.ZERO] * n
    for ri, pj in elim.pivots:
        sol[pj] = rows[ri][n]
    return sol


def determinant(mat) -> Expr:
    """Laplace expansion along the first row; exact, for small matrices."""
    n = len(mat)
    if n == 0:
        return sx.ONE
    if any(len(row) != n for row in mat):
        raise ValueError("determinant needs a square matrix")
    if n == 1:
        return sx.canon(mat[0][0])
    acc = sx.ZERO
    for j in range(n):
        c = mat[0][j]
        if isinstance(c, Expr) and c.is_const_zero():
            continue
        minor = [[row[q] for q in range(n) if q != j] for row in mat[1:]]
        term = c * determinant(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return sx.canon(acc)


# ---------------------------------------------------------------------------
# rank certification


@dataclass
class RankCertificate:
    rank: int
    seed: int
    box: object
    count: int
    ranks: list[int]
    points: list[dict] = field(repr=False)

    def to_record(self) -> dict:
        return {
            "rank": self.rank,
            "seed": self.seed,
            "box": self.box if self.box is None or isinstance(self.box, dict) else list(self.box),
            "count": self.count,
            "ranks": self.ranks,
        }


def certify_rank(
    mat,
    box=None,
    seed: int = DEFAULT_SEED,
    count: int = SAMPLE_COUNT,
    expected: Optional[int] = None,
    what: str = "matrix",
) -> RankCertificate:
    """Sampled-rank certificate; raises NonConstantRankError with witness
    points when ranks differ across the sample set."""
    symbols, samples = sx.sample_points(
        [e for row in mat for e in row], box=box, seed=seed, count=count, center=True
    )
    evaluate = compile_matrix(mat, symbols)
    ranks = []
    points = []
    for vals in samples:
        try:
            arr = evaluate(vals)
        except (DivisionByZeroError, OverflowError, ValueError):
            continue
        ranks.append(numeric_rank(arr))
        points.append(sx.point_label(symbols, vals))
    if not ranks:
        raise NonConstantRankError(f"{what}: no evaluable sample points")
    majority = max(set(ranks), key=lambda r: (ranks.count(r), r))
    if expected is not None and any(r != expected for r in ranks):
        witnesses = [p for r, p in zip(ranks, points) if r != expected]
        raise NonConstantRankError(
            f"{what}: sampled rank differs from symbolic rank {expected} "
            f"(sampled {sorted(set(ranks))})",
            witnesses=witnesses,
        )
    if any(r != majority for r in ranks):
        witnesses = [p for r, p in zip(ranks, points) if r != majority]
        raise NonConstantRankError(
            f"{what}: sampled ranks vary across the box ({sorted(set(ranks))})",
            witnesses=witnesses,
        )
    return RankCertificate(majority, seed, box, len(ranks), ranks, points)
