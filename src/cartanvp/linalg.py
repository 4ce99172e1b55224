"""Linear algebra over the symbolic expression field, with sampled
certification.

Rank constancy is never proved, only certified: matrices are evaluated at
the box center plus seeded uniform sample points (opaque coefficient atoms
drawn as generic values), and numeric ranks must agree.  `sample_stack`
is the one float evaluation of a matrix at sample points: a (points, m,
n) stack, each entry evaluated once over the point columns, whose ranks
`numeric_ranks` takes from one stacked SVD.  The symbolic elimination, and
its pivot rule, is `gauss_eliminate`, the package's only one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import symexpr as sx
from .errors import CartanVPError, NonConstantRankError
from .symexpr import DEFAULT_SEED, Expr

RANK_TOL = 1e-9
SAMPLE_COUNT = 64


# what a compiled entry raises where it cannot be evaluated
_EVAL_ERRORS = (CartanVPError, ArithmeticError, ValueError)


def sample_stack(mat, symbols: Sequence, points) -> tuple[np.ndarray, list[tuple[int, Exception]]]:
    """Values of the matrix `mat` at `points` (rows aligned with `symbols`,
    see `symexpr.sample_points`) as a (points, m, n) stack, each entry
    compiled once and evaluated once over the point columns, which gives
    each point the bits of a scalar evaluation.  If an entry fails, the
    points are evaluated one by one, entries row-major, as a per-point loop
    would: a failing point is left out of the stack and listed, in point
    order, as (index, error of its first failing entry)."""
    values = np.asarray(points, dtype=float).reshape(len(points), len(symbols))
    m, n = len(mat), len(mat[0]) if mat else 0
    entries = [sx.compile_expr(e, symbols) for row in mat for e in row]
    out = np.empty((len(values), m * n))
    try:
        columns = list(values.T)
        for j, f in enumerate(entries):
            out[:, j] = f(columns)
        return out.reshape(len(values), m, n), []
    except _EVAL_ERRORS:
        pass
    failures = []
    for i, vals in enumerate(values.tolist()):
        try:
            out[i] = [f(vals) for f in entries]
        except _EVAL_ERRORS as exc:
            failures.append((i, exc))
    out = np.delete(out, [i for i, _ in failures], axis=0)
    return out.reshape(len(out), m, n), failures


def numeric_ranks(stack: np.ndarray) -> np.ndarray:
    """Numeric ranks of the matrices of a (points, m, n) stack, from one
    SVD call."""
    if stack.size == 0:
        return np.zeros(len(stack), dtype=int)
    return np.sum(np.linalg.svd(stack, compute_uv=False) > RANK_TOL, axis=-1)


# ---------------------------------------------------------------------------
# symbolic elimination


@dataclass
class Elimination:
    pivots: list[tuple[int, int]]  # (row, column) in the order chosen
    pivot_values: list[Expr]  # each pivot entry as it stood when chosen
    rows: list[list[Expr]]  # reduced rows, each at its input index
    uncertain: bool = False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def gauss_eliminate(
    mat,
    box=None,
    seed: int = DEFAULT_SEED,
    col_groups: Optional[Sequence[Sequence[int]]] = None,
) -> Elimination:
    """Gauss-Jordan over the expression field; rows are never swapped.

    Pivot rule (the package's only one): `col_groups` lists tiers of
    eligible columns in order of preference, e.g. fiber columns before
    base columns so that kernel bases come out in the transversal normal
    form (default: one tier of every column; columns in no tier never
    pivot).  In the first tier that still holds a canonically nonzero
    entry in a row without a pivot, take the entry of largest magnitude at
    the box center (generic atom draw), ties broken by (row, column) in
    input order, if it is certified nonzero by the tri-state zero test;
    otherwise the first certified-nonzero entry of that tier in row-major
    order; a tier with none passes to the next.  Entries that are
    canonically nonzero but never certifiable leave `uncertain` set.
    """
    rows = [[sx.canon(e) for e in row] for row in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    groups = [list(g) for g in col_groups] if col_groups else [list(range(n))]
    symbols, points = sx.sample_points(
        [e for row in rows for e in row], box=box, seed=seed, count=1, center=True
    )
    center = next(points)

    def certified(ij) -> bool:
        return sx.is_zero(rows[ij[0]][ij[1]], box=box, seed=seed).is_nonzero

    pivots: list[tuple[int, int]] = []
    values: list[Expr] = []
    free_rows = list(range(m))
    used_cols: set[int] = set()
    while free_rows:
        picked = None
        any_nonzero_left = False
        for group in groups:
            cands = [
                (i, j)
                for i in free_rows
                for j in group
                if j not in used_cols and not rows[i][j].is_const_zero()
            ]
            if not cands:
                continue
            any_nonzero_left = True
            best = None
            for i, j in cands:
                try:
                    mag = abs(sx.compile_expr(rows[i][j], symbols)(center))
                except sx.SINGULAR_POINT_ERRORS:
                    mag = 0.0
                if best is None or mag > best[0]:
                    best = (mag, i, j)
            if best[0] > 0 and certified(best[1:]):
                picked = best[1:]
            else:
                picked = next(filter(certified, cands), None)
            if picked:
                break
        if picked is None:
            return Elimination(pivots, values, rows, uncertain=any_nonzero_left)
        pi, pj = picked
        pivot = rows[pi][pj]
        rows[pi] = [e / pivot for e in rows[pi]]
        for i in range(m):
            if i == pi:
                continue
            f = rows[i][pj]
            if f.is_const_zero():
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[pi])]
        pivots.append((pi, pj))
        values.append(pivot)
        free_rows.remove(pi)
        used_cols.add(pj)
    return Elimination(pivots, values, rows)


def clear_denominators(comps: list[Expr], anchor: Optional[int] = None) -> list[Expr]:
    """Scale a vector by the lcm of its denominators, then divide by the
    common rational content and normalize the sign; the result is a
    function multiple of the input with polynomial entries.  The sign makes
    the `anchor` component (or else the first nonzero one) lead positive."""
    l = sx.ONE
    for c in comps:
        # lcm(l, d) is l times the denominator of the reduced l/d
        l = l * sx.numer_denom(l / sx.numer_denom(c)[1])[1]
    cleared = [c * l for c in comps]
    content = sx.poly_content(cleared)
    if content is not None and content != 1:
        cleared = [c / sx.num(content) for c in cleared]
    order = list(range(len(cleared)))
    if anchor is not None:
        order = [anchor] + [i for i in order if i != anchor]
    for i in order:
        lead = _lead_fraction(cleared[i])
        if lead is None or lead == 0:
            continue
        if lead < 0:
            cleared = [-x for x in cleared]
        break
    return cleared


def _lead_fraction(e: Expr) -> Optional[Fraction]:
    fr = sx.poly_coeffs(e)
    if not fr:
        return None
    return fr[-1]


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
            v[pj] = -elim.rows[ri][f]
        basis.append(clear_denominators(v, anchor=f))
    return basis


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
    return acc


# ---------------------------------------------------------------------------
# rank certification


@dataclass
class RankCertificate:
    rank: int
    seed: int
    box: object
    count: int
    ranks: list[int]

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
    samples = list(samples)
    stack, failures = sample_stack(mat, symbols, samples)
    failed = dict(failures)  # points that cannot be evaluated are dropped
    for exc in failed.values():
        if not isinstance(exc, sx.SINGULAR_POINT_ERRORS):
            raise exc
    kept = [vals for i, vals in enumerate(samples) if i not in failed]
    ranks = numeric_ranks(stack).tolist()
    if not ranks:
        raise NonConstantRankError(f"{what}: no evaluable sample points")
    majority = max(set(ranks), key=lambda r: (ranks.count(r), r))
    want = majority if expected is None else expected
    if any(r != want for r in ranks):
        detail = (
            f"sampled ranks vary across the box ({sorted(set(ranks))})"
            if expected is None
            else f"sampled rank differs from symbolic rank {expected} (sampled {sorted(set(ranks))})"
        )
        raise NonConstantRankError(
            f"{what}: {detail}",
            witnesses=[sx.point_label(symbols, v) for r, v in zip(ranks, kept) if r != want],
        )
    return RankCertificate(majority, seed, box, len(ranks), ranks)
