"""Decomposable (k+1)-forms given by their one-form factors.

Handles the three point conditions on the factor set (independence,
constant transversal-annihilator dimension, trivial vertical annihilator),
row-reduction of the fiber block (by `linalg.gauss_eliminate`) to the two
normal forms (identity pivot block with residual base rows, or identity
block with a residual w-column block).

Decomposability of a raw form is never detected; callers supply factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import linalg as la
from . import symexpr as sx
from .errors import DegreeMismatchError, RankDeficientLError
from .forms import BundleChart, DiffForm, _perm_sign, wedge_all
from .symexpr import DEFAULT_SEED, Expr

__all__ = ["FactorSet", "Def8Verdict", "classify", "normalize"]


@dataclass(frozen=True)
class FactorSet:
    """k+1 one-forms with the bookkeeping of their normal-form reduction.

    After normalization, row i reads dz^{sigma(i)} + B_{im} dx^m
    (+ G_{im} dw^m when the chart has a residual block), and any remaining
    rows are pure base rows C_{im} dx^m.  `multiplier` relates the wedge
    of the normalized factors to the wedge of the originals.
    """

    chart: BundleChart
    alphas: tuple[DiffForm, ...]
    normalized: bool = False
    z_order: tuple[int, ...] = ()  # absolute chart index of the pivot coordinate per z-row
    B: Optional[tuple[tuple[Expr, ...], ...]] = None
    C: Optional[tuple[tuple[Expr, ...], ...]] = None
    G: Optional[tuple[tuple[Expr, ...], ...]] = None
    multiplier: Expr = sx.ONE
    pivot_permutation: tuple[tuple[int, int], ...] = ()  # (row, fiber column) picks

    def __post_init__(self):
        k = self.chart.k
        if len(self.alphas) != k + 1:
            raise DegreeMismatchError(
                f"need k+1 = {k + 1} factors, got {len(self.alphas)}"
            )
        for a in self.alphas:
            if a.chart != self.chart:
                raise DegreeMismatchError("factor on a different chart")
            if a.degree != 1:
                raise DegreeMismatchError("factors must be one-forms")

    @property
    def h(self) -> int:
        return len(self.C) if self.C is not None else 0

    def eta(self) -> DiffForm:
        return wedge_all(list(self.alphas))

    def coefficient_matrix(self) -> list[list[Expr]]:
        ch = self.chart
        return [[a.terms.get((i,), sx.ZERO) for i in range(ch.dim)] for a in self.alphas]


@dataclass(frozen=True)
class Def8Verdict:
    nondegenerate: bool
    compatible: bool
    adapted: bool
    q: Optional[int]  # annihilator dimension at samples, when constant
    r: Optional[int]  # transversal dimension at samples, when constant
    vertical_dim: Optional[int]
    witnesses: dict = field(default_factory=dict, compare=False)


def classify(fs: FactorSet, box=None, seed: int = DEFAULT_SEED) -> Def8Verdict:
    """Sampled point conditions on the factors.

    nondegenerate: the (k+1) x n coefficient matrix has full row rank at
    all samples; compatible: the transversal-annihilator dimension is
    constant; adapted: no vertical field annihilates eta anywhere.
    """
    ch = fs.chart
    full = fs.coefficient_matrix()
    symbols, points = sx.sample_points(
        [e for row in full for e in row], box=box, seed=seed, count=la.SAMPLE_COUNT, center=True
    )
    points = list(points)
    stack, failures = la.sample_stack(full, symbols, points)
    if failures:
        raise failures[0][1]
    k1 = ch.k + 1
    nond, ranks_q, ranks_r, ranks_v = True, set(), set(), set()
    witnesses: dict = {"degenerate": [], "rank_changes": []}
    seen = []
    ranks = zip(la.numeric_ranks(stack).tolist(), la.numeric_ranks(stack[:, :, ch.k :]).tolist())
    for vals, (rk, rk_fiber) in zip(points, ranks):
        q = ch.dim - rk
        v = (ch.dim - ch.k) - rk_fiber
        r = q - v
        seen.append((q, v, r))
        ranks_q.add(q)
        ranks_v.add(v)
        ranks_r.add(r)
        if rk < k1:
            nond = False
            witnesses["degenerate"].append(sx.point_label(symbols, vals))
    compatible = len(ranks_r) == 1
    if not compatible:
        majority = max(ranks_r, key=lambda x: [t[2] for t in seen].count(x))
        witnesses["rank_changes"] = [
            sx.point_label(symbols, vals) for vals, t in zip(points, seen) if t[2] != majority
        ]
    adapted = ranks_v == {0}
    return Def8Verdict(
        nondegenerate=nond,
        compatible=compatible,
        adapted=adapted,
        q=ranks_q.pop() if len(ranks_q) == 1 else None,
        r=ranks_r.pop() if len(ranks_r) == 1 else None,
        vertical_dim=ranks_v.pop() if len(ranks_v) == 1 else None,
        witnesses=witnesses,
    )


def normalize(fs: FactorSet, box=None, seed: int = DEFAULT_SEED) -> FactorSet:
    """Row-reduce the fiber block to an identity pivot block.

    Row operations only (never coordinate changes); the factor span is
    unchanged, so the wedge changes by the recorded nonzero multiplier.
    Pivots follow the rule of `linalg.gauss_eliminate`, with the primary
    fiber columns preferred to the residual block; base columns never
    pivot.
    """
    ch = fs.chart
    k1 = ch.k + 1
    elim = la.gauss_eliminate(
        fs.coefficient_matrix(),
        box=box,
        seed=seed,
        col_groups=[range(ch.k, ch.k + ch.p), range(ch.k + ch.p, ch.dim)],
    )
    target_pivots = min(ch.dim - ch.k, k1)
    if elim.rank < target_pivots:
        raise RankDeficientLError(
            f"fiber block rank {elim.rank} below required {target_pivots}"
        )
    if ch.s > 0 and elim.rank < k1:
        raise RankDeficientLError("residual-block chart needs a full k+1 pivot set")
    multiplier = sx.ONE
    for pivot in elim.pivot_values:
        multiplier = multiplier / pivot
    # order: pivot rows ascending by pivot column, then the pure base rows
    pivots_sorted = sorted(elim.pivots, key=lambda t: t[1])
    order = [pi for pi, _ in pivots_sorted]
    order += [i for i in range(k1) if i not in order]
    multiplier = multiplier * sx.num(_perm_sign(order))
    new_rows = [elim.rows[i] for i in order]
    z_order = tuple(pj for _, pj in pivots_sorted)
    alphas = tuple(
        DiffForm(ch, 1, {(j,): c for j, c in enumerate(row)}) for row in new_rows
    )
    nz = len(z_order)
    B = tuple(tuple(new_rows[i][j] for j in range(ch.k)) for i in range(nz))
    C = tuple(tuple(new_rows[i][j] for j in range(ch.k)) for i in range(nz, k1))
    wcols = [j for j in range(ch.k, ch.dim) if j not in z_order]
    G = tuple(tuple(new_rows[i][j] for j in wcols) for i in range(nz)) if wcols else None
    return FactorSet(
        chart=ch,
        alphas=alphas,
        normalized=True,
        z_order=z_order,
        B=B,
        C=C if C else None,
        G=G,
        multiplier=multiplier,
        pivot_permutation=tuple(pivots_sorted),
    )
