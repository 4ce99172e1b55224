"""Characteristic distributions, span membership, and Frobenius checks.

The variational ideal itself is the tuple of contraction forms `psi` of a
`varprin.VariationalProblem`.  This module has one constructor of a
distribution, `characteristic_distribution`: the joint kernel of
contraction with forms of one degree, such as eta alone, the one-form
factors of eta (the annihilator of a decomposable form is the joint
kernel of its factors), or `psi`; optionally restricted to vertical
fields.

A distribution's rank is certified by sampling, never proved: the
certificate records the seed, sample points, and per-point numeric ranks.
Generic coefficient atoms (opaque functions) are drawn as independent
uniform values per sample point, which realizes "generic B" hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import linalg as la
from . import symexpr as sx
from .errors import ChartMismatchError, InvariantViolationError, UnequalGeneratorDegreesError
from .forms import (
    BundleChart,
    Chart,
    DiffForm,
    VecField,
    lie_bracket,
)
from .symexpr import DEFAULT_SEED, Expr

__all__ = [
    "Distribution",
    "FrobeniusResult",
    "characteristic_distribution",
    "combination",
    "frobenius_check",
    "contraction_matrix",
    "span_equal",
]


@dataclass(frozen=True)
class Distribution:
    """Module of vector fields with a sampled constant-rank certificate.

    The basis is in normal form: each field has an anchor, the first
    chart column where that field alone is canonically nonzero (a kernel
    basis is anchored on its free columns), so span membership is read
    off the anchors by `combination`."""

    chart: Chart
    basis: tuple[VecField, ...]
    rank: int
    certificate: la.RankCertificate = field(compare=False)
    uncertain: bool = False  # elimination met uncertifiable pivots
    anchors: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.basis) != self.rank:
            raise ValueError("rank must equal the number of basis fields")
        nonzero = [[not c.is_const_zero() for c in Y.components] for Y in self.basis]
        alone = [sum(col) == 1 for col in zip(*nonzero)]
        anchors = tuple(next((a for a, nz in enumerate(own) if nz and alone[a]), None) for own in nonzero)
        if None in anchors:
            raise ValueError("a basis field has no column where it alone is nonzero")
        object.__setattr__(self, "anchors", anchors)


@dataclass(frozen=True)
class FrobeniusResult:
    verdict: str  # "integrable" | "not_integrable" | "unknown"
    witness_pair: Optional[tuple[int, int]] = None
    witness_point: Optional[dict] = None
    detail: str = ""


# ---------------------------------------------------------------------------
# contraction systems


def contraction_matrix(eta: DiffForm) -> tuple[list[tuple], list[list[Expr]]]:
    """Coefficient matrix of iota_Y eta = 0: rows are the ascending
    (deg-1)-indices K that the contractions reach, and entry (K, i) is the
    coefficient c of the index K with i inserted, signed as
    `forms.interior` signs it (-c when i sits at an odd position)."""
    entries: dict[tuple, list[Expr]] = {}
    for J, c in eta.terms.items():
        for pos, i in enumerate(J):
            row = entries.setdefault(J[:pos] + J[pos + 1 :], [sx.ZERO] * eta.chart.dim)
            row[i] = -c if pos % 2 else c
    rows = sorted(entries)
    return rows, [entries[K] for K in rows]


def _fiber_first_groups(chart: Chart, cols: list[int]) -> Optional[list[list[int]]]:
    """Pivot preference: primary fiber, residual fiber, then base columns;
    kernel bases then come out in the factors' transversal normal form."""
    if not isinstance(chart, BundleChart):
        return None
    rel = {c: i for i, c in enumerate(cols)}
    kz, kw, kb = [], [], []
    for c in cols:
        if c < chart.k:
            kb.append(rel[c])
        elif c < chart.k + chart.p:
            kz.append(rel[c])
        else:
            kw.append(rel[c])
    return [g for g in (kz, kw, kb) if g]


def _distribution_from_matrix(
    mat: list[list[Expr]],
    chart: Chart,
    box,
    seed: int,
    what: str,
    vertical_only: bool = False,
) -> Distribution:
    """Solve mat . Y = 0 over the expression field and certify the rank.

    `vertical_only` restricts the unknown vector to the fiber coordinates
    of a bundle chart; the returned fields are zero on the base.
    """
    n = chart.dim
    cols = list(range(n))
    if vertical_only:
        if not isinstance(chart, BundleChart):
            raise ChartMismatchError("vertical restriction needs a bundle chart")
        cols = cols[chart.k :]
    sub = [[row[c] for c in cols] for row in mat]
    groups = _fiber_first_groups(chart, cols)
    elim = la.gauss_eliminate(sub, box=box, seed=seed, col_groups=groups)
    cert = la.certify_rank(sub, box=box, seed=seed, expected=elim.rank, what=what)
    basis = []
    for vec in la.kernel_basis(elim):
        comps = [sx.ZERO] * n
        for c, v in zip(cols, vec):
            comps[c] = v
        basis.append(VecField(chart, comps))
    dist = Distribution(chart, tuple(basis), len(basis), cert, uncertain=elim.uncertain)
    _check_definitional_residual(mat, dist)
    la.certify_rank(
        [list(Y.components) for Y in basis],
        box,
        seed,
        count=16,
        expected=len(basis),
        what="distribution basis",
    )
    return dist


def _check_definitional_residual(mat, dist: Distribution):
    # iota_Y (defining system) must cancel exactly for every basis field
    for Y in dist.basis:
        for row in mat:
            acc = sx.ZERO
            for c, comp in zip(row, Y.components):
                acc = acc + c * comp
            if not acc.is_const_zero():
                raise InvariantViolationError("kernel basis fails the defining contraction")


def characteristic_distribution(
    forms: Sequence[DiffForm],
    box=None,
    seed: int = DEFAULT_SEED,
    vertical_only: bool = False,
    what: str = "characteristic system",
) -> Distribution:
    """Joint kernel of contraction with forms of one degree on one chart:
    eta alone, its one-form factors (k+1 rows, so the kernel basis comes
    out in the factors' own normal form), or the contraction forms `psi`.

    `vertical_only` restricts the kernel to the fiber coordinates of a
    bundle chart; `what` names the system in a rank error."""
    degs = {g.degree for g in forms}
    if len(degs) != 1:
        raise UnequalGeneratorDegreesError(
            f"generators must share one degree, got {sorted(degs)}"
        )
    chart = forms[0].chart
    if any(g.chart != chart for g in forms):
        raise ChartMismatchError("generator lives on a different chart")
    mat: list[list[Expr]] = []
    for g in forms:
        _, part = contraction_matrix(g)
        mat.extend(part)
    if not mat:
        raise ValueError("the kernel of contraction with zero forms is everything")
    return _distribution_from_matrix(mat, chart, box, seed, what, vertical_only=vertical_only)


# ---------------------------------------------------------------------------
# span membership and Frobenius integrability


def combination(D: Distribution, target: Sequence[Expr], cols: Sequence[int]) -> Optional[list[Expr]]:
    """Coefficients u with sum_c u_c Y_c = `target` on the chart columns
    `cols`, or None when there are none of this form.

    u_c is forced on the anchor a_c of Y_c, target[a_c] / Y_c[a_c], when
    a_c lies in `cols`, and is 0 otherwise; the combination is then
    checked canonically on every column of `cols`.  Over all columns the
    forced u is the only candidate, so None means `target` is not in the
    span wherever the canonical zero test is exact."""
    inside = set(cols)
    u = [
        target[a] / Y.components[a] if a in inside else sx.ZERO
        for Y, a in zip(D.basis, D.anchors)
    ]
    for i in cols:
        acc = target[i]
        for uc, Y in zip(u, D.basis):
            acc = acc - uc * Y.components[i]
        if not acc.is_const_zero():
            return None
    return u


def frobenius_check(D: Distribution) -> FrobeniusResult:
    """Bracket-closure test for a rank-certified distribution.

    Symbolic span membership first, read off the basis anchors with no
    elimination (`combination` over all columns); a pair whose bracket
    stays outside the span symbolically is then tested numerically at
    points drawn in the box and with the seed of D's certificate:
    residual above 1e-9 somewhere -> not integrable (witness point),
    everywhere below -> unknown (numerically integrable only).
    """
    box, seed = D.certificate.box, D.certificate.seed
    basis = D.basis
    A = [[Y.components[c] for Y in basis] for c in range(D.chart.dim)]
    numeric_only = False
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            Z = lie_bracket(basis[i], basis[j])
            if Z.is_zero_field():
                continue
            if combination(D, Z.components, range(D.chart.dim)) is not None:
                continue
            # numeric fallback: least squares at fresh sample points
            import numpy as np

            exprs = [e for Y in basis for e in Y.components] + list(Z.components)
            symbols, points = sx.sample_points(exprs, box=box, seed=seed, count=32, center=True)
            points = list(points)
            A_at, A_failures = la.sample_stack(A, symbols, points)
            b_at, b_failures = la.sample_stack([Z.components], symbols, points)
            # a point evaluates A before b
            failure = min(A_failures[:1] + b_failures[:1], key=lambda f: f[0], default=None)
            if failure is not None:
                raise failure[1]
            worst, worst_at = 0.0, None  # the first point of the largest residual
            for at, (Ai, bi) in enumerate(zip(A_at, b_at[:, 0])):
                coef, *_ = np.linalg.lstsq(Ai, bi, rcond=None)
                res = float(np.linalg.norm(Ai @ coef - bi))
                if res > worst:
                    worst, worst_at = res, at
            if worst > sx.ZERO_THRESHOLD:
                return FrobeniusResult(
                    "not_integrable",
                    witness_pair=(i, j),
                    witness_point=sx.point_label(symbols, points[worst_at]),
                    detail=f"bracket escapes the span; residual {worst:.3e}",
                )
            numeric_only = True
    if numeric_only:
        return FrobeniusResult(
            "unknown", detail="bracket membership holds numerically but not canonically"
        )
    return FrobeniusResult("integrable")


def span_equal(
    A: Sequence[VecField], B: Sequence[VecField], box=None, seed: int = DEFAULT_SEED
) -> bool:
    """Same span at every certification sample (fields are defined up to
    nonzero function multiples, so only the pointwise span can match)."""
    if not A and not B:
        return True
    matA = [list(Y.components) for Y in A]
    matB = [list(Y.components) for Y in B]
    symbols, points = sx.sample_points(
        [e for row in matA + matB for e in row], box=box, seed=seed, count=la.SAMPLE_COUNT, center=True
    )
    stack, failures = la.sample_stack(matA + matB, symbols, list(points))
    # the points before the first that fails to evaluate decide first
    upto = failures[0][0] if failures else len(stack)
    a = len(matA)
    rA, rB, rAB = (la.numeric_ranks(s[:upto]) for s in (stack[:, :a], stack[:, a:], stack))
    if ((rA != rB) | (rB != rAB)).any():
        return False
    if failures:
        raise failures[0][1]
    return True
