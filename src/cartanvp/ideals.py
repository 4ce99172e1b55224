"""Cartan ideals, characteristic distributions, and Frobenius checks.

A distribution's rank is certified by sampling, never proved: the
certificate records the seed, sample points, and per-point numeric ranks.
Generic coefficient atoms (opaque functions) are drawn as independent
uniform values per sample point, which realizes "generic B" hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import linalg as la
from . import symexpr as sx
from .errors import (
    ChartMismatchError,
    NonConstantRankError,
    NotClosedError,
    UnequalGeneratorDegreesError,
)
from .forms import (
    BundleChart,
    Chart,
    DiffForm,
    VecField,
    SectionMap,
    _merge_indices,
    coord_field,
    d_coord,
    ext_d,
    interior,
    lie_bracket,
    pullback,
    wedge,
)
from .symexpr import DEFAULT_SEED, Expr

__all__ = [
    "CartanIdeal",
    "Distribution",
    "FrobeniusResult",
    "IntegralSectionReport",
    "complete_to_differential",
    "is_integral_section",
    "annihilator",
    "characteristic_distribution",
    "frobenius_check",
    "complete_ideal_generators",
    "contraction_matrix",
    "reduce_mod_generators",
    "span_equal",
]


@dataclass(frozen=True)
class CartanIdeal:
    """Finitely generated Cartan ideal; `closed` is verified, not assumed."""

    chart: Chart
    generators: tuple[DiffForm, ...]
    closed: bool = False

    def __post_init__(self):
        for g in self.generators:
            if g.chart != self.chart:
                raise ChartMismatchError("generator lives on a different chart")
            if g.is_zero_form():
                raise ValueError("zero form cannot generate")
            if g.degree < 1:
                raise ValueError("generators must have degree >= 1")
        if self.closed:
            for g in self.generators:
                dg = ext_d(g)
                if dg.is_zero_form():
                    continue
                if any(dg == h for h in self.generators):
                    continue
                if not reduce_mod_generators(dg, list(self.generators)).is_zero_form():
                    raise NotClosedError(
                        "ideal marked closed, but a generator's differential "
                        "does not reduce to zero"
                    )

    def degrees(self) -> list[int]:
        return [g.degree for g in self.generators]


@dataclass(frozen=True)
class Distribution:
    """Module of vector fields with a sampled constant-rank certificate."""

    chart: Chart
    basis: tuple[VecField, ...]
    rank: int
    box: object
    certificate: la.RankCertificate = field(compare=False)
    uncertain: bool = False  # elimination met uncertifiable pivots

    def __post_init__(self):
        if len(self.basis) != self.rank:
            raise ValueError("rank must equal the number of basis fields")


@dataclass(frozen=True)
class IntegralSectionReport:
    ok: bool
    residuals: tuple[tuple[int, DiffForm], ...]  # generator position -> pulled-back form


@dataclass(frozen=True)
class FrobeniusResult:
    verdict: str  # "integrable" | "not_integrable" | "unknown"
    witness_pair: Optional[tuple[int, int]] = None
    witness_point: Optional[dict] = None
    detail: str = ""


# ---------------------------------------------------------------------------
# ideal reduction (top multi-index matching; no Groebner completion)

_INDEX_CACHE: dict = {}


def _index_key(idx: tuple, n: int) -> tuple:
    # reversed exponent-vector encoding: lex order on it is multiplicative,
    # and ranking the later (fiber) coordinates first makes variational
    # generators lead with their monic dz blocks
    v = [0] * n
    for i in idx:
        v[n - 1 - i] = 1
    return tuple(v)


def _leading_index(form: DiffForm) -> tuple:
    n = form.chart.dim
    return max(form.terms, key=lambda idx: _index_key(idx, n))


def reduce_mod_generators(f: DiffForm, generators: Sequence[DiffForm]) -> DiffForm:
    """Remainder of f after top-index reduction modulo wedge multiples of
    the generators; a zero remainder certifies ideal membership.

    Quotient coefficients must divide exactly (no denominators appear):
    multiples by functions that are not globally smooth, such as 1/x, are
    not membership witnesses.  Incomplete reductions simply return the
    remainder; no completion is attempted.
    """
    chart = f.chart
    current = f
    while not current.is_zero_form():
        K = _leading_index(current)
        cK = current.terms[K]
        reduced = False
        for g in generators:
            if g.degree > len(K):
                continue
            Jg = _leading_index(g)
            if not set(Jg) <= set(K):
                continue
            C = tuple(i for i in K if i not in Jg)
            sign_merge, _ = _merge_indices(C, Jg)
            quotient, den = sx.numer_denom(cK / (g.terms[Jg] * sx.num(sign_merge)))
            if den != sx.ONE:
                continue
            rho = DiffForm(chart, len(C), {C: quotient})
            current = current - wedge(rho, g)
            reduced = True
            break
        if not reduced:
            return current
    return current


def complete_to_differential(J: CartanIdeal) -> CartanIdeal:
    """Complete to a differential ideal by adjoining the exterior
    derivatives that fail the membership reduction; idempotent."""
    gens = list(J.generators)
    added = []
    for g in J.generators:
        dg = ext_d(g)
        if dg.is_zero_form():
            continue
        if reduce_mod_generators(dg, gens + added).is_zero_form():
            continue
        added.append(dg)
    return CartanIdeal(J.chart, tuple(gens + added), closed=True)


def is_integral_section(J: CartanIdeal, phi: SectionMap) -> IntegralSectionReport:
    """Section test per generator pullback; lists nonzero residual forms."""
    if phi.chart != J.chart:
        raise ChartMismatchError("section and ideal live on different charts")
    residuals = []
    for pos, g in enumerate(J.generators):
        pb = pullback(phi, g)
        if not pb.is_zero_form():
            residuals.append((pos, pb))
    return IntegralSectionReport(not residuals, tuple(residuals))


# ---------------------------------------------------------------------------
# contraction systems


def contraction_matrix(eta: DiffForm) -> tuple[list[tuple], list[list[Expr]]]:
    """Coefficient matrix of iota_Y eta = 0: column i is the contraction
    of eta with d/dx^i, rows are the ascending (deg-1)-indices it reaches."""
    chart = eta.chart
    cols = [interior(coord_field(chart, name), eta).terms for name in chart.coords]
    rows = sorted(set().union(*cols))
    return rows, [[col.get(K, sx.ZERO) for col in cols] for K in rows]


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
    dist = Distribution(chart, tuple(basis), len(basis), box, cert, uncertain=elim.uncertain)
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
            if not sx.canon(acc).is_const_zero():
                raise AssertionError("kernel basis fails the defining contraction")


def annihilator(eta: DiffForm, box=None, seed: int = DEFAULT_SEED) -> Distribution:
    """Solution module of iota_Y eta = 0 (Gaussian elimination over the
    expression field; rank certified constant by sampling)."""
    if eta.is_zero_form():
        raise ValueError("annihilator of the zero form is everything")
    _, mat = contraction_matrix(eta)
    return _distribution_from_matrix(mat, eta.chart, box, seed, "annihilator system")


def characteristic_distribution(
    J: CartanIdeal, box=None, seed: int = DEFAULT_SEED
) -> Distribution:
    """Joint kernel of contraction with the generators; valid when all
    generators share the lowest degree."""
    degs = set(J.degrees())
    if len(degs) != 1:
        raise UnequalGeneratorDegreesError(
            f"generators must share one degree, got {sorted(degs)}"
        )
    mat: list[list[Expr]] = []
    for g in J.generators:
        _, part = contraction_matrix(g)
        mat.extend(part)
    return _distribution_from_matrix(mat, J.chart, box, seed, "characteristic system")


def vertical_annihilator(
    eta: DiffForm, box=None, seed: int = DEFAULT_SEED
) -> Distribution:
    """Annihilator restricted to vertical fields (fiber components only)."""
    _, mat = contraction_matrix(eta)
    return _distribution_from_matrix(
        mat, eta.chart, box, seed, "vertical annihilator system", vertical_only=True
    )


def annihilator_from_factors(
    chart: Chart,
    alphas: Sequence[DiffForm],
    box=None,
    seed: int = DEFAULT_SEED,
    vertical_only: bool = False,
) -> Distribution:
    """Joint kernel of the one-form factors.

    For an independent factor set this is the annihilator of their wedge
    (the annihilator of a decomposable form is the intersection of the
    factor annihilators), but the system has only k+1 rows, so the kernel
    basis comes out in the factors' own normal form.
    """
    mat = [[a.terms.get((i,), sx.ZERO) for i in range(chart.dim)] for a in alphas]
    what = "vertical factor annihilator system" if vertical_only else "factor annihilator system"
    return _distribution_from_matrix(mat, chart, box, seed, what, vertical_only=vertical_only)


# ---------------------------------------------------------------------------
# Frobenius integrability


def frobenius_check(D: Distribution, box=None, seed: int = DEFAULT_SEED) -> FrobeniusResult:
    """Bracket-closure test for a rank-certified distribution.

    Symbolic span membership first; a pair whose bracket stays outside the
    span symbolically is then tested numerically at the certification
    samples: residual above 1e-9 somewhere -> not integrable (witness
    point), everywhere below -> unknown (numerically integrable only).
    """
    box = box if box is not None else D.box
    basis = D.basis
    A = [[Y.components[c] for Y in basis] for c in range(D.chart.dim)]
    numeric_only = False
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            Z = lie_bracket(basis[i], basis[j])
            if Z.is_zero_field():
                continue
            if la.solve_linear(A, Z.components, box=box, seed=seed) is not None:
                continue
            # numeric fallback: least squares at fresh sample points
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


def complete_ideal_generators(
    D: Distribution, box=None, seed: int = DEFAULT_SEED
) -> list[DiffForm]:
    """One-forms whose joint kernel is exactly the span of D, built from
    the Euclidean-orthogonal complement of the basis."""
    box = box if box is not None else D.box
    chart = D.chart
    if not D.basis:
        return [d_coord(chart, name) for name in chart.coords]
    mat = [list(Y.components) for Y in D.basis]
    kernel = la.nullspace(mat, box=box, seed=seed)
    out = []
    for vec in kernel:
        alpha = DiffForm(chart, 1, {(i,): v for i, v in enumerate(vec)})
        if not all(interior(Y, alpha).is_zero_form() for Y in D.basis):
            raise AssertionError("complement one-form fails to annihilate the basis")
        out.append(alpha)
    if len(out) != chart.dim - D.rank:
        raise NonConstantRankError(
            f"expected {chart.dim - D.rank} complement forms, got {len(out)}"
        )
    return out


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
