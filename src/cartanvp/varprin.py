"""Variational principles: the contraction module, properness, the
critical-section PDE system, and characteristic fields.

The critical equations carry formal jet symbols (Dz1_x2 for the x2-slope
of z1) as first-class variables, so they are ordinary scalar expressions;
substituting a concrete section replaces the jets by actual derivatives.
For decomposable problems the equations are the signed maximal minors of
the slope matrix P, and the identity between those minors and the
coefficient of the base volume form in the pulled-back contractions is
asserted canonically on every build (any global rational constant between
the two routes is computed and reported; it is 1 for these conventions).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from . import decomp as dc
from . import ideals as ids
from . import linalg as la
from . import symexpr as sx
from .errors import (
    ChartMismatchError,
    DegreeMismatchError,
    ImproperPrincipleError,
    InvariantViolationError,
    NormalFormRequiredError,
    ZeroEtaError,
)
from .forms import (
    BundleChart,
    DiffForm,
    SectionMap,
    VecField,
    coord_field,
    d_coord,
    ext_d,
    hodge_star,
    interior,
    one_form,
    pullback,
    pullback_with,
)
from .symexpr import DEFAULT_SEED, Expr

__all__ = [
    "Classification",
    "VariationalProblem",
    "CriticalSystem",
    "VerifyReport",
    "build_problem",
    "critical_equations",
    "characteristic_field_maximal_degree",
    "verify_critical",
    "jet_name",
    "formal_jet_pullback",
]

MAXIMAL_DEGREE = "maximal_degree"
MAXIMALLY_CHARACTERISTIC = "maximally_characteristic"
INTERMEDIATE = "intermediate"
NON_PROPER_RANGE = "non_proper_range"
DEGENERATE_RANGE = "degenerate_range"


def jet_name(fiber: str, base: str) -> str:
    return f"D{fiber}_{base}"


@dataclass(frozen=True)
class Classification:
    n: int
    k: int
    degree_case: str
    proper: str  # "proper" | "not_proper" | "unknown"
    q: int  # dim of the annihilator of eta
    vertical_dim: int  # dim of the vertical part of the annihilator
    r: int  # transversal dimension q - vertical_dim
    h: Optional[int]  # 2k+1-n when in the decomposable proper range
    expected_annihilator_dim: Optional[int]  # n-k-1 for nondegenerate decomposable input


@dataclass(frozen=True)
class VariationalProblem:
    """A problem as `build_problem` assembles it: chart, theta, eta, the
    normalized factors and the contraction forms `psi`, eta contracted
    with the fiber coordinate fields in chart order.  The annihilator,
    the vertical annihilator, the classification and the critical system
    are computed on first read and kept on the problem (`cached_property`
    writes the instance dict, which a frozen dataclass leaves open), so a
    command builds only the distributions it reports."""

    chart: BundleChart
    theta: Optional[DiffForm]
    eta: DiffForm
    factors: Optional[dc.FactorSet]
    psi: tuple[DiffForm, ...]
    box: object = None
    seed: int = DEFAULT_SEED

    @property
    def degree_case(self) -> str:
        return _degree_case(self.chart.dim, self.chart.k)

    @cached_property
    def annihilator(self) -> ids.Distribution:
        return self._kernel(vertical_only=False)

    @cached_property
    def vertical_annihilator(self) -> ids.Distribution:
        return self._kernel(vertical_only=True)

    def _kernel(self, vertical_only: bool) -> ids.Distribution:
        # the joint kernel of the factors is the annihilator of their
        # wedge, with the basis in the factors' normal form
        if self.factors is not None:
            forms, what = self.factors.alphas, "factor annihilator system"
        else:
            forms, what = (self.eta,), "annihilator system"
        return ids.characteristic_distribution(
            forms,
            box=self.box,
            seed=self.seed,
            vertical_only=vertical_only,
            what="vertical " + what if vertical_only else what,
        )

    @cached_property
    def classification(self) -> Classification:
        ann, vert = self.annihilator, self.vertical_annihilator
        n, k = self.chart.dim, self.chart.k
        if vert.rank > 0:
            proper = "not_proper"
        elif vert.uncertain:
            proper = "unknown"
        else:
            proper = "proper"
        return Classification(
            n=n,
            k=k,
            degree_case=self.degree_case,
            proper=proper,
            q=ann.rank,
            vertical_dim=vert.rank,
            r=ann.rank - vert.rank,
            h=2 * k + 1 - n if 0 <= 2 * k + 1 - n <= k - 1 else None,
            expected_annihilator_dim=n - k - 1 if self.factors is not None else None,
        )

    @cached_property
    def critical_system(self) -> CriticalSystem:
        return _critical_equations(self)


@dataclass(frozen=True)
class CriticalSystem:
    deltas: tuple[Expr, ...]
    jet_names: tuple[str, ...]
    P: Optional[tuple[tuple[Expr, ...], ...]]
    rows: tuple[int, ...]  # equation a belongs to the contraction form psi[rows[a]]
    route: str  # "minors" | "maximal_degree"
    ratio: Fraction  # pulled-back coefficient / delta, one nonzero constant


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    residuals: tuple[Expr, ...]
    cross_checked: bool


def _degree_case(n: int, k: int) -> str:
    if k == n - 2:
        return MAXIMAL_DEGREE
    if n == 2 * k + 1:
        return MAXIMALLY_CHARACTERISTIC
    if k + 2 < n < 2 * k + 1:
        return INTERMEDIATE
    if n > 2 * k + 1:
        return NON_PROPER_RANGE
    return DEGENERATE_RANGE


def build_problem(
    chart: BundleChart,
    theta: Optional[DiffForm] = None,
    factors: Optional[Sequence[DiffForm] | dc.FactorSet] = None,
    box=None,
    seed: int = DEFAULT_SEED,
) -> VariationalProblem:
    """Assemble the variational problem from theta or from factor input.

    eta is d(theta) or the wedge of the factors; the contraction forms are
    eta contracted with the fiber coordinate fields, in chart order.
    No distribution is built here: the annihilator, the vertical
    annihilator and the classification are computed on first read.
    """
    if theta is None and factors is None:
        raise ValueError("need theta or factors")
    fs: Optional[dc.FactorSet] = None
    if factors is not None:
        fs = given = factors if isinstance(factors, dc.FactorSet) else dc.FactorSet(chart, tuple(factors))
        if not fs.normalized:
            fs = dc.normalize(fs, box=box, seed=seed)
        eta = fs.eta()
    if theta is not None:
        if theta.chart != chart:
            raise ChartMismatchError("theta lives on a different chart")
        if theta.degree != chart.k:
            raise DegreeMismatchError(
                f"theta must have degree k = {chart.k}, got {theta.degree}"
            )
        eta_from_theta = ext_d(theta)
        if fs is not None:
            # normalizing rescales the wedge by fs.multiplier: compare the
            # wedge of the factors as given
            if eta_from_theta != (eta if given is fs else given.eta()):
                raise DegreeMismatchError("d(theta) does not match the factor wedge")
        else:
            eta = eta_from_theta
    if eta.is_zero_form():
        raise ZeroEtaError("eta vanishes identically")
    psi = tuple(interior(coord_field(chart, name), eta) for name in chart.fiber)
    return VariationalProblem(
        chart=chart,
        theta=theta,
        eta=eta,
        factors=fs,
        psi=psi,
        box=box,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# critical equations


def formal_jet_pullback(p: VariationalProblem, form: DiffForm) -> DiffForm:
    """Pull back along the formal section: fiber differentials become jet
    combinations of base differentials, coefficients stay untouched."""
    chart = p.chart
    target = chart.base_only()
    diff_map = {}
    for i, name in enumerate(chart.coords):
        if chart.is_base(i):
            diff_map[i] = d_coord(target, name)
        else:
            diff_map[i] = one_form(
                target, {b: sx.var(jet_name(name, b)) for b in chart.base}
            )
    return pullback_with(form, target, diff_map, {})


def _omega_coefficient(form: DiffForm) -> Expr:
    idx = tuple(range(form.chart.dim))
    if form.degree != form.chart.dim:
        raise DegreeMismatchError("expected a top-degree form on the base")
    return form.terms.get(idx, sx.ZERO)


def _signed_minor(P: Sequence[Sequence[Expr]], a: int) -> Expr:
    rows = [list(r) for i, r in enumerate(P) if i != a]
    det = la.determinant(rows)
    return det if a % 2 == 0 else -det


def critical_equations(p: VariationalProblem) -> CriticalSystem:
    """The residual expressions whose vanishing picks out critical sections,
    computed once per problem and kept on it.

    Decomposable route: signed k x k minors of the slope matrix P, whose
    row i holds the base coefficients of normalized factor i once each
    fiber differential dc is replaced by sum_j Dc_xj dx^j; row a of the
    system belongs to the contraction form of the a-th pivot column.
    Maximal-degree route: the two quasilinear transport residuals read
    off the coordinate display of eta, row a belonging to the contraction
    form of the a-th fiber coordinate.  In both routes the coefficient of
    the base volume form in the formally pulled-back contraction forms is
    computed independently and must be one nonzero constant times the
    equations, payload by payload (the constant is reported).
    """
    return p.critical_system


def _critical_equations(p: VariationalProblem) -> CriticalSystem:
    chart = p.chart
    if p.factors is not None and p.factors.normalized:
        fs = p.factors
        P: list[list[Expr]] = []
        for alpha in fs.alphas:
            fiber = [(c, a) for (c,), a in alpha.terms.items() if not chart.is_base(c)]
            row = []
            for j, bname in enumerate(chart.base):
                entry = alpha.terms.get((j,), sx.ZERO)
                for c, a in fiber:
                    entry = entry + a * sx.var(jet_name(chart.coords[c], bname))
                row.append(entry)
            P.append(row)
        deltas = tuple(_signed_minor(P, a) for a in range(len(fs.z_order)))
        rows = tuple(c - chart.k for c in fs.z_order)
        return _checked_system(p, deltas, tuple(tuple(r) for r in P), rows, "minors")
    if p.degree_case == MAXIMAL_DEGREE:
        A, f, g = maximal_degree_data(p)
        zname, wname = chart.fiber[0], chart.fiber[1]
        d1 = sx.ZERO
        d2 = sx.ZERO
        for mu, bname in enumerate(chart.base):
            d1 = d1 + A[mu] * sx.var(jet_name(wname, bname))
            d2 = d2 + A[mu] * sx.var(jet_name(zname, bname))
        return _checked_system(p, (d1 - g, f - d2), None, (0, 1), "maximal_degree")
    raise NormalFormRequiredError(
        "critical equations need normalized factors or a maximal-degree problem"
    )


def _checked_system(
    p: VariationalProblem, deltas: tuple, P: Optional[tuple], rows: tuple, route: str
) -> CriticalSystem:
    """The critical system of `deltas`, once the coefficient of the base
    volume form in the formal pullback of each contraction form
    p.psi[rows[a]] is found to be one nonzero constant times Delta_a: row
    by row `==` first, else `sx.constant_ratio` of the payloads."""
    ratio: Optional[Fraction] = None
    for a, (row, delta) in enumerate(zip(rows, deltas)):
        pb = _omega_coefficient(formal_jet_pullback(p, p.psi[row]))
        r = Fraction(1) if pb == delta else sx.constant_ratio(pb, delta)
        if r is None:
            raise InvariantViolationError(
                f"pullback coefficient and minor differ beyond a constant at row {a}"
            )
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise InvariantViolationError("minor-vs-pullback constants differ across rows")
    jets = {jet_name(f, b) for f in p.chart.fiber for b in p.chart.base}
    seen = set().union(*(sx.free_vars(d) & jets for d in deltas))
    ratio = ratio if ratio is not None else Fraction(1)
    return CriticalSystem(deltas, tuple(sorted(seen)), P, rows, route, ratio)


# ---------------------------------------------------------------------------
# the maximal degree case


def maximal_degree_data(p: VariationalProblem) -> tuple[list[Expr], Expr, Expr]:
    """Extract (A, f, g) from the coordinate display of eta for fiber (z, w):
    eta = sum_mu A^mu [omega_(mu) ^ dz ^ dw] + (-1)^k f [omega ^ dw]
          + (-1)^(k+1) g [omega ^ dz].
    The field (A, f, g) is (-1)^(n-1) times the dual of the Hodge star of
    eta, so all three are read off one `hodge_star` call."""
    chart = p.chart
    if p.degree_case != MAXIMAL_DEGREE or len(chart.fiber) != 2:
        raise NormalFormRequiredError("not a maximal-degree problem (fiber must be z, w)")
    star = hodge_star(p.eta)
    if chart.dim % 2 == 0:
        star = -star
    A = [star.terms.get((mu,), sx.ZERO) for mu in range(chart.k)]
    f, g = (star.terms.get((chart.index(z),), sx.ZERO) for z in chart.fiber)
    return A, f, g


def characteristic_field_maximal_degree(p: VariationalProblem) -> VecField:
    """W = sum_mu A^mu d/dx^mu + f d/dz + g d/dw, asserted to annihilate eta."""
    chart = p.chart
    A, f, g = maximal_degree_data(p)
    if all(a.is_const_zero() for a in A):
        raise ImproperPrincipleError("the base vector of eta vanishes identically")
    W = VecField(chart, list(A) + [f, g])
    if not interior(W, p.eta).is_zero_form():
        raise InvariantViolationError("characteristic field fails to annihilate eta")
    return W


# ---------------------------------------------------------------------------
# verification of candidate sections


def verify_critical(p: VariationalProblem, phi: SectionMap) -> VerifyReport:
    """Pull every contraction form back along the section; all residual
    volume coefficients must cancel.  When the critical equations are
    available each is cross-checked canonically, jet-substituted, against
    the residual of its contraction form: that of its pivot column on the
    minors route, of its fiber coordinate on the maximal-degree route."""
    if phi.chart != p.chart:
        raise ChartMismatchError("section lives on a different chart")
    residuals = [_omega_coefficient(pullback(phi, psi)) for psi in p.psi]
    ok = all(r.is_const_zero() for r in residuals)
    try:
        system = critical_equations(p)
    except NormalFormRequiredError:
        return VerifyReport(ok, tuple(residuals), False)
    sub: dict[str, Expr] = {}
    for fname in p.chart.fiber:
        sub[fname] = phi.components[fname]
        for bname in p.chart.base:
            sub[jet_name(fname, bname)] = sx.diff(phi.components[fname], bname)
    for a, (row, delta) in enumerate(zip(system.rows, system.deltas)):
        if residuals[row] != sx.subst(delta, sub) * sx.num(system.ratio):
            raise InvariantViolationError(
                f"jet substitution disagrees with the direct pullback at row {a}"
            )
    return VerifyReport(ok, tuple(residuals), True)
