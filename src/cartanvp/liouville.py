"""Volume-preserving dynamics as a maximal-degree variational principle.

Given a phase-space field X preserving a volume form, the action form is
assembled from a primitive of the volume and a primitive of the
contraction (built exactly by the radial homotopy operator on polynomial
coefficients), with the orientation sign resolved empirically: the sign
that makes the extended field annihilate the two-step differential is
kept and recorded.  The Hodge identity between that differential and the
star of the dual one-form is then checked canonically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import symexpr as sx
from . import varprin as vp
from .errors import NonPolynomialCoefficientError, NotClosedError, ZeroEtaError
from .forms import (
    BundleChart,
    Chart,
    DiffForm,
    VecField,
    _collect,
    d_coord,
    dual_one_form,
    ext_d,
    hodge_star,
    interior,
    pullback_with,
    wedge,
)
from .symexpr import Expr

__all__ = [
    "LiouvilleSetup",
    "is_liouville",
    "homotopy_antiderivative",
    "build_setup",
    "build_theta",
    "verify_hodge_identity",
]


@dataclass(frozen=True)
class LiouvilleSetup:
    phase: Chart
    omega: DiffForm  # volume form on the phase chart
    sigma: DiffForm  # d(sigma) = omega
    X: VecField
    gamma: DiffForm  # d(gamma) = X -| omega
    extended: BundleChart  # time coordinate prepended
    time_name: str
    sign_s: int  # exponent of (-1) in front of gamma ^ dt
    theta: DiffForm
    Z: VecField  # d/dt + X on the extended chart

    def eta(self) -> DiffForm:
        return ext_d(self.theta)


def is_liouville(X: VecField, omega: DiffForm) -> bool:
    """True iff the contraction of the volume form is closed (the volume
    is preserved); exactness is delivered constructively on star-shaped
    charts by the homotopy operator."""
    if omega.degree != omega.chart.dim:
        raise ValueError("omega must be a top-degree form")
    top = tuple(range(omega.chart.dim))
    coeff = omega.terms.get(top, sx.ZERO)
    if not sx.is_zero(coeff).is_nonzero:
        raise ValueError("omega coefficient is not certified nonvanishing")
    return ext_d(interior(X, omega)).is_zero_form()


def _require_polynomial(e: Expr):
    terms = sx.poly_terms(e)
    if terms is None or any(atom.op != "var" for _, mono in terms for atom, _ in mono):
        raise NonPolynomialCoefficientError(
            f"homotopy operator needs polynomial coefficients, got {e}"
        )


def homotopy_antiderivative(beta: DiffForm) -> DiffForm:
    """Radial homotopy primitive on a star-shaped chart about the origin.

    The contraction of beta with the radial field sum x^i d/dx^i, each
    monomial of total degree d in a q-form term first scaled by its
    radial integral 1/(q+d); d(gamma) = beta whenever beta is closed
    (checked first).
    """
    chart = beta.chart
    q = beta.degree
    if q < 1:
        raise ValueError("need a form of degree at least 1")
    if not ext_d(beta).is_zero_form():
        raise NotClosedError("the form is not closed")
    scaled = []
    for I, c in beta.terms.items():
        _require_polynomial(c)
        weights = {
            mono: sx._coeff(Fraction(coeff, q + sum(e for _, e in mono)))
            for mono, coeff in c._rat.num.items()
        }
        scaled.append((I, sx._Rat(weights, sx._ONE_POLY)))
    radial = VecField(chart, [sx.var(n) for n in chart.coords])
    out = interior(radial, _collect(chart, q, scaled))
    residual = ext_d(out) - beta
    if not residual.is_zero_form():
        raise AssertionError("homotopy primitive failed the round trip")
    return out


def build_setup(
    phase: Chart | list[str],
    omega: DiffForm,
    X: VecField,
    sigma: Optional[DiffForm] = None,
    time_name: str = "t",
) -> LiouvilleSetup:
    """Assemble the action form for a volume-preserving field.

    sigma defaults to the homotopy primitive of omega; gamma is always the
    homotopy primitive of the contraction.  The orientation sign is
    resolved by trying both parities and keeping the one under which the
    extended field annihilates the two-step differential.
    """
    chart = phase if isinstance(phase, Chart) else Chart(tuple(phase))
    nP = chart.dim
    if nP < 2:
        raise ValueError("phase space must be at least two-dimensional")
    if not is_liouville(X, omega):
        raise NotClosedError("the field does not preserve the volume form")
    if sigma is None:
        sigma = homotopy_antiderivative(omega)
    elif ext_d(sigma) != omega:
        raise ValueError("sigma is not a primitive of omega")
    gamma = homotopy_antiderivative(interior(X, omega))

    base = (time_name,) + chart.coords[: nP - 2]
    fiber = chart.coords[nP - 2 :]
    ext = BundleChart(base, fiber)
    sigma_M = _lift(sigma, ext)
    gamma_M = _lift(gamma, ext)
    dt = d_coord(ext, time_name)
    Z = VecField(
        ext,
        [sx.ONE] + [X.components[chart.index(c)] for c in chart.coords],
    )
    chosen = None
    for s in (0, 1):
        theta = sigma_M + wedge(gamma_M, dt) * sx.num((-1) ** s)
        eta = ext_d(theta)
        if eta.is_zero_form():
            continue
        if interior(Z, eta).is_zero_form():
            chosen = (s, theta)
            break
    if chosen is None:
        # X = 0 leaves gamma = 0; fall back to the orientation parity
        s = (nP) % 2
        theta = sigma_M + wedge(gamma_M, dt) * sx.num((-1) ** s)
        if ext_d(theta).is_zero_form():
            raise ZeroEtaError("the assembled action form is closed")
        if not interior(Z, ext_d(theta)).is_zero_form():
            raise AssertionError("no orientation sign makes Z characteristic")
        chosen = (s, theta)
    s, theta = chosen
    if not interior(Z, dt).terms.get((), sx.ZERO) == sx.ONE:
        raise AssertionError("Z fails the time normalization")
    return LiouvilleSetup(
        phase=chart,
        omega=omega,
        sigma=sigma,
        X=X,
        gamma=gamma,
        extended=ext,
        time_name=time_name,
        sign_s=s,
        theta=theta,
        Z=Z,
    )


def _lift(form: DiffForm, ext: BundleChart) -> DiffForm:
    """Pull a phase-chart form back to the extended chart along the
    projection that forgets time: each differential goes to the one of
    the same name."""
    diff_map = {i: d_coord(ext, name) for i, name in enumerate(form.chart.coords)}
    return pullback_with(form, ext, diff_map, {})


def build_theta(setup: LiouvilleSetup, box=None, seed=sx.DEFAULT_SEED) -> vp.VariationalProblem:
    """The maximal-degree variational problem of the assembled action form;
    asserts that the extended field is characteristic and normalized."""
    problem = vp.build_problem(setup.extended, theta=setup.theta, box=box, seed=seed)
    eta = problem.eta
    if not interior(setup.Z, eta).is_zero_form():
        raise AssertionError("extended field is not characteristic")
    if problem.classification.degree_case != vp.MAXIMAL_DEGREE:
        raise AssertionError("expected a maximal-degree problem")
    return problem


def verify_hodge_identity(setup: LiouvilleSetup) -> tuple[bool, int]:
    """Euclidean-metric identity between d(theta) and the star of the dual
    of Z; returns (holds, resolved sign in {+1, -1, 0})."""
    eta = setup.eta()
    star = hodge_star(dual_one_form(setup.Z))
    if (eta - star).is_zero_form():
        return True, 1
    if (eta + star).is_zero_form():
        return True, -1
    return False, 0
