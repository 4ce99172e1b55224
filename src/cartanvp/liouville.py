"""Volume-preserving dynamics as a maximal-degree variational principle.

Given a phase-space field X preserving a volume form, the action form is
assembled from a primitive of the volume and a primitive of the
contraction (built exactly by the radial homotopy operator on polynomial
coefficients), with the orientation sign s = nP mod 2 on a phase space of
dimension nP: iota_Z(omega + (-1)^s iota_X omega ^ dt) equals
(1 + (-1)^(s+nP-1)) iota_X omega, so that sign, and for X != 0 only that
one, makes the extended field Z annihilate the two-step differential.
That and the Hodge identity with the star of Z's dual are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import symexpr as sx
from . import varprin as vp
from .errors import InvariantViolationError, NonPolynomialCoefficientError, NotClosedError
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
    problem: vp.VariationalProblem  # of theta, default box and seed
    Z: VecField  # d/dt + X on the extended chart

    @property
    def theta(self) -> DiffForm:
        return self.problem.theta

    def eta(self) -> DiffForm:
        return self.problem.eta


def is_liouville(X: VecField, omega: DiffForm) -> bool:
    """True iff the contraction of the volume form is closed (the volume
    is preserved); exactness is delivered constructively on star-shaped
    charts by the homotopy operator."""
    return ext_d(_volume_contraction(X, omega)).is_zero_form()


def _volume_contraction(X: VecField, omega: DiffForm) -> DiffForm:
    """X -| omega, for omega a volume form: top degree, with a coefficient
    certified nonvanishing."""
    if omega.degree != omega.chart.dim:
        raise ValueError("omega must be a top-degree form")
    top = tuple(range(omega.chart.dim))
    coeff = omega.terms.get(top, sx.ZERO)
    if not sx.is_zero(coeff).is_nonzero:
        raise ValueError("omega coefficient is not certified nonvanishing")
    return interior(X, omega)


def _require_polynomial(e: Expr):
    terms = sx.poly_terms(e)
    if terms is None or any(atom.key()[0] != "v" for _, mono in terms for atom, _ in mono):
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
    if beta.degree < 1:
        raise ValueError("need a form of degree at least 1")
    if not ext_d(beta).is_zero_form():
        raise NotClosedError("the form is not closed")
    return _radial_primitive(beta)


def _radial_primitive(beta: DiffForm) -> DiffForm:
    # `homotopy_antiderivative` once beta is known to be closed
    chart = beta.chart
    q = beta.degree
    scaled = []
    for I, c in beta.terms.items():
        _require_polynomial(c)
        scaled.append((I, sx._rat_radial_integral(c._rat, q)))
    radial = VecField(chart, [sx.var(n) for n in chart.coords])
    out = interior(radial, _collect(chart, q, scaled))
    if ext_d(out) != beta:
        raise InvariantViolationError("homotopy primitive failed the round trip")
    return out


def build_setup(
    phase: Chart | list[str],
    omega: DiffForm,
    X: VecField,
    sigma: Optional[DiffForm] = None,
    time_name: str = "t",
) -> LiouvilleSetup:
    """Assemble the action form for a volume-preserving field.

    Raises NotClosedError when X does not preserve omega.  sigma defaults
    to the homotopy primitive of omega; gamma is always the homotopy
    primitive of the contraction.  The orientation sign is s = nP mod 2
    (see the module docstring); that the extended field annihilates the
    two-step differential is checked, not assumed, on the eta of the one
    variational problem built here.
    """
    chart = phase if isinstance(phase, Chart) else Chart(tuple(phase))
    beta = _volume_contraction(X, omega)
    if not ext_d(beta).is_zero_form():
        raise NotClosedError("the field does not preserve the volume form")
    nP = chart.dim
    if nP < 2:
        raise ValueError("phase space must be at least two-dimensional")
    if sigma is None:
        sigma = homotopy_antiderivative(omega)
    elif ext_d(sigma) != omega:
        raise ValueError("sigma is not a primitive of omega")
    gamma = _radial_primitive(beta)

    base = (time_name,) + chart.coords[: nP - 2]
    fiber = chart.coords[nP - 2 :]
    ext = BundleChart(base, fiber)
    dt = d_coord(ext, time_name)
    Z = VecField(ext, [sx.ONE, *X.components])
    s = nP % 2
    theta = _lift(sigma, ext) + wedge(_lift(gamma, ext), dt) * sx.num((-1) ** s)
    problem = vp.build_problem(ext, theta=theta)
    if not interior(Z, problem.eta).is_zero_form():
        raise InvariantViolationError("the orientation sign nP mod 2 leaves Z non-characteristic")
    if not interior(Z, dt).terms.get((), sx.ZERO) == sx.ONE:
        raise InvariantViolationError("Z fails the time normalization")
    return LiouvilleSetup(
        phase=chart,
        omega=omega,
        sigma=sigma,
        X=X,
        gamma=gamma,
        extended=ext,
        time_name=time_name,
        sign_s=s,
        problem=problem,
        Z=Z,
    )


def _lift(form: DiffForm, ext: BundleChart) -> DiffForm:
    """Pull a phase-chart form back to the extended chart along the
    projection that forgets time: each differential goes to the one of
    the same name."""
    diff_map = {i: d_coord(ext, name) for i, name in enumerate(form.chart.coords)}
    return pullback_with(form, ext, diff_map, {})


def build_theta(setup: LiouvilleSetup, box=None, seed=sx.DEFAULT_SEED) -> vp.VariationalProblem:
    """The maximal-degree variational problem of the assembled action form
    (the setup's problem, on `box` and `seed`); `build_setup` has checked
    that the extended field is characteristic and normalized."""
    return replace(setup.problem, box=box, seed=seed)


def verify_hodge_identity(setup: LiouvilleSetup) -> tuple[bool, int]:
    """Euclidean-metric identity between d(theta) and the star of the dual
    of Z; returns (holds, resolved sign in {+1, -1, 0})."""
    eta = setup.eta()
    star = hodge_star(dual_one_form(setup.Z))
    if eta == star:
        return True, 1
    if eta == -star:
        return True, -1
    return False, 0
