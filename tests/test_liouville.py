import dataclasses

import itertools
import random

import pytest

from cartanvp import forms as fm
from cartanvp import ideals as ids
from cartanvp import liouville as lv
from cartanvp import symexpr as sx
from cartanvp import varprin as vp
from cartanvp.errors import NonPolynomialCoefficientError, NotClosedError
from conftest import rand_poly

x, y = sx.variables("x y")


def plane():
    P = fm.Chart(["x", "y"])
    return P, fm.volume_form(P)


class TestIsLiouville:
    def test_rotation_field(self):
        P, omega = plane()
        assert lv.is_liouville(fm.VecField(P, [-1 * y, x]), omega)

    def test_scaling_field_is_not(self):
        P, omega = plane()
        assert not lv.is_liouville(fm.VecField(P, [x, sx.ZERO]), omega)

    def test_hamiltonian_field_divergence_oracle(self):
        # field of H = (x^2 + y^2)/2: components (-dH/dy, dH/dx)
        P, omega = plane()
        H = (x**2 + y**2) / 2
        X = fm.VecField(P, [sx.canon(-sx.diff(H, "y")), sx.diff(H, "x")])
        div = sx.canon(sx.diff(X.components[0], "x") + sx.diff(X.components[1], "y"))
        assert div.is_const_zero()
        assert lv.is_liouville(X, omega)


class TestHomotopy:
    def test_standard_output(self):
        P, omega = plane()
        gamma = lv.homotopy_antiderivative(omega)
        want = fm.one_form(P, {"x": sx.canon(-y / 2), "y": sx.canon(x / 2)})
        assert gamma == want

    def test_right_inverse(self):
        P, _ = plane()
        beta = fm.ext_d(fm.DiffForm(P, 1, {(0,): sx.canon(x**2 * y)}))
        out = lv.homotopy_antiderivative(beta)
        assert fm.ext_d(out) == beta

    def test_contraction_roundtrip(self):
        P, omega = plane()
        X = fm.VecField(P, [-1 * y, x])
        beta = fm.interior(X, omega)
        gamma = lv.homotopy_antiderivative(beta)
        assert fm.ext_d(gamma) == beta

    def test_not_closed_rejected(self):
        P, _ = plane()
        beta = fm.one_form(P, {"x": sx.canon(x * y)})
        with pytest.raises(NotClosedError):
            lv.homotopy_antiderivative(beta)

    def test_non_polynomial_rejected(self):
        P, _ = plane()
        beta = fm.DiffForm(P, 2, {(0, 1): sx.sin(x)})
        with pytest.raises(NonPolynomialCoefficientError):
            lv.homotopy_antiderivative(beta)


class TestBuildTheta:
    def test_rotation_setup(self):
        P, omega = plane()
        X = fm.VecField(P, [-1 * y, x])
        setup = lv.build_setup(P, omega, X)
        eta = setup.eta()
        assert fm.interior(setup.Z, eta).is_zero_form()
        assert fm.interior(setup.Z, fm.d_coord(setup.extended, "t")).terms[()] == sx.ONE
        problem = lv.build_theta(setup)
        assert problem.classification.degree_case == vp.MAXIMAL_DEGREE
        W = vp.characteristic_field_maximal_degree(problem)
        # the characteristic module is spanned by Z
        assert ids.span_equal([W], [setup.Z])

    def test_zero_field_gives_sigma(self):
        P, omega = plane()
        X = fm.VecField(P, [sx.ZERO, sx.ZERO])
        setup = lv.build_setup(P, omega, X)
        assert setup.gamma.is_zero_form()
        assert setup.theta == lv._lift(setup.sigma, setup.extended)
        problem = lv.build_theta(setup)
        assert problem.annihilator.rank == 1
        assert ids.span_equal(
            list(problem.annihilator.basis), [fm.coord_field(setup.extended, "t")]
        )

    def test_volume_preserving_linear_field(self):
        P, omega = plane()
        X = fm.VecField(P, [x, -1 * y])
        setup = lv.build_setup(P, omega, X)
        problem = lv.build_theta(setup)
        W = vp.characteristic_field_maximal_degree(problem)
        assert ids.span_equal([W], [setup.Z])

    def test_round_trip_eta(self):
        P, omega = plane()
        X = fm.VecField(P, [y**2, x**2])
        setup = lv.build_setup(P, omega, X)
        # d(theta) assembled from sigma and gamma directly
        dt = fm.d_coord(setup.extended, "t")
        want = lv._lift(omega, setup.extended) + fm.wedge(
            lv._lift(fm.ext_d(setup.gamma), setup.extended), dt
        ) * sx.num((-1) ** setup.sign_s)
        assert setup.eta() == want

    def test_supplied_sigma_checked(self):
        P, omega = plane()
        X = fm.VecField(P, [-1 * y, x])
        bad_sigma = fm.one_form(P, {"x": x})
        with pytest.raises(ValueError):
            lv.build_setup(P, omega, X, sigma=bad_sigma)

    def test_four_dimensional_phase(self):
        P = fm.Chart(["q1", "q2", "p1", "p2"])
        omega = fm.volume_form(P)
        q1, q2, p1, p2 = (sx.var(n) for n in P.coords)
        X = fm.VecField(P, [p1, p2, sx.ZERO, sx.ZERO])
        setup = lv.build_setup(P, omega, X)
        problem = lv.build_theta(setup)
        assert problem.classification.degree_case == vp.MAXIMAL_DEGREE
        ok, sign = lv.verify_hodge_identity(setup)
        assert ok and sign == 1


class TestHodge:
    def test_zero_field(self):
        P, omega = plane()
        setup = lv.build_setup(P, omega, fm.VecField(P, [sx.ZERO, sx.ZERO]))
        ok, sign = lv.verify_hodge_identity(setup)
        assert ok and sign == 1

    def test_rotation_field(self):
        P, omega = plane()
        setup = lv.build_setup(P, omega, fm.VecField(P, [-1 * y, x]))
        ok, sign = lv.verify_hodge_identity(setup)
        assert ok and sign == 1

    def test_four_dimensional_extended_chart(self):
        # three-dimensional phase space: the extended chart has dimension
        # four, with the dual of d/dt + f d/dz + g d/dw starring to the
        # three-form of the two-step differential
        P = fm.Chart(["u", "z", "w"])
        omega = fm.volume_form(P)
        u = sx.var("u")
        X = fm.VecField(P, [sx.ZERO, u, sx.canon(-u)])
        setup = lv.build_setup(P, omega, X)
        assert setup.extended.dim == 4
        ok, sign = lv.verify_hodge_identity(setup)
        assert ok and sign == 1
        assert fm.interior(setup.Z, setup.eta()).is_zero_form()

    def test_wrong_sign_fails(self):
        P, omega = plane()
        X = fm.VecField(P, [-1 * y, x])
        setup = lv.build_setup(P, omega, X)
        theta = lv._lift(setup.sigma, setup.extended) + fm.wedge(
            lv._lift(setup.gamma, setup.extended), fm.d_coord(setup.extended, "t")
        ) * sx.num((-1) ** (1 - setup.sign_s))
        flipped = dataclasses.replace(
            setup, sign_s=1 - setup.sign_s, problem=vp.build_problem(setup.extended, theta=theta)
        )
        ok, _ = lv.verify_hodge_identity(flipped)
        assert not ok
        assert not fm.interior(flipped.Z, flipped.eta()).is_zero_form()


def divergence_free_field(rng, P):
    """X = sum over coordinate pairs i < j of (d_j H) d/dx^i - (d_i H) d/dx^j,
    one random polynomial H per pair: each pair adds d_i d_j H - d_j d_i H
    to the divergence."""
    names = list(P.coords)
    comps = [sx.ZERO] * P.dim
    for i, j in itertools.combinations(range(P.dim), 2):
        H = rand_poly(rng, names, degree=3, terms=2)
        comps[i] = comps[i] + sx.diff(H, names[j])
        comps[j] = comps[j] - sx.diff(H, names[i])
    return fm.VecField(P, [sx.canon(c) for c in comps])


class TestOrientationSign:
    @pytest.mark.parametrize("nP", [2, 3, 4, 5])
    def test_sign_is_phase_dimension_parity(self, nP):
        # iota_Z(omega + (-1)^s iota_X omega ^ dt) = (1 + (-1)^(s+nP-1)) iota_X omega,
        # so s = nP mod 2 for every field, the zero field included
        rng = random.Random(1000 + nP)
        P = fm.Chart([f"x{i}" for i in range(1, nP + 1)])
        fields = [fm.VecField(P, [sx.ZERO] * nP)]
        fields += [divergence_free_field(rng, P) for _ in range(2)]
        for X in fields:
            for omega in (fm.volume_form(P), -fm.volume_form(P)):
                assert lv.is_liouville(X, omega)
                setup = lv.build_setup(P, omega, X)
                assert setup.sign_s == nP % 2
                assert fm.interior(setup.Z, setup.eta()).is_zero_form()
