import random
from fractions import Fraction

import pytest

from cartanvp import fixtures as fx
from cartanvp import forms as fm
from cartanvp import ideals as ids
from cartanvp import specio
from cartanvp import symexpr as sx
from cartanvp import varprin as vp
from cartanvp.errors import (
    NonConstantRankError,
    DegreeMismatchError,
    ImproperPrincipleError,
    NormalFormRequiredError,
    ZeroEtaError,
)
from conftest import ROTATION_THETA, rand_poly


def opaque(chart, name):
    return sx.func(name, *[sx.var(c) for c in chart.coords])


def example1_problem(chart):
    alphas = []
    for a in (1, 2, 3):
        alpha = fm.d_coord(chart, f"z{a}")
        for j in (1, 2):
            alpha = alpha + fm.d_coord(chart, f"x{j}") * opaque(chart, f"B{a}{j}")
        alphas.append(alpha)
    return vp.build_problem(chart, factors=alphas)


def maximal_degree_problem():
    # theta = x2 dz^dw + f x1 dx2^dw - g x1 dx2^dz with constant slopes
    chart = fm.BundleChart(["x1", "x2"], ["z", "w"])
    f, g = sx.num(Fraction(1, 2)), sx.num(-2)
    ix = chart.index
    theta = fm.DiffForm(
        chart,
        2,
        {
            (ix("z"), ix("w")): sx.var("x2"),
            (ix("x2"), ix("w")): sx.canon(f * sx.var("x1")),
            (ix("x2"), ix("z")): sx.canon(-g * sx.var("x1")),
        },
    )
    return vp.build_problem(chart, theta=theta), f, g


class TestBuildProblem:
    def test_example1_classification(self, chart5):
        p = example1_problem(chart5)
        c = p.classification
        assert c.degree_case == vp.MAXIMALLY_CHARACTERISTIC
        assert c.proper == "proper"
        assert c.q == 2 and c.h == 0
        assert c.q == c.expected_annihilator_dim

    def test_example2_classification(self):
        chart = fm.BundleChart(["x1", "x2", "x3"], ["z1", "z2", "z3"])
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart, f"z{a}")
            for k in (1, 2, 3):
                alpha = alpha + fm.d_coord(chart, f"x{k}") * opaque(chart, f"B{a}{k}")
            alphas.append(alpha)
        alpha4 = fm.zero_form(chart, 1)
        for k in (1, 2, 3):
            alpha4 = alpha4 + fm.d_coord(chart, f"x{k}") * opaque(chart, f"C{k}")
        p = vp.build_problem(chart, factors=alphas + [alpha4])
        c = p.classification
        assert c.degree_case == vp.INTERMEDIATE
        assert c.h == 1 and c.q == 2 and c.proper == "proper"

    def test_example3_classification(self, chart6w):
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart6w, f"z{a}")
            for j in (1, 2):
                alpha = alpha + fm.d_coord(chart6w, f"x{j}") * opaque(chart6w, f"B{a}{j}")
            alpha = alpha + fm.d_coord(chart6w, "w") * opaque(chart6w, f"C{a}")
            alphas.append(alpha)
        p = vp.build_problem(chart6w, factors=alphas)
        c = p.classification
        assert c.degree_case == vp.NON_PROPER_RANGE
        assert c.proper == "not_proper"
        assert c.q == 3 and c.r == 2 and c.vertical_dim == 1

    def test_wrong_factor_count(self, chart5):
        with pytest.raises(DegreeMismatchError):
            vp.build_problem(chart5, factors=[fm.d_coord(chart5, "z1")])

    def test_zero_eta(self, chart5):
        theta = fm.DiffForm(chart5, 2, {(0, 1): sx.ONE})  # closed constant form
        with pytest.raises(ZeroEtaError):
            vp.build_problem(chart5, theta=theta)

    def test_psi_recomputable(self, chart5):
        p = example1_problem(chart5)
        for name, psi in zip(chart5.fiber, p.psi, strict=True):
            assert fm.interior(fm.coord_field(chart5, name), p.eta) == psi


LAZY_CASES = [
    (name, instance)
    for name in fx.FIXTURE_NAMES
    for instance in [None, *fx.load(name).get("instances", {})]
] + [("rotation", None)]


class TestDistributionsOnFirstRead:
    @pytest.mark.parametrize(("name", "instance"), LAZY_CASES)
    def test_match_direct_calls(self, name, instance):
        spec = ROTATION_THETA if name == "rotation" else fx.load(name)
        p = specio.problem_from_spec(
            spec, instance=specio.instance_from_spec(spec, instance) if instance else None
        )
        kw = {"box": p.box, "seed": p.seed}
        forms = p.factors.alphas if p.factors is not None else (p.eta,)
        ann = ids.characteristic_distribution(forms, **kw)
        vert = ids.characteristic_distribution(forms, vertical_only=True, **kw)
        # classification first: it reads both distributions
        c = p.classification
        for lazy, direct in ((p.annihilator, ann), (p.vertical_annihilator, vert)):
            assert [Y.display() for Y in lazy.basis] == [Y.display() for Y in direct.basis]
            assert lazy.certificate.to_record() == direct.certificate.to_record()
            assert lazy.rank == direct.rank and lazy.uncertain == direct.uncertain
        n, k = p.chart.dim, p.chart.k
        proper = "not_proper" if vert.rank else "unknown" if vert.uncertain else "proper"
        assert c == vp.Classification(
            n=n,
            k=k,
            degree_case=vp._degree_case(n, k),
            proper=proper,
            q=ann.rank,
            vertical_dim=vert.rank,
            r=ann.rank - vert.rank,
            h=2 * k + 1 - n if 0 <= 2 * k + 1 - n <= k - 1 else None,
            expected_annihilator_dim=n - k - 1 if p.factors is not None else None,
        )
        assert p.degree_case == c.degree_case


class TestRankErrorLabels:
    """A rank that varies across the samples is reported with the label
    of the system it was certified on: the factors' when the problem has
    them, else eta's, each with its vertical variant."""

    @pytest.mark.parametrize(
        ("name", "label"), [("example1", "factor annihilator system"), ("rotation", "annihilator system")]
    )
    def test_labels(self, name, label, monkeypatch):
        import numpy as np

        from cartanvp import linalg as la

        monkeypatch.setattr(la, "numeric_ranks", lambda stack: np.arange(len(stack)) % 2)
        for attr, prefix in (("annihilator", label), ("vertical_annihilator", "vertical " + label)):
            p = specio.problem_from_spec(ROTATION_THETA) if name == "rotation" else fx.problem(name)
            with pytest.raises(NonConstantRankError, match=f"^{prefix}: sampled rank differs"):
                getattr(p, attr)


class TestCheckProper:
    """The properness verdict of the classification, with the vertical
    annihilator basis as witness."""

    def test_example1_proper(self, chart5):
        p = example1_problem(chart5)
        verdict, witnesses = p.classification.proper, p.vertical_annihilator.basis
        assert verdict == "proper" and not witnesses

    def test_example3_witness(self, chart6w):
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart6w, f"z{a}")
            for j in (1, 2):
                alpha = alpha + fm.d_coord(chart6w, f"x{j}") * opaque(chart6w, f"B{a}{j}")
            alpha = alpha + fm.d_coord(chart6w, "w") * opaque(chart6w, f"C{a}")
            alphas.append(alpha)
        p = vp.build_problem(chart6w, factors=alphas)
        verdict, witnesses = p.classification.proper, p.vertical_annihilator.basis
        assert verdict == "not_proper" and len(witnesses) == 1
        Y3 = witnesses[0]
        assert Y3.is_vertical()
        want = fm.VecField(
            chart6w,
            [sx.ZERO, sx.ZERO]
            + [sx.canon(-opaque(chart6w, f"C{a}")) for a in (1, 2, 3)]
            + [sx.ONE],
        )
        assert ids.span_equal([Y3], [want])

    def test_missing_fiber_differential_not_proper(self):
        # constructed degeneracy: no dw anywhere in eta
        chart = fm.BundleChart(["x1"], ["z", "w"])
        theta = fm.DiffForm(chart, 1, {(chart.index("z"),): sx.var("x1")})
        p = vp.build_problem(chart, theta=theta)
        verdict, witnesses = p.classification.proper, p.vertical_annihilator.basis
        assert verdict == "not_proper"
        assert any(not w.components[chart.index("w")].is_const_zero() for w in witnesses)


class TestCriticalEquations:
    def test_example1_printed_deltas(self, chart5):
        p = example1_problem(chart5)
        system = vp.critical_equations(p)
        B = {(a, j): opaque(chart5, f"B{a}{j}") for a in (1, 2, 3) for j in (1, 2)}
        D = {(a, j): sx.var(f"Dz{a}_x{j}") for a in (1, 2, 3) for j in (1, 2)}
        want1 = (
            D[(2, 1)] * D[(3, 2)] - D[(2, 2)] * D[(3, 1)]
            - B[(3, 1)] * D[(2, 2)] + B[(3, 2)] * D[(2, 1)]
            + B[(2, 1)] * D[(3, 2)] - B[(2, 2)] * D[(3, 1)]
            + B[(2, 1)] * B[(3, 2)] - B[(2, 2)] * B[(3, 1)]
        )
        assert sx.canon(system.deltas[0] - want1).is_const_zero()
        assert system.ratio == 1
        assert len(system.deltas) == 3

    def test_computed_once_per_problem(self, chart5):
        p = example1_problem(chart5)
        system = vp.critical_equations(p)
        assert vp.critical_equations(p) is system
        assert vp.verify_critical(p, fm.SectionMap(chart5, {f"z{a}": sx.ZERO for a in (1, 2, 3)})) is not None
        assert vp.critical_equations(p) is system
        # the cache is no part of the problem's value
        assert p == example1_problem(chart5)

    def test_pullback_route_reads_the_psi_forms(self, chart5, monkeypatch):
        # the pullback route reads the psi forms the problem holds
        p = example1_problem(chart5)
        contracted = []
        interior = vp.interior
        monkeypatch.setattr(vp, "interior", lambda V, form: contracted.append(V) or interior(V, form))
        vp.critical_equations(p)
        assert contracted == []

    def test_maximal_degree_reduces_to_transport_residuals(self):
        p, f, g = maximal_degree_problem()
        system = vp.critical_equations(p)
        assert system.route == "maximal_degree"
        # the two quasilinear residuals: slopes along the transport field
        want1 = sx.canon(sx.var("Dw_x1") - g)
        want2 = sx.canon(-(sx.var("Dz_x1") - f))
        assert sx.canon(system.deltas[0] - want1).is_const_zero()
        assert sx.canon(system.deltas[1] - want2).is_const_zero()

    def test_maximal_degree_contraction_displays(self):
        # the printed coordinate displays of the two contraction forms:
        # psi_1 = (-1)^(k-1) [A^mu (omega_(mu) ^ dw) + (-1)^k g omega]
        # psi_2 = (-1)^k [A^mu (omega_(mu) ^ dz) + (-1)^k f omega]
        p, _, _ = maximal_degree_problem()
        chart = p.chart
        k = chart.k
        A, f, g = vp.maximal_degree_data(p)
        ix = chart.index
        omega = fm.wedge(fm.d_coord(chart, "x1"), fm.d_coord(chart, "x2"))
        dz, dw = fm.d_coord(chart, "z"), fm.d_coord(chart, "w")
        omega_mu = [
            fm.interior(fm.coord_field(chart, b), omega) for b in chart.base
        ]
        want1 = fm.zero_form(chart, 2)
        want2 = fm.zero_form(chart, 2)
        for mu in range(k):
            want1 = want1 + fm.wedge(omega_mu[mu], dw) * A[mu]
            want2 = want2 + fm.wedge(omega_mu[mu], dz) * A[mu]
        want1 = (want1 + omega * sx.canon(g * sx.num((-1) ** k))) * sx.num((-1) ** (k - 1))
        want2 = (want2 + omega * sx.canon(f * sx.num((-1) ** k))) * sx.num((-1) ** k)
        assert p.psi[0] == want1
        assert p.psi[1] == want2

    def test_example3_minors(self, chart6w):
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart6w, f"z{a}")
            for j in (1, 2):
                alpha = alpha + fm.d_coord(chart6w, f"x{j}") * opaque(chart6w, f"B{a}{j}")
            alpha = alpha + fm.d_coord(chart6w, "w") * opaque(chart6w, f"C{a}")
            alphas.append(alpha)
        p = vp.build_problem(chart6w, factors=alphas)
        system = vp.critical_equations(p)
        assert len(system.deltas) == 3 and system.ratio == 1
        # P entries carry the residual-block slope contributions
        B11 = opaque(chart6w, "B11")
        C1 = opaque(chart6w, "C1")
        want = sx.canon(B11 + sx.var("Dz1_x1") + C1 * sx.var("Dw_x1"))
        assert sx.canon(system.P[0][0] - want).is_const_zero()

    def test_normal_form_required(self):
        # intermediate-range problem given by theta alone: no factor input,
        # so no normal form is available
        chart = fm.BundleChart(["x1", "x2", "x3"], ["z1", "z2", "z3"])
        theta = fm.DiffForm(chart, 3, {(0, 1, 2): sx.var("z1")})
        p = vp.build_problem(chart, theta=theta)
        assert p.classification.degree_case == vp.INTERMEDIATE
        with pytest.raises(NormalFormRequiredError):
            vp.critical_equations(p)

    def test_minor_vs_pullback_on_random_instances(self, chart5):
        # the identity behind the equations, on randomized normal forms
        rng = random.Random(31)
        names = list(chart5.coords)
        for _ in range(50):
            alphas = []
            for a in (1, 2, 3):
                alpha = fm.d_coord(chart5, f"z{a}")
                for j in (1, 2):
                    alpha = alpha + fm.d_coord(chart5, f"x{j}") * rand_poly(
                        rng, names, degree=1, terms=2
                    )
                alphas.append(alpha)
            p = vp.build_problem(chart5, factors=alphas)
            system = vp.critical_equations(p)  # asserts equality internally
            assert system.ratio == 1

    def test_constant_ratio_needs_the_same_monomials(self):
        # equal coefficient lists over different monomials are no ratio,
        # and a zero operand has none: the self-check never accepts 0
        x, y = sx.variables("x y")
        assert sx.constant_ratio(x, y) is None
        assert sx.constant_ratio(2 * x + 1, 3 * y + 1) is None
        assert sx.constant_ratio(-x * y + 2, sx.canon(x * y / 2 - 1)) == -2
        assert sx.constant_ratio(sx.ZERO, y) is None


class TestMaximalDegreeField:
    def test_plain_transport(self):
        chart = fm.BundleChart(["x1", "x2"], ["z", "w"])
        # eta = omega_(1) ^ dz ^ dw exactly
        ix = chart.index
        theta = fm.DiffForm(chart, 2, {(ix("z"), ix("w")): sx.var("x2")})
        p = vp.build_problem(chart, theta=theta)
        W = vp.characteristic_field_maximal_degree(p)
        assert W == fm.coord_field(chart, "x1")

    def test_annihilation_and_normalization(self):
        p, f, g = maximal_degree_problem()
        W = vp.characteristic_field_maximal_degree(p)
        assert fm.interior(W, p.eta).is_zero_form()

    def test_improper_rejected(self):
        chart = fm.BundleChart(["x1", "x2"], ["z", "w"])
        ix = chart.index
        # d(theta) has no base-direction block: A vanishes identically
        theta = fm.DiffForm(chart, 2, {(ix("x1"), ix("x2")): sx.var("z")})
        p = vp.build_problem(chart, theta=theta)
        with pytest.raises(ImproperPrincipleError):
            vp.characteristic_field_maximal_degree(p)

    def test_characteristic_field_annihilates_random_problems(self):
        rng = random.Random(41)
        chart = fm.BundleChart(["x1", "x2"], ["z", "w"])
        names = list(chart.coords)
        count = 0
        while count < 50:
            terms = {}
            import itertools

            for idx in itertools.combinations(range(4), 2):
                if rng.random() < 0.7:
                    terms[idx] = rand_poly(rng, names, degree=2, terms=2)
            theta = fm.DiffForm(chart, 2, terms)
            try:
                p = vp.build_problem(chart, theta=theta)
                W = vp.characteristic_field_maximal_degree(p)
            except (ZeroEtaError, ImproperPrincipleError, NonConstantRankError):
                continue
            assert fm.interior(W, p.eta).is_zero_form()
            count += 1


class TestVerifyCritical:
    def test_constant_instance_affine_solution(self, chart5):
        Bv = {
            (1, 1): Fraction(1, 2), (1, 2): Fraction(-1, 3),
            (2, 1): Fraction(2), (2, 2): Fraction(1, 5),
            (3, 1): Fraction(-1), (3, 2): Fraction(3, 4),
        }
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart5, f"z{a}")
            for j in (1, 2):
                alpha = alpha + fm.d_coord(chart5, f"x{j}") * sx.num(Bv[(a, j)])
            alphas.append(alpha)
        p = vp.build_problem(chart5, factors=alphas)
        x1, x2 = sx.var("x1"), sx.var("x2")
        phi = fm.SectionMap(
            chart5,
            {
                f"z{a}": sx.canon(-Bv[(a, 1)] * x1 - Bv[(a, 2)] * x2)
                for a in (1, 2, 3)
            },
        )
        report = vp.verify_critical(p, phi)
        assert report.ok and report.cross_checked

        bad = fm.SectionMap(
            chart5, {"z1": x1 * x2, "z2": sx.ZERO, "z3": x2}
        )
        report2 = vp.verify_critical(p, bad)
        assert not report2.ok
        assert any(not r.is_const_zero() for r in report2.residuals)

    def test_non_proper_section_with_residual_slopes(self, chart6w):
        # constant-coefficient non-proper instance: sections with a varying
        # residual component; the jet substitution covers the w-slopes
        from fractions import Fraction as Fr

        Bv = {(a, j): Fr(a, j + 2) for a in (1, 2, 3) for j in (1, 2)}
        Cv = {1: Fr(1), 2: Fr(-1, 2), 3: Fr(2)}
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart6w, f"z{a}")
            for j in (1, 2):
                alpha = alpha + fm.d_coord(chart6w, f"x{j}") * sx.num(Bv[(a, j)])
            alpha = alpha + fm.d_coord(chart6w, "w") * sx.num(Cv[a])
            alphas.append(alpha)
        p = vp.build_problem(chart6w, factors=alphas)
        x1, x2 = sx.var("x1"), sx.var("x2")
        wmap = sx.canon(x1 - 2 * x2)
        phi = fm.SectionMap(
            chart6w,
            {
                **{
                    f"z{a}": sx.canon(
                        -Bv[(a, 1)] * x1 - Bv[(a, 2)] * x2 - Cv[a] * wmap
                    )
                    for a in (1, 2, 3)
                },
                "w": wmap,
            },
        )
        report = vp.verify_critical(p, phi)
        assert report.ok and report.cross_checked
        # perturbing only the residual component keeps the slope matrix at
        # rank one, so the section stays critical: the principle cannot
        # see variations along the vertical annihilator
        shifted = fm.SectionMap(
            chart6w,
            {**{f"z{a}": phi.components[f"z{a}"] for a in (1, 2, 3)},
             "w": sx.canon(x1 * x2 + x2**2)},
        )
        assert vp.verify_critical(p, shifted).ok
        # a rank-two perturbation of the leading components is detected
        bad = fm.SectionMap(
            chart6w,
            {
                "z1": sx.canon(phi.components["z1"] + x1**2),
                "z2": sx.canon(phi.components["z2"] + x2**2),
                "z3": phi.components["z3"],
                "w": wmap,
            },
        )
        assert not vp.verify_critical(p, bad).ok

    def test_tangency_characterization(self, chart5):
        # a section is critical iff its tangent frame lies in the span of
        # the characteristic fields: check via interior products
        Bv = {(1, 1): 1, (1, 2): 0, (2, 1): 0, (2, 2): 1, (3, 1): 1, (3, 2): 1}
        alphas = []
        for a in (1, 2, 3):
            alpha = fm.d_coord(chart5, f"z{a}")
            for j in (1, 2):
                alpha = alpha + fm.d_coord(chart5, f"x{j}") * sx.num(Bv[(a, j)])
            alphas.append(alpha)
        p = vp.build_problem(chart5, factors=alphas)
        x1, x2 = sx.var("x1"), sx.var("x2")
        phi = fm.SectionMap(
            chart5,
            {f"z{a}": sx.canon(-Bv[(a, 1)] * x1 - Bv[(a, 2)] * x2) for a in (1, 2, 3)},
        )
        assert vp.verify_critical(p, phi).ok
        # graph tangents T_j = d/dx^j + slopes; they must annihilate eta
        for j, bname in enumerate(chart5.base):
            comps = [sx.ZERO] * 5
            comps[chart5.index(bname)] = sx.ONE
            for a in (1, 2, 3):
                comps[chart5.index(f"z{a}")] = sx.diff(phi.components[f"z{a}"], bname)
            T = fm.VecField(chart5, comps)
            assert fm.interior(T, p.eta).is_zero_form()
