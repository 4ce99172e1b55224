"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime budget.  Tolerances are pinned here, not deferred."""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from cartanvp import cli
from cartanvp import decomp as dc
from cartanvp import fixtures as fx
from cartanvp import flows
from cartanvp import forms as fm
from cartanvp import ideals as ids
from cartanvp import symexpr as sx
from cartanvp import varprin as vp
from conftest import chi_forms, rand_field, rand_form, rand_poly


def _report(num, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {label}: {status} ({elapsed:.2f}s / budget {budget}s)")
    assert ok
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_example1_goldens():
    t0 = time.perf_counter()
    rep = fx.run_fixture("example1")
    wanted = {
        "eta", "psi1", "psi2", "psi3", "delta1", "delta2", "delta3", "P",
        "annihilator_span",
    }
    got = {i.name for i in rep.items if i.status == "pass"}
    ok = rep.passed and wanted <= got
    # span certification used the 64-point sample set
    p = fx.problem("example1")
    ok = ok and p.annihilator.certificate.count == 64
    _report(1, "example-1 goldens and annihilator span", ok, time.perf_counter() - t0, 5.0)


def test_criterion_2_example2_goldens():
    t0 = time.perf_counter()
    rep = fx.run_fixture("example2")
    wanted = {"delta1", "delta2", "delta3", "annihilator_span"}
    got = {i.name for i in rep.items if i.status == "pass"}
    ok = rep.passed and wanted <= got
    _report(2, "example-2 slope-form equations and generators", ok, time.perf_counter() - t0, 5.0)


def test_criterion_3_example3_goldens():
    t0 = time.perf_counter()
    rep = fx.run_fixture("example3")
    wanted = {
        "psi1", "psi2", "psi3", "psi4", "psi4_combination", "vertical_witness",
        "f_elimination_equivalence",
    }
    got = {i.name for i in rep.items if i.status == "pass"}
    ok = rep.passed and wanted <= got
    felim = next(i for i in rep.items if i.name == "f_elimination_equivalence")
    ok = ok and felim.detail["max_residual_with_tangent_frame"] < 1e-9
    _report(3, "example-3 goldens, wedge relation, verticality, elimination", ok, time.perf_counter() - t0, 10.0)


def test_criterion_4_structural_identities():
    t0 = time.perf_counter()
    rng = random.Random(0xC4A7)
    chart = fm.BundleChart(["x1", "x2"], ["z1", "z2", "z3"])
    names = list(chart.coords)
    ok = True

    # d(d(a)) = 0
    for _ in range(50):
        a = rand_form(rng, chart, rng.randint(0, 3))
        ok = ok and fm.ext_d(fm.ext_d(a)).is_zero_form()

    # interior antiderivation
    for _ in range(50):
        X = rand_field(rng, chart)
        a = rand_form(rng, chart, rng.randint(1, 2))
        b = rand_form(rng, chart, rng.randint(1, 2))
        lhs = fm.interior(X, fm.wedge(a, b))
        rhs = fm.wedge(fm.interior(X, a), b) + fm.wedge(a, fm.interior(X, b)) * sx.num(
            (-1) ** a.degree
        )
        ok = ok and lhs == rhs

    # pivot-coordinate contraction identity on random normal forms
    for _ in range(50):
        alphas = []
        for i in (1, 2, 3):
            alpha = fm.d_coord(chart, f"z{i}")
            for b in ("x1", "x2"):
                alpha = alpha + fm.d_coord(chart, b) * rand_poly(rng, names, degree=1, terms=2)
            alphas.append(alpha)
        fs = dc.FactorSet(chart, tuple(alphas), normalized=True, z_order=(2, 3, 4))
        chis = chi_forms(fs.alphas)
        eta = fs.eta()
        for row, col in enumerate(fs.z_order):
            ok = ok and fm.interior(fm.coord_field(chart, chart.coords[col]), eta) == chis[row]

    # residual-block contraction identity on random normal forms
    chart_w = fm.BundleChart(["x1", "x2"], ["z1", "z2", "z3"], ["w"])
    names_w = list(chart_w.coords)
    for _ in range(50):
        alphas = []
        for i in (1, 2, 3):
            alpha = fm.d_coord(chart_w, f"z{i}")
            for b in ("x1", "x2"):
                alpha = alpha + fm.d_coord(chart_w, b) * rand_poly(rng, names_w, degree=1, terms=2)
            alpha = alpha + fm.d_coord(chart_w, "w") * rand_poly(rng, names_w, degree=1, terms=2)
            alphas.append(alpha)
        fs = dc.normalize(dc.FactorSet(chart_w, tuple(alphas)))
        chis = chi_forms(fs.alphas)
        eta = fs.eta()
        for row, col in enumerate(fs.z_order):
            ok = ok and fm.interior(fm.coord_field(chart_w, chart_w.coords[col]), eta) == chis[row]
        lhs = fm.interior(fm.coord_field(chart_w, "w"), eta)
        rhs = fm.zero_form(chart_w, 2)
        for j in range(3):
            # the G block of the normal form: the w coefficient of pivot row j
            rhs = rhs + chis[j] * fs.alphas[j].terms.get((chart_w.index("w"),), sx.ZERO)
        ok = ok and lhs == rhs

    # minor-vs-pullback identity in the jet variables
    for _ in range(50):
        alphas = []
        for i in (1, 2, 3):
            alpha = fm.d_coord(chart, f"z{i}")
            for b in ("x1", "x2"):
                alpha = alpha + fm.d_coord(chart, b) * rand_poly(rng, names, degree=1, terms=2)
            alphas.append(alpha)
        p = vp.build_problem(chart, factors=alphas)
        system = vp.critical_equations(p)  # asserts minors == pullback coefficients
        ok = ok and system.ratio == 1

    # characteristic field annihilates the differential on maximal-degree
    # problems
    md_chart = fm.BundleChart(["x1", "x2"], ["z", "w"])
    md_names = list(md_chart.coords)
    import itertools

    count = 0
    while count < 50:
        terms = {}
        for idx in itertools.combinations(range(4), 2):
            if rng.random() < 0.7:
                terms[idx] = rand_poly(rng, md_names, degree=2, terms=2)
        try:
            p = vp.build_problem(md_chart, theta=fm.DiffForm(md_chart, 2, terms))
            W = vp.characteristic_field_maximal_degree(p)
        except Exception:
            continue
        ok = ok and fm.interior(W, p.eta).is_zero_form()
        count += 1

    _report(4, "structural identities on randomized instances", ok, time.perf_counter() - t0, 60.0)


def test_criterion_5_characteristic_equals_annihilator():
    t0 = time.perf_counter()
    ok = True
    for name in ("example1", "example2"):
        p = fx.problem(name)
        n, k = p.classification.n, p.classification.k
        D_eta = ids.characteristic_distribution((p.eta,), box=p.box, seed=p.seed)
        D_char = ids.characteristic_distribution(p.psi, box=p.box, seed=p.seed)
        ok = ok and D_eta.rank == D_char.rank == n - k - 1
        ok = ok and ids.span_equal(list(D_eta.basis), list(D_char.basis), seed=p.seed)
    _report(5, "characteristic distribution matches the annihilator", ok, time.perf_counter() - t0, 60.0)


def test_criterion_6_liouville_suite():
    from cartanvp import liouville as lv

    t0 = time.perf_counter()
    P = fm.Chart(["x", "y"])
    omega = fm.volume_form(P)
    x, y = sx.var("x"), sx.var("y")
    fields = [
        fm.VecField(P, [-1 * y, x]),                   # rotation
        fm.VecField(P, [y**2, x**2]),                  # divergence-free polynomial
        fm.VecField(P, [x * y, sx.canon(-(y**2) / 2)]),  # shear, divergence y - y
    ]
    ok = True
    for X in fields:
        setup = lv.build_setup(P, omega, X)
        problem = lv.build_theta(setup)
        ok = ok and fm.interior(setup.Z, problem.eta).is_zero_form()
        hodge_ok, sign = lv.verify_hodge_identity(setup)
        ok = ok and hodge_ok
    _report(6, "volume-preserving action forms and the star identity", ok, time.perf_counter() - t0, 5.0)


def test_criterion_7_numeric_reduction():
    t0 = time.perf_counter()
    p = fx.problem("example1", instance="constant")
    patch = flows.sweep_section(
        p,
        p.annihilator,
        {"z1": 0, "z2": 0, "z3": 0},
        grid={"x1": (0.0, 1.0, 21), "x2": (0.0, 1.0, 21)},
        step=1e-3,
    )
    spec = fx.load("example1")["instances"]["constant"]
    Bv = {k: float(Fraction(v)) for k, v in spec.items()}
    vals = np.linspace(0, 1, 21)
    worst = 0.0
    for i, x1 in enumerate(vals):
        for j, x2 in enumerate(vals):
            for a in (1, 2, 3):
                want = -Bv[f"B{a}1"] * x1 - Bv[f"B{a}2"] * x2
                worst = max(worst, abs(patch.points[i, j, 1 + a] - want))
    ok = worst < 1e-8 and patch.max_residual < 1e-8

    chart = fm.Chart(["t", "z"])
    X = fm.VecField(chart, [sx.ONE, sx.var("z")])
    e1 = abs(flows.flow(X, [0.0, 1.0], 1.0, step=2e-3)[-1][1] - math.e)
    e2 = abs(flows.flow(X, [0.0, 1.0], 1.0, step=1e-3)[-1][1] - math.e)
    ok = ok and (e1 / e2) >= 8.0
    _report(7, "point-seed sweep and fourth-order convergence", ok, time.perf_counter() - t0, 30.0)


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for _ in range(2):
        chunks = []
        for name in fx.FIXTURE_NAMES:
            code, out = cli.run(["example", name])
            chunks.append(out)
        spec_path = tmp_path / "example1.json"
        spec_path.write_text(json.dumps(fx.load("example1")))
        for command in ("analyze", "el", "annihilator"):
            code, out = cli.run([command, "--spec", str(spec_path)])
            chunks.append(out)
        outputs.append("\n".join(chunks).encode())
    ok = outputs[0] == outputs[1]
    _report(8, "byte-identical reports under a fixed seed", ok, time.perf_counter() - t0, 60.0)
