import math
from fractions import Fraction

import numpy as np
import pytest

from cartanvp import fixtures as fx
from cartanvp import flows
from cartanvp import forms as fm
from cartanvp import ideals as ids
from cartanvp import linalg as la
from cartanvp import liouville as lv
from cartanvp import specio
from cartanvp import symexpr as sx
from cartanvp import varprin as vp
from cartanvp.errors import (
    BoxExitError,
    DivisionByZeroError,
    EvaluationFailureError,
    NonTransversalDistributionError,
    ResidualTooLargeError,
    TangencyViolationError,
)


def _transport_problem():
    """Maximal-degree transport problem with closed form z = x2^2 + x1/2,
    w = -x2 - 2 x1 from the seed on the slice x1 = 0."""
    chart = fm.BundleChart(["x1", "x2"], ["z", "w"])
    ix = chart.index
    theta = fm.DiffForm(
        chart,
        2,
        {
            (ix("z"), ix("w")): sx.var("x2"),
            (ix("x2"), ix("w")): sx.canon(sx.num(Fraction(1, 2)) * sx.var("x1")),
            (ix("x2"), ix("z")): sx.canon(sx.num(2) * sx.var("x1")),
        },
    )
    return vp.build_problem(chart, theta=theta)


TRANSPORT_SLICE_SEED = dict(
    phi0={"z": sx.var("x2") ** 2, "w": -1 * sx.var("x2")},
    grid={"x1": (0.0, 1.0, 11), "x2": (0.0, 1.0, 11)},
    seed_axes=("x2",),
)


class TestFlow:
    def test_coordinate_field_exact(self):
        chart = fm.Chart(["x1", "x2", "x3"])
        X = fm.coord_field(chart, "x1")
        path = flows.flow(X, [0.0, 0.0, 0.0], 1.0, step=1e-2)
        assert np.allclose(path[-1], [1.0, 0.0, 0.0], atol=0)
        assert len(path) == 101

    def test_exponential_fixture(self):
        # dz/dt = z from (t, z) = (0, 1): z(1) = e
        chart = fm.Chart(["t", "z"])
        X = fm.VecField(chart, [sx.ONE, sx.var("z")])
        end = flows.flow(X, [0.0, 1.0], 1.0, step=1e-3)[-1]
        assert abs(end[1] - math.e) < 1e-8

    def test_fourth_order_convergence(self):
        chart = fm.Chart(["t", "z"])
        X = fm.VecField(chart, [sx.ONE, sx.var("z")])
        e1 = abs(flows.flow(X, [0.0, 1.0], 1.0, step=2e-3)[-1][1] - math.e)
        e2 = abs(flows.flow(X, [0.0, 1.0], 1.0, step=1e-3)[-1][1] - math.e)
        assert e1 / e2 >= 8.0

    def test_step_count_contract(self):
        chart = fm.Chart(["t"])
        X = fm.coord_field(chart, "t")
        path = flows.flow(X, [0.0], 0.05, step=2e-2)
        assert len(path) == math.ceil(0.05 / 2e-2) + 1
        assert abs(path[-1][0] - 0.05) < 1e-15

    def test_evaluation_failure(self):
        # the z-slope blows up on the hyperplane x = 1/2 crossed en route
        chart = fm.Chart(["x", "z"])
        X = fm.VecField(chart, [sx.ONE, 1 / (sx.var("x") - sx.num(Fraction(1, 2)))])
        with pytest.raises(EvaluationFailureError):
            flows.flow(X, [0.0, 0.0], 1.0, step=0.25)

    def test_box_exit(self):
        chart = fm.Chart(["x"])
        X = fm.coord_field(chart, "x")
        with pytest.raises(BoxExitError):
            flows.flow(X, [0.0], 2.0, step=0.1, bbox={"x": (0.0, 1.0)})


class TestCommutationDefect:
    def test_commuting_coordinate_fields(self):
        chart = fm.Chart(["x", "y", "z"])
        cert = la.RankCertificate(2, 0, None, 0, [])
        D = ids.Distribution(
            chart, (fm.coord_field(chart, "x"), fm.coord_field(chart, "y")), 2, None, cert
        )
        assert flows.commutation_defect(D, [0.0, 0.0, 0.0], 0.3) < 1e-12

    def test_shear_pair_quadratic_defect(self):
        # [d/dx, x d/dz] = d/dz: defect is t^2 exactly for these flows
        chart = fm.Chart(["x", "y", "z"])
        X = fm.coord_field(chart, "x")
        Y = fm.VecField(chart, [sx.ZERO, sx.ZERO, sx.var("x")])
        cert = la.RankCertificate(2, 0, None, 0, [])
        D = ids.Distribution(chart, (X, Y), 2, None, cert)
        defect = flows.commutation_defect(D, [0.0, 0.0, 0.0], 0.1)
        assert abs(defect - 0.01) < 1e-12

    def test_constant_instance_fields_commute(self):
        p = fx.problem("example1", instance="constant")
        defect = flows.commutation_defect(p.annihilator, [0.0] * 5, 0.2)
        assert defect < 1e-10


class TestSweep:
    def test_maximally_characteristic_point_seed(self):
        p = fx.problem("example1", instance="constant")
        patch = flows.sweep_section(
            p,
            p.annihilator,
            {"z1": 0, "z2": 0, "z3": 0},
            grid={"x1": (0.0, 1.0, 21), "x2": (0.0, 1.0, 21)},
            step=1e-3,
        )
        assert patch.max_residual < 1e-8
        # closed form z = -B x
        spec = fx.load("example1")["instances"]["constant"]
        Bv = {k: float(Fraction(v)) for k, v in spec.items()}
        vals = np.linspace(0, 1, 21)
        worst = 0.0
        for i, x1 in enumerate(vals):
            for j, x2 in enumerate(vals):
                for a in (1, 2, 3):
                    want = -Bv[f"B{a}1"] * x1 - Bv[f"B{a}2"] * x2
                    worst = max(worst, abs(patch.points[i, j, 1 + a] - want))
        assert worst < 1e-8

    def test_maximal_degree_slice_seed(self):
        # transport problem: seed on the codimension-one slice x1 = 0
        p = _transport_problem()
        ix = p.chart.index
        f, g = 0.5, -2.0
        patch = flows.sweep_section(p, p.annihilator, **TRANSPORT_SLICE_SEED, step=1e-3)
        assert patch.max_residual < 1e-8
        # closed form: z = x2^2 + f x1, w = -x2 + g x1
        vals = np.linspace(0, 1, 11)
        for i, x1v in enumerate(vals):
            for j, x2v in enumerate(vals):
                assert abs(patch.points[i, j, ix("z")] - (x2v**2 + f * x1v)) < 1e-8
                assert abs(patch.points[i, j, ix("w")] - (-x2v + g * x1v)) < 1e-8

    def test_intermediate_case_seed_curve(self):
        # the intermediate worked example with an axis-aligned instance:
        # a curve of seed data over the third base axis, pulled along the
        # two-dimensional characteristic distribution
        p = fx.problem("example2", instance="axis")
        assert p.classification.h == 1 and p.classification.q == 2
        x3 = sx.var("x3")
        phi0 = {
            "z1": sx.canon(x3**2 / 2),
            "z2": sx.canon(-1 * x3),
            "z3": sx.canon(sx.num(Fraction(1, 4)) + x3),
        }
        patch = flows.sweep_section(
            p,
            p.annihilator,
            phi0,
            grid={"x1": (0.0, 0.5, 6), "x2": (0.0, 0.5, 6), "x3": (0.0, 0.5, 6)},
            seed_axes=("x3",),
            step=1e-3,
        )
        assert patch.max_residual < 1e-8
        # closed form: seed values transported linearly in x1, x2
        spec = fx.load("example2")["instances"]["axis"]
        Bv = {k: float(Fraction(v)) for k, v in spec.items()}
        vals = np.linspace(0, 0.5, 6)
        ix = p.chart.index
        for i, x1v in enumerate(vals):
            for j, x2v in enumerate(vals):
                for l, x3v in enumerate(vals):
                    seed = {"z1": x3v**2 / 2, "z2": -x3v, "z3": 0.25 + x3v}
                    for a in (1, 2, 3):
                        want = seed[f"z{a}"] - Bv[f"B{a}1"] * x1v - Bv[f"B{a}2"] * x2v
                        got = patch.points[i, j, l, ix(f"z{a}")]
                        assert abs(got - want) < 1e-8

    def test_non_proper_constant_instance(self):
        p = fx.problem("example3", instance="constant")
        patch = flows.sweep_section(
            p,
            p.annihilator,
            {"z1": 0, "z2": 0, "z3": 0, "w": sx.num(Fraction(1, 4))},
            grid={"x1": (0.0, 0.5, 11), "x2": (0.0, 0.5, 11)},
            step=1e-3,
        )
        assert patch.max_residual < 1e-8

    def test_order_independence(self):
        p = fx.problem("example1", instance="constant")
        kw = dict(
            phi0={"z1": 0, "z2": 0, "z3": 0},
            grid={"x1": (0.0, 1.0, 6), "x2": (0.0, 1.0, 6)},
            step=1e-3,
        )
        a = flows.sweep_section(p, p.annihilator, kw["phi0"], kw["grid"], step=1e-3)
        b = flows.sweep_section(
            p, p.annihilator, kw["phi0"], kw["grid"], step=1e-3, axis_order=("x2", "x1")
        )
        gap = float(np.max(np.abs(a.points - b.points)))
        assert gap <= 10 * (1e-3) ** 4

    def test_tangency_violation(self):
        # seed curve drawn inside a characteristic leaf of the rank-two
        # distribution: its tangent lies in the span at every seed node
        p = fx.problem("example1", instance="constant")
        spec = fx.load("example1")["instances"]["constant"]
        x2 = sx.var("x2")
        phi0 = {
            f"z{a}": sx.canon(-sx.parse(spec[f"B{a}2"]) * x2) for a in (1, 2, 3)
        }
        with pytest.raises(TangencyViolationError):
            flows.sweep_section(
                p,
                p.annihilator,
                phi0,
                grid={"x1": (0.0, 1.0, 5), "x2": (0.0, 1.0, 5)},
                seed_axes=("x2",),
                step=1e-2,
            )

    def test_seed_tangency_and_failures_in_node_order(self):
        # z1 adds (x2 - 1/2)^3 to the leaf curve above, so the seed curve is
        # tangent only at the middle node x2 = 1/2; a z2 term with a double
        # zero there keeps that, and its pole fails at the node x2 = 3/4
        # after it or at the node x2 = 1/4 before it
        p = fx.problem("example1", instance="constant")
        spec = fx.load("example1")["instances"]["constant"]
        x2 = sx.var("x2")
        phi0 = {f"z{a}": sx.canon(-sx.parse(spec[f"B{a}2"]) * x2) for a in (1, 2, 3)}
        phi0["z1"] = sx.canon(phi0["z1"] + (x2 - sx.num(Fraction(1, 2))) ** 3)

        def sweep(pole=None):
            seed = dict(phi0)
            if pole is not None:
                seed["z2"] = sx.canon(seed["z2"] + (x2 - sx.num(Fraction(1, 2))) ** 2 / (x2 - pole))
            grid = {"x1": (0.0, 1.0, 3), "x2": (0.0, 1.0, 5)}
            return flows.sweep_section(p, p.annihilator, seed, grid=grid, seed_axes=("x2",), step=0.5)

        for pole in (None, sx.num(Fraction(3, 4))):
            with pytest.raises(TangencyViolationError) as info:
                sweep(pole)
            assert info.value.point["x2"] == 0.5
        with pytest.raises(DivisionByZeroError):
            sweep(sx.num(Fraction(1, 4)))

    def test_sweep_direction_mismatch_is_transversality_error(self):
        # a rank-one transport distribution cannot supply the second axis
        chart = fm.BundleChart(["x1", "x2"], ["z", "w"])
        ix = chart.index
        theta = fm.DiffForm(
            chart,
            2,
            {
                (ix("z"), ix("w")): sx.var("x2"),
                (ix("x2"), ix("w")): sx.canon(sx.num(Fraction(1, 2)) * sx.var("x1")),
            },
        )
        p = vp.build_problem(chart, theta=theta)
        x1 = sx.var("x1")
        with pytest.raises(NonTransversalDistributionError):
            flows.sweep_section(
                p,
                p.annihilator,
                {"z": sx.num(Fraction(1, 2)) * x1, "w": sx.ZERO},
                grid={"x1": (0.0, 1.0, 5), "x2": (0.0, 1.0, 5)},
                seed_axes=("x1",),
                step=1e-2,
            )

    def test_non_transversal_distribution(self):
        p = fx.problem("example1", instance="constant")
        vertical = fm.VecField(p.chart, [sx.ZERO, sx.ZERO, sx.ONE, sx.ZERO, sx.ZERO])
        cert = la.RankCertificate(1, 0, None, 0, [])
        D = ids.Distribution(p.chart, (vertical,), 1, None, cert)
        with pytest.raises(NonTransversalDistributionError):
            flows.sweep_section(
                p,
                D,
                {"z1": 0, "z2": 0, "z3": 0},
                grid={"x1": (0.0, 1.0, 3), "x2": (0.0, 1.0, 3)},
                step=1e-2,
            )

    def test_residual_tolerance_is_asserted(self):
        # curved section: the finite-difference slopes on a coarse lattice
        # cannot meet a tight tolerance, and the sweep must abort rather
        # than return a patch
        from cartanvp.errors import ResidualTooLargeError
        from cartanvp import liouville as lv

        P = fm.Chart(["u", "v"])
        u, v = sx.var("u"), sx.var("v")
        setup = lv.build_setup(P, fm.volume_form(P), fm.VecField(P, [-1 * v, u]))
        problem = lv.build_theta(setup)
        with pytest.raises(ResidualTooLargeError):
            flows.sweep_section(
                problem,
                problem.annihilator,
                {"u": 1, "v": 0},
                grid={"t": (0.0, 3.0, 16)},
                step=1e-3,
                tolerance=1e-6,
            )

    def test_csv_byte_identical(self):
        p = fx.problem("example1", instance="constant")
        outs = []
        for _ in range(2):
            patch = flows.sweep_section(
                p,
                p.annihilator,
                {"z1": 0, "z2": 0, "z3": 0},
                grid={"x1": (0.0, 1.0, 4), "x2": (0.0, 1.0, 4)},
                step=1e-2,
            )
            outs.append(patch.to_csv().encode())
        assert outs[0] == outs[1]

    def test_grid_must_cover_base(self):
        p = fx.problem("example1", instance="constant")
        with pytest.raises(ValueError):
            flows.sweep_section(
                p, p.annihilator, {"z1": 0, "z2": 0, "z3": 0},
                grid={"x1": (0.0, 1.0, 3)},
            )

    def test_csv_export(self):
        p = fx.problem("example1", instance="constant")
        patch = flows.sweep_section(
            p,
            p.annihilator,
            {"z1": 0, "z2": 0, "z3": 0},
            grid={"x1": (0.0, 1.0, 3), "x2": (0.0, 1.0, 3)},
            step=1e-2,
        )
        text = patch.to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1].split(",")[:2] == ["x1", "x2"]
        assert len(lines) == 2 + 9
        assert patch.approximate

    def test_interpolation(self):
        p = fx.problem("example1", instance="constant")
        patch = flows.sweep_section(
            p,
            p.annihilator,
            {"z1": 0, "z2": 0, "z3": 0},
            grid={"x1": (0.0, 1.0, 5), "x2": (0.0, 1.0, 5)},
            step=1e-2,
        )
        mid = patch.interpolate({"x1": 0.5, "x2": 0.5})
        # multilinear interpolation of an affine section is exact
        assert abs(mid["z1"] - (-(0.5) * 0.5 - (-1 / 3) * 0.5)) < 1e-9


# ---------------------------------------------------------------------------
# the batched sweep against the per-edge, per-node algorithm it replaced


def _oracle_sweep(p, D, phi0, grid, seed_axes=(), step=1e-3, axis_order=None, flow=flows.flow):
    """Points, residuals and CSV of a sweep done as a recursive fill of
    chained `flow` calls (one per lattice edge) with a node-by-node
    residual loop."""
    chart = p.chart
    axes = {b: flows.GridAxis(*grid[b]) for b in chart.base}
    vals = {b: axes[b].values() for b in chart.base}
    order = list(axis_order or [b for b in chart.base if b not in seed_axes])
    fields = dict(zip(order, flows._transversal_fields(p, D, order)))
    seed = {n: sx.canon(c if isinstance(c, sx.Expr) else sx.num(c)) for n, c in phi0.items()}
    shape = tuple(axes[b].count for b in chart.base)
    points = np.full(shape + (chart.dim,), np.nan)

    def fill(idx, point, depth):
        if depth == len(order):
            points[tuple(idx[b] for b in chart.base)] = point
            return
        ax = order[depth]
        fill({**idx, ax: 0}, point, depth + 1)
        for j in range(1, len(vals[ax])):
            point = flow(fields[ax], point, float(vals[ax][j] - vals[ax][j - 1]), step)[-1]
            fill({**idx, ax: j}, point, depth + 1)

    for seed_idx in np.ndindex(*(axes[b].count for b in seed_axes)):
        at = {ax: vals[ax][j] for ax, j in zip(seed_axes, seed_idx)}
        pt = np.zeros(chart.dim)
        for b in chart.base:
            pt[chart.index(b)] = at.get(b, vals[b][0])
        for name in chart.fiber:
            f = sx.compile_expr(seed[name], seed_axes)
            pt[chart.index(name)] = f([float(at[ax]) for ax in seed_axes])
        fill(dict(zip(seed_axes, seed_idx)), pt, 0)

    system = vp.critical_equations(p)
    symbols = list(chart.coords) + [vp.jet_name(f, b) for b in chart.base for f in chart.fiber]
    deltas = [sx.compile_expr(d, symbols) for d in system.deltas]
    residuals = np.zeros(shape + (len(deltas),))
    rows = []
    for node in np.ndindex(*shape):
        values = points[node].tolist()
        for d, b in enumerate(chart.base):
            h = float(vals[b][1] - vals[b][0]) if shape[d] > 1 else 1.0
            cnt, j = shape[d], node[d]
            for name in chart.fiber:

                def at(i):
                    return points[node[:d] + (i,) + node[d + 1 :]][chart.index(name)]

                if cnt == 1:
                    slope = 0.0
                elif 0 < j < cnt - 1:
                    slope = (at(j + 1) - at(j - 1)) / (2 * h)
                elif j == 0:
                    slope = (-3 * at(0) + 4 * at(1) - at(2)) / (2 * h) if cnt > 2 else (at(1) - at(0)) / h
                else:
                    slope = (3 * at(j) - 4 * at(j - 1) + at(j - 2)) / (2 * h) if cnt > 2 else (at(j) - at(j - 1)) / h
                values.append(float(slope))
        for e, f in enumerate(deltas):
            residuals[node + (e,)] = f(values)
        pt = points[node]
        row = [repr(float(pt[chart.index(n)])) for n in chart.base + chart.fiber]
        rows.append(",".join(row + [repr(float(r)) for r in residuals[node]]))
    return points, residuals, rows


def _constant_k3_problem():
    base, fiber = ["x1", "x2", "x3"], ["z1", "z2", "z3", "z4"]
    B = [["1/2", "-1/3", "2"], ["0", "3/4", "-1"], ["-2/5", "1", "1/7"], ["1", "0", "-3/2"]]
    factors = [
        [{"coeff": "1", "index": [z]}] + [{"coeff": b, "index": [x]} for b, x in zip(row, base)]
        for z, row in zip(fiber, B)
    ]
    spec = {"chart": {"base": base, "fiber_z": fiber, "fiber_w": []}, "factors": factors}
    return specio.problem_from_spec(spec)


def _helix_problem():
    P = fm.Chart(["x", "y"])
    x, y = sx.var("x"), sx.var("y")
    setup = lv.build_setup(P, fm.volume_form(P), fm.VecField(P, [-1 * y, x]))
    return lv.build_theta(setup)


def _example2_seed_curve():
    x3 = sx.var("x3")
    return {
        "z1": sx.canon(x3**2 / 2),
        "z2": sx.canon(-1 * x3),
        "z3": sx.canon(sx.num(Fraction(1, 4)) + x3),
    }


DIFFERENTIAL_CASES = {
    "example1-x1-first": (
        lambda: fx.problem("example1", instance="constant"),
        dict(phi0={"z1": 0, "z2": 0, "z3": 0}, grid={"x1": (0.0, 1.0, 7), "x2": (0.0, 0.5, 5)}),
    ),
    "example1-x2-first": (
        lambda: fx.problem("example1", instance="constant"),
        dict(
            phi0={"z1": 0, "z2": sx.num(Fraction(1, 3)), "z3": 0},
            grid={"x1": (0.0, 1.0, 7), "x2": (0.0, 0.5, 5)},
            axis_order=("x2", "x1"),
        ),
    ),
    "constant-k3": (
        _constant_k3_problem,
        dict(
            phi0={"z1": sx.num(Fraction(1, 5)), "z2": 0, "z3": sx.num(-1), "z4": 0},
            grid={"x1": (0.0, 0.1, 4), "x2": (0.0, 0.1, 3), "x3": (0.0, 0.1, 5)},
            axis_order=("x3", "x1", "x2"),
            step=2.5e-3,
        ),
    ),
    "example2-axis-seed-curve": (
        lambda: fx.problem("example2", instance="axis"),
        dict(
            phi0=_example2_seed_curve(),
            grid={"x1": (0.0, 0.5, 4), "x2": (0.0, 0.5, 3), "x3": (0.0, 0.5, 5)},
            seed_axes=("x3",),
        ),
    ),
    "helix": (
        _helix_problem,
        dict(phi0={"x": sx.num(Fraction(3, 4)), "y": sx.num(Fraction(-1, 2))}, grid={"t": (0.0, 1.6, 33)}),
    ),
    "maximal-degree-slice-seed": (_transport_problem, dict(TRANSPORT_SLICE_SEED)),
}


class TestBatchedSweep:
    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_bitwise_equal_to_per_edge_oracle(self, case):
        make, kw = DIFFERENTIAL_CASES[case]
        p = make()
        kw = {"step": 1e-3, **kw}
        patch = flows.sweep_section(p, p.annihilator, tolerance=1e-2, **kw)
        points, residuals, rows = _oracle_sweep(p, p.annihilator, **kw)
        assert np.array_equal(patch.points, points)
        assert np.array_equal(patch.residuals, residuals)
        assert patch.to_csv().splitlines()[2:] == rows

    def test_residual_error_names_first_bad_node_in_c_order(self):
        p = _helix_problem()
        kw = dict(phi0={"x": sx.ONE, "y": sx.ZERO}, grid={"t": (0.0, 1.6, 33)}, step=4e-3)
        worst = np.max(np.abs(flows.sweep_section(p, p.annihilator, tolerance=1.0, **kw).residuals), axis=-1)
        tol = float(worst[0])  # the one-sided end nodes carry the largest errors
        first = int(np.argmax(worst > tol))
        assert first > 0
        with pytest.raises(ResidualTooLargeError) as info:
            flows.sweep_section(p, p.annihilator, tolerance=tol, **kw)
        assert info.value.node == (first,)
        assert info.value.value == worst[first]
        assert f"node ({first},)" in str(info.value)

    def test_k3_residual_error_node_order(self):
        p = _constant_k3_problem()
        kw = dict(phi0={"z1": 0, "z2": 0, "z3": 0, "z4": 0}, grid={"x1": (0.0, 0.1, 3), "x2": (0.0, 0.1, 4), "x3": (0.0, 0.1, 2)})
        worst = np.max(np.abs(flows.sweep_section(p, p.annihilator, step=5e-3, **kw).residuals), axis=-1)
        tol = float(worst.flat[0])
        first = np.unravel_index(int(np.argmax(worst > tol)), worst.shape)
        assert sum(first) > 0
        with pytest.raises(ResidualTooLargeError) as info:
            flows.sweep_section(p, p.annihilator, step=5e-3, tolerance=tol, **kw)
        assert info.value.node == tuple(int(i) for i in first)
        assert info.value.value == worst[first]

    @staticmethod
    def _coordinate_distribution(chart, extra=None):
        """d/dx1 (+ `extra` d/dz1) and d/dx2: an integrable, transversal
        distribution given directly, whatever the problem's annihilator."""
        X1 = [sx.ONE, sx.ZERO] + [sx.ZERO] * len(chart.fiber)
        if extra is not None:
            X1[chart.index("z1")] = extra
        X2 = [sx.ZERO, sx.ONE] + [sx.ZERO] * len(chart.fiber)
        cert = la.RankCertificate(2, 0, None, 0, [])
        return ids.Distribution(chart, (fm.VecField(chart, X1), fm.VecField(chart, X2)), 2, None, cert)

    def test_march_failure_names_the_point(self):
        # the z1-slope of the x1 field has a pole at x1 = 1/2, which the
        # k4 stage of the second step hits exactly
        p = fx.problem("example1", instance="constant")
        pole = 1 / (sx.var("x1") - sx.num(Fraction(1, 2)))
        D = self._coordinate_distribution(p.chart, pole)
        with pytest.raises(EvaluationFailureError, match=r"field evaluation failed at \{'x1': 0.5, 'x2': 0.0,"):
            flows.sweep_section(
                p, D, {"z1": 0, "z2": 0, "z3": 0}, grid={"x1": (0.0, 1.0, 5), "x2": (0.0, 1.0, 3)}, step=0.25
            )

    def _singular_problem(self):
        # B11 = 1/(x1 - 1/2): every equation is singular on the nodes x1 = 1/2
        spec = fx.load("example1")
        spec.pop("opaque")
        inst = dict(spec["instances"]["constant"], B11="1/(x1 - 1/2)")
        return specio.problem_from_spec(spec, instance=inst)

    def test_residual_failure_names_the_node(self):
        p = self._singular_problem()
        D = self._coordinate_distribution(p.chart)
        kw = dict(phi0={"z1": 0, "z2": 0, "z3": 0}, grid={"x1": (0.0, 1.0, 5), "x2": (0.0, 1.0, 3)}, step=0.25)
        with pytest.raises(EvaluationFailureError, match=r"residual evaluation failed at \(2, 0\): denominator"):
            flows.sweep_section(p, D, tolerance=1e300, **kw)
        # a node before it that violates the tolerance is reported first
        with pytest.raises(ResidualTooLargeError) as info:
            flows.sweep_section(p, D, tolerance=1.0, **kw)
        assert info.value.node == (0, 0)

    @pytest.mark.parametrize("count", [0, -2])
    def test_grid_without_nodes_is_rejected(self, count):
        p = fx.problem("example1", instance="constant")
        with pytest.raises(ValueError, match="at least one node"):
            flows.sweep_section(
                p, p.annihilator, {"z1": 0, "z2": 0, "z3": 0}, grid={"x1": (0.0, 1.0, count), "x2": (0.0, 1.0, 3)}
            )

    def test_unbound_residual_atom_fails_at_the_first_node(self):
        p = fx.problem("example1")  # generic: the equations carry opaque atoms
        D = self._coordinate_distribution(p.chart)
        with pytest.raises(EvaluationFailureError, match=r"residual evaluation failed at \(0, 0\): no interpretation"):
            flows.sweep_section(
                p, D, {"z1": 0, "z2": 0, "z3": 0}, grid={"x1": (0.0, 1.0, 3), "x2": (0.0, 1.0, 3)}, step=0.5
            )


# ---------------------------------------------------------------------------
# RK4 against a reference that shares none of its code


def _oracle_flow(X, start, t, step=flows.DEFAULT_STEP):
    """The path of `flows.flow` by classical RK4 in numpy on a (rows, dim)
    array of one row, each row evaluated by the scalar closures."""
    comps = [sx.compile_expr(c, X.chart.coords) for c in X.components]

    def F(y):
        return np.array([[f(v) for f in comps] for v in y.tolist()])

    y = np.array([[float(v) for v in start]])
    nsteps = max(1, math.ceil(abs(t) / step))
    h = t / nsteps
    path = [y[0].copy()]
    for _ in range(nsteps):
        k1 = F(y)
        k2 = F(y + 0.5 * h * k1)
        k3 = F(y + 0.5 * h * k2)
        k4 = F(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        path.append(y[0].copy())
    return path


class TestRK4Oracle:
    def test_exponential_fixture_path(self):
        chart = fm.Chart(["t", "z"])
        X = fm.VecField(chart, [sx.ONE, sx.var("z")])
        assert np.array_equal(flows.flow(X, [0.0, 1.0], 1.0, step=1e-3), _oracle_flow(X, [0.0, 1.0], 1.0, step=1e-3))

    def test_helix_path(self):
        p = _helix_problem()
        (X,) = flows._transversal_fields(p, p.annihilator, ["t"])
        start = [0.0, 0.75, -0.5]
        assert np.array_equal(flows.flow(X, start, 1.6, step=1e-3), _oracle_flow(X, start, 1.6, step=1e-3))

    @pytest.mark.parametrize("case", ["example1-x1-first", "constant-k3", "example2-axis-seed-curve"])
    def test_sweep_bitwise_equal(self, case):
        make, kw = DIFFERENTIAL_CASES[case]
        p = make()
        kw = {"step": 1e-3, **kw}
        patch = flows.sweep_section(p, p.annihilator, tolerance=1e-2, **kw)
        points, residuals, _ = _oracle_sweep(p, p.annihilator, flow=_oracle_flow, **kw)
        assert np.array_equal(patch.points, points)
        assert np.array_equal(patch.residuals, residuals)
