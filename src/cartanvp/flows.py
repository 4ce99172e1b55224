"""Numeric reduction: integrate characteristic fields to build critical
sections by pulling seed data along integral manifolds.

Integration is classical fixed-step fourth order (deterministic, adequate
at desk scale).  A sweep marches a lattice over the base box: from each
seed node it composes flows of transversal-normalized characteristic
fields axis by axis, then verifies the critical-equation residuals at
every node with second-order finite-difference jets.  Fields, seed data
and residual equations are compiled once by `symexpr.compile_expr` and
evaluated at the RK4 stages and lattice nodes as plain float vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import ideals as ids
from . import linalg as la
from . import symexpr as sx
from . import varprin as vp
from .errors import (
    BoxExitError,
    DivisionByZeroError,
    EvaluationFailureError,
    NonTransversalDistributionError,
    ResidualTooLargeError,
    TangencyViolationError,
    UnboundVariableError,
)
from .forms import BundleChart, Chart, SectionMap, VecField, d_coord, one_form, pullback_with, zero_form
from .symexpr import Expr

__all__ = ["SampledPatch", "GridAxis", "flow", "sweep_section", "commutation_defect"]

DEFAULT_STEP = 1e-3
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    count: int

    def values(self) -> np.ndarray:
        if self.count < 2:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass
class SampledPatch:
    """Lattice of reconstructed section points with per-node residuals.

    `points` has shape lattice_shape x n (chart coordinate order);
    `residuals` has shape lattice_shape x n_equations.  Interpolation
    between nodes is multilinear and flagged approximate.
    """

    chart: BundleChart
    axes: dict[str, GridAxis]
    points: np.ndarray
    residuals: np.ndarray
    provenance: dict = field(default_factory=dict)
    approximate: bool = True

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals))) if self.residuals.size else 0.0

    def lattice_shape(self) -> tuple[int, ...]:
        return tuple(self.axes[b].count for b in self.chart.base)

    def interpolate(self, base_point: Mapping[str, float]) -> dict[str, float]:
        """Multilinear fiber values at a base point inside the lattice."""
        shape = self.lattice_shape()
        idx0 = []
        fracs = []
        for d, b in enumerate(self.chart.base):
            vals = self.axes[b].values()
            x = float(base_point[b])
            j = int(np.clip(np.searchsorted(vals, x) - 1, 0, max(len(vals) - 2, 0)))
            denom = vals[j + 1] - vals[j] if len(vals) > 1 else 1.0
            frac = 0.0 if denom == 0 else (x - vals[j]) / denom
            idx0.append(j)
            fracs.append(min(max(frac, 0.0), 1.0))
        acc = np.zeros(self.points.shape[-1])
        for corner in np.ndindex(*([2] * len(shape))):
            w = 1.0
            node = []
            for d, c in enumerate(corner):
                w *= fracs[d] if c else (1.0 - fracs[d])
                node.append(min(idx0[d] + c, shape[d] - 1))
            acc += w * self.points[tuple(node)]
        return {
            name: float(acc[self.chart.index(name)]) for name in self.chart.fiber
        }

    def to_csv(self) -> str:
        """One row per node: base coords, fiber coords, per-equation
        residuals; first line carries the provenance JSON."""
        lines = ["# " + json.dumps(self.provenance, sort_keys=True)]
        n_eq = self.residuals.shape[-1] if self.residuals.size else 0
        header = list(self.chart.base) + list(self.chart.fiber) + [
            f"residual_{i + 1}" for i in range(n_eq)
        ]
        lines.append(",".join(header))
        for node in np.ndindex(*self.lattice_shape()):
            pt = self.points[node]
            row = [repr(float(pt[self.chart.index(b)])) for b in self.chart.base]
            row += [repr(float(pt[self.chart.index(f)])) for f in self.chart.fiber]
            row += [repr(float(r)) for r in self.residuals[node]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# point flows


def flow(
    X: VecField,
    start: Sequence[float] | Mapping[str, float],
    t: float,
    step: float = DEFAULT_STEP,
    bbox: Optional[Mapping[str, tuple[float, float]]] = None,
) -> list[np.ndarray]:
    """Fixed-step classical RK4 path from `start` for duration t.

    Returns ceil(|t|/step)+1 points (the step is shrunk uniformly to land
    exactly on t); raises EvaluationFailureError when a component cannot
    be evaluated en route and BoxExitError when a configured bounding box
    is left.  The components are compiled once per call.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    coords = X.chart.coords
    if isinstance(start, Mapping):
        y = np.array([float(start[c]) for c in coords])
    else:
        y = np.array([float(v) for v in start])
        if y.shape != (len(coords),):
            raise ValueError("start point has wrong dimension")
    comps = [sx.compile_expr(c, coords) for c in X.components]

    def F(y: np.ndarray) -> np.ndarray:
        v = y.tolist()
        try:
            return np.array([f(v) for f in comps])
        except (DivisionByZeroError, UnboundVariableError, ValueError, OverflowError) as exc:
            point = dict(zip(coords, v))
            raise EvaluationFailureError(f"field evaluation failed at {point}: {exc}") from exc

    if t == 0:
        return [y.copy()]
    nsteps = max(1, math.ceil(abs(t) / step))
    h = t / nsteps
    path = [y.copy()]
    for _ in range(nsteps):
        k1 = F(y)
        k2 = F(y + 0.5 * h * k1)
        k3 = F(y + 0.5 * h * k2)
        k4 = F(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if bbox is not None:
            for name, (lo, hi) in bbox.items():
                v = y[X.chart.index(name)]
                if v < lo or v > hi:
                    raise BoxExitError(f"flow left the box at {name} = {v}", point=y.copy())
        path.append(y.copy())
    return path


def commutation_defect(
    D: ids.Distribution,
    point: Sequence[float] | Mapping[str, float],
    t: float,
    step: float = DEFAULT_STEP,
) -> float:
    """Largest norm gap between the two flow orders over all basis pairs;
    of size t^2 times the bracket for smooth fields, so a numeric
    cross-check of the Frobenius verdict."""
    if len(D.basis) < 2:
        raise ValueError("need at least two basis fields")
    coords = D.chart.coords
    if isinstance(point, Mapping):
        y0 = np.array([float(point[c]) for c in coords])
    else:
        y0 = np.array([float(v) for v in point])
    worst = 0.0
    for i in range(len(D.basis)):
        for j in range(i + 1, len(D.basis)):
            Xi, Xj = D.basis[i], D.basis[j]
            a = flow(Xj, flow(Xi, y0, t, step)[-1], t, step)[-1]
            b = flow(Xi, flow(Xj, y0, t, step)[-1], t, step)[-1]
            worst = max(worst, float(np.linalg.norm(a - b)))
    return worst


# ---------------------------------------------------------------------------
# section sweeping


def _transversal_fields(
    p: vp.VariationalProblem,
    D: ids.Distribution,
    axes: Sequence[str],
) -> list[VecField]:
    """Combinations of the basis whose base components are coordinate unit
    vectors along the requested axes (the transversal part of D)."""
    chart = p.chart
    k = chart.k
    A = [[Y.components[i] for Y in D.basis] for i in range(k)]
    out = []
    for ax in axes:
        target = [sx.ONE if b == ax else sx.ZERO for b in chart.base]
        sol = la.solve_linear(A, target, box=p.box, seed=p.seed)
        ok = sol is not None
        if ok:
            for i in range(k):
                acc = sx.ZERO
                for u, Y in zip(sol, D.basis):
                    acc = acc + u * Y.components[i]
                if not sx.canon(acc - target[i]).is_const_zero():
                    ok = False
                    break
        if not ok:
            raise NonTransversalDistributionError(
                f"no combination of the distribution matches the {ax} direction"
            )
        comps = [sx.ZERO] * chart.dim
        for u, Y in zip(sol, D.basis):
            for i in range(chart.dim):
                comps[i] = comps[i] + u * Y.components[i]
        out.append(VecField(chart, comps))
    return out


def _seed_is_integral(p: vp.VariationalProblem, phi0, seed_axes, seed_values):
    """Pull the contraction generators back onto the seed slice; they must
    vanish identically there."""
    chart = p.chart
    if not seed_axes:
        return
    target = Chart(tuple(seed_axes))
    diff_map = {}
    coeff_sub: dict[str, Expr] = {}
    for i, name in enumerate(chart.coords):
        if name in seed_axes:
            diff_map[i] = d_coord(target, name)
        elif chart.is_base(i):
            diff_map[i] = zero_form(target, 1)
            coeff_sub[name] = sx.num(seed_values[name])
        else:
            comp = phi0.components[name]
            diff_map[i] = one_form(target, {ax: sx.diff(comp, ax) for ax in seed_axes})
            coeff_sub[name] = comp
    for pos, psi in enumerate(p.psi):
        pb = pullback_with(psi, target, diff_map, coeff_sub)
        if not pb.is_zero_form():
            raise TangencyViolationError(
                f"seed section is not integral: generator {pos + 1} pulls back to {pb.display()}"
            )


def sweep_section(
    p: vp.VariationalProblem,
    D: ids.Distribution,
    phi0: Mapping[str, Expr] | SectionMap,
    grid: Mapping[str, tuple[float, float, int] | GridAxis],
    seed_axes: Sequence[str] = (),
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOL,
    axis_order: Optional[Sequence[str]] = None,
) -> SampledPatch:
    """Reconstruct a critical section from seed data on a sub-base.

    `phi0` gives the fiber components over the seed axes (constants for a
    point seed); the remaining base axes are swept by flowing the
    transversal-normalized characteristic combinations in a fixed axis
    order from the anchor corner of the grid.  Every node must satisfy the
    critical-equation residuals below the tolerance (second-order
    finite-difference jets), or the sweep aborts.
    """
    chart = p.chart
    axes = {name: (g if isinstance(g, GridAxis) else GridAxis(*g)) for name, g in grid.items()}
    for b in chart.base:
        if b not in axes:
            raise ValueError(f"grid missing base axis {b!r}")
    seed_axes = tuple(seed_axes)
    trans_axes = [b for b in chart.base if b not in seed_axes]
    if axis_order is None:
        axis_order = trans_axes
    else:
        axis_order = list(axis_order)
        if sorted(axis_order) != sorted(trans_axes):
            raise ValueError("axis_order must permute the transversal axes")

    fr = ids.frobenius_check(D, box=p.box, seed=p.seed)
    if fr.verdict != "integrable":
        raise ValueError(f"distribution is not certified integrable ({fr.verdict})")

    comp_map = phi0.components if isinstance(phi0, SectionMap) else {
        name: sx.canon(c if isinstance(c, Expr) else sx.num(c)) for name, c in phi0.items()
    }
    for name in chart.fiber:
        if name not in comp_map:
            raise ValueError(f"seed section missing component {name!r}")
        extra = sx.free_vars(comp_map[name]) - set(seed_axes)
        if extra:
            raise ValueError(f"seed component {name!r} must use only seed axes, has {sorted(extra)}")

    seed_values = {ax: axes[ax].values()[0] for ax in trans_axes}
    _seed_is_integral(p, _SeedSection(comp_map), seed_axes, seed_values)

    fields = {ax: f for ax, f in zip(axis_order, _transversal_fields(p, D, axis_order))}

    # lattice bookkeeping in chart base order
    shape = tuple(axes[b].count for b in chart.base)
    points = np.full(shape + (chart.dim,), np.nan)
    vals = {b: axes[b].values() for b in chart.base}

    seed_shape = tuple(axes[b].count for b in seed_axes)
    base_pos = {b: chart.index(b) for b in chart.base}
    seed_fiber = [sx.compile_expr(comp_map[name], seed_axes) for name in chart.fiber]
    seed_slopes = [
        [sx.compile_expr(sx.diff(comp_map[name], ax), seed_axes) for name in chart.fiber]
        for ax in seed_axes
    ]
    eval_basis = la.compile_matrix([Y.components for Y in D.basis], chart.coords)

    def node_point(seed_idx: tuple[int, ...]) -> np.ndarray:
        pt = np.zeros(chart.dim)
        for ax, j in zip(seed_axes, seed_idx):
            pt[base_pos[ax]] = vals[ax][j]
        for ax in trans_axes:
            pt[base_pos[ax]] = seed_values[ax]
        at_seed = [float(vals[ax][j]) for ax, j in zip(seed_axes, seed_idx)]
        for name, f in zip(chart.fiber, seed_fiber):
            pt[chart.index(name)] = f(at_seed)
        return pt

    # tangency of the seed manifold against D at the seed nodes
    seed_nodes = {}
    for seed_idx in np.ndindex(*seed_shape) if seed_shape else [()]:
        pt = seed_nodes[seed_idx] = node_point(seed_idx)
        at_seed = [float(pt[base_pos[ax]]) for ax in seed_axes]
        rows = []
        for ax, slopes in zip(seed_axes, seed_slopes):
            row = np.zeros(chart.dim)
            row[base_pos[ax]] = 1.0
            for name, f in zip(chart.fiber, slopes):
                row[chart.index(name)] = f(at_seed)
            rows.append(row)
        rows.extend(eval_basis(pt.tolist()))
        rank = la.numeric_rank(np.array(rows))
        if rank < len(seed_axes) + len(D.basis):
            raise TangencyViolationError(
                "seed manifold is tangent to the characteristic distribution",
                point=dict(zip(chart.coords, pt.tolist())),
            )

    # march the lattice axis by axis
    def fill(from_idx: dict[str, int], point: np.ndarray, depth: int):
        if depth == len(axis_order):
            full_idx = tuple(from_idx[b] for b in chart.base)
            points[full_idx] = point
            return
        ax = axis_order[depth]
        lattice = vals[ax]
        j0 = 0  # anchored at the low edge
        fill({**from_idx, ax: j0}, point, depth + 1)
        current = point
        for j in range(j0 + 1, len(lattice)):
            dt = float(lattice[j] - lattice[j - 1])
            current = flow(fields[ax], current, dt, step)[-1]
            fill({**from_idx, ax: j}, current, depth + 1)

    for seed_idx, pt in seed_nodes.items():
        base_idx = {ax: j for ax, j in zip(seed_axes, seed_idx)}
        fill(base_idx, pt, 0)

    # transversality bookkeeping: base coordinates must hit the lattice
    for node in np.ndindex(*shape):
        pt = points[node]
        if np.any(np.isnan(pt)):
            raise TangencyViolationError(f"lattice node {node} was never reached")
        for d, b in enumerate(chart.base):
            want = vals[b][node[d]]
            if abs(pt[base_pos[b]] - want) > 1e-8:
                raise TangencyViolationError(
                    f"node {node} drifted off the base lattice in {b}",
                    point={c: float(v) for c, v in zip(chart.coords, pt)},
                )

    residuals = _node_residuals(p, points, vals, tolerance)
    provenance = {
        "seed_axes": list(seed_axes),
        "seed_section": {name: str(c) for name, c in comp_map.items()},
        "axis_order": list(axis_order),
        "step": step,
        "tolerance": tolerance,
        "grid": {b: [axes[b].lo, axes[b].hi, axes[b].count] for b in chart.base},
        "rng_seed": p.seed,
    }
    return SampledPatch(chart, axes, points, residuals, provenance)


class _SeedSection:
    def __init__(self, components):
        self.components = components


def _node_residuals(p, points, vals, tolerance) -> np.ndarray:
    """Evaluate the critical equations at every node with second-order
    finite-difference jets (exact for the affine closed forms)."""
    chart = p.chart
    system = vp.critical_equations(p)
    shape = points.shape[:-1]
    n_eq = len(system.deltas)
    residuals = np.zeros(shape + (n_eq,))
    spacing = {b: (vals[b][1] - vals[b][0]) if len(vals[b]) > 1 else 1.0 for b in chart.base}
    symbols = list(chart.coords) + [vp.jet_name(f, b) for b in chart.base for f in chart.fiber]
    deltas = [sx.compile_expr(delta, symbols) for delta in system.deltas]
    for node in np.ndindex(*shape):
        values = points[node].tolist()
        for d, b in enumerate(chart.base):
            h = float(spacing[b])
            cnt = shape[d]
            for fname in chart.fiber:
                fi = chart.index(fname)

                def at(j):
                    idx = list(node)
                    idx[d] = j
                    return points[tuple(idx)][fi]

                j = node[d]
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
            try:
                residuals[node + (e,)] = f(values)
            except (DivisionByZeroError, UnboundVariableError) as exc:
                raise EvaluationFailureError(f"residual evaluation failed at {node}: {exc}") from exc
        worst = float(np.max(np.abs(residuals[node])))
        if worst > tolerance:
            raise ResidualTooLargeError(
                f"node {node} violates the residual tolerance: {worst:.3e} > {tolerance}",
                node=node,
                value=worst,
            )
    return residuals
