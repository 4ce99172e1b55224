"""Numeric reduction: integrate characteristic fields to build critical
sections by pulling seed data along integral manifolds.

Integration is classical fixed-step fourth order (deterministic, adequate
at desk scale), one routine over coordinate columns (1-D arrays of rows,
or Python floats for the one point of `flow`).  Each swept field is
compiled once into one straight-line step function: components that are
products of constants and coordinates are inlined as Python arithmetic,
every other component is called through its `compile_expr` closure, and
the bits are those of the classical stage loop.  A step that fails is
re-run stage by stage, row by row, with the scalar closures to name the
first failing point.  A sweep marches the lattice axis by axis, all
nodes reached so far advancing together through one march per axis,
then checks the critical equations at every node with finite-difference
jets, each equation compiled once and evaluated over the node columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

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

# what a field evaluation raises where the march breaks down
_FIELD_ERRORS = sx.SINGULAR_POINT_ERRORS + (UnboundVariableError,)


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
    `residuals` has shape lattice_shape x n_equations.
    """

    chart: BundleChart
    axes: dict[str, GridAxis]
    points: np.ndarray
    residuals: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals))) if self.residuals.size else 0.0

    def lattice_shape(self) -> tuple[int, ...]:
        return tuple(self.axes[b].count for b in self.chart.base)

    def to_csv(self) -> str:
        """One row per node: base coords, fiber coords, per-equation
        residuals; first line carries the provenance JSON.  Each value is
        the `repr` of its Python float, formed once per distinct bit
        pattern of the node table (so -0.0 and 0.0, and NaNs with distinct
        payloads, each keep their own text)."""
        lines = ["# " + json.dumps(self.provenance, sort_keys=True)]
        n_eq = self.residuals.shape[-1] if self.residuals.size else 0
        header = list(self.chart.base) + list(self.chart.fiber) + [
            f"residual_{i + 1}" for i in range(n_eq)
        ]
        lines.append(",".join(header))
        nodes = math.prod(self.lattice_shape())
        cols = [self.chart.index(name) for name in header[: self.chart.dim]]
        table = np.concatenate(
            [self.points.reshape(nodes, self.chart.dim)[:, cols], self.residuals.reshape(nodes, n_eq)],
            axis=1, dtype=np.float64,
        )
        bits, inverse = np.unique(table.view(np.int64).ravel(), return_inverse=True)
        texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        lines.extend(map(",".join, texts[inverse.reshape(table.shape)].tolist()))
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
    is left.  The field is compiled once per call.
    """
    coords = X.chart.coords
    if isinstance(start, Mapping):
        y = np.array([float(start[c]) for c in coords])
    else:
        y = np.array([float(v) for v in start])
        if y.shape != (len(coords),):
            raise ValueError("start point has wrong dimension")
    path = [y.copy()]
    _rk4(X, y, [t], step, bbox, path)
    return path


def _rk4(X: VecField, y: np.ndarray, spans: Sequence[float], step: float,
         bbox=None, path: Optional[list] = None) -> list[np.ndarray]:
    """Advance `y`, one point (dim) or the rows of a (rows, dim) array, by
    fixed-step classical RK4 under the field X for each duration of
    `spans` in turn, and return the point(s) reached at the end of each;
    appends the point(s) reached by every step to `path` when given.

    The state is a list of coordinate columns (Python floats for one
    point, 1-D arrays for rows), kept across the spans, and each step is
    one call of the field's generated step function (`_compile_step`),
    whose arithmetic is elementwise, so every row gets the bits of a
    one-point run.  A step that raises is re-run stage by stage with the
    scalar closures, row by row (`_name_failure`), to name the first
    failing row at the first failing stage."""
    if step <= 0:
        raise ValueError("step must be positive")
    chart = X.chart
    shape = y.shape
    rows = y.reshape(-1, chart.dim)
    one = len(rows) == 1
    kernel = _compile_step(X)

    def stacked(state: list) -> np.ndarray:
        return np.array(state).T.reshape(shape)

    state = rows[0].tolist() if one else list(rows.T)
    reached = []
    for t in spans:
        nsteps = math.ceil(abs(t) / step)  # at least 1 unless t == 0
        h = t / nsteps if nsteps else 0.0
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(nsteps):
            try:
                new = kernel(state, h, half, sixth)
            except _FIELD_ERRORS:
                _name_failure(X, state, h, half, one)
                raise
            state = new
            if bbox is not None:
                points = stacked(state).reshape(-1, chart.dim)
                for name, (lo, hi) in bbox.items():
                    col = points[:, chart.index(name)]
                    left = (col < lo) | (col > hi)
                    if left.any():
                        r = int(left.argmax())
                        raise BoxExitError(f"flow left the box at {name} = {col[r]}", point=points[r].copy())
            if path is not None:
                path.append(stacked(state))
        reached.append(stacked(state))
    return reached


def _name_failure(X: VecField, state: list, h: float, half: float, one: bool) -> None:
    """Re-run the RK4 step from `state` stage by stage, each stage row by
    row with the scalar closures (the same bits as the step function), and
    raise EvaluationFailureError for the first row that fails at the first
    stage where any row fails; return when no row fails."""
    coords = X.chart.coords
    comps = [sx.compile_expr(c, coords) for c in X.components]
    ys = [state] if one else [list(r) for r in zip(*(col.tolist() for col in state))]
    ks: list = []
    for coef in (None, half, half, h):
        stage = ys if coef is None else [[a + coef * k for a, k in zip(v, kv)] for v, kv in zip(ys, ks)]
        ks = []
        for v in stage:
            try:
                ks.append([f(v) for f in comps])
            except _FIELD_ERRORS as exc:
                at = dict(zip(coords, v))
                raise EvaluationFailureError(f"field evaluation failed at {at}: {exc}") from exc


# generated step source -> its factory; the source holds slot indices and
# operators only, so fields of one shape share it
_STEP_FACTORIES: dict[str, Callable] = {}
# stage state names: stage 1 reads the step's input, stages 2-4 y + c*k
_STAGES = (("y", None), ("a", "half"), ("b", "half"), ("d", "h"))


def _compile_step(X: VecField) -> Callable[[list, float, float, float], list]:
    """One RK4 step of X as one straight-line function of the state list
    and h, h/2, h/6, returning the next state list.

    A component whose canonical form is one term, a constant times bound
    coordinates to the first power, is inlined as Python arithmetic in the
    order of `symexpr.compile_expr`'s product, `((1.0 * c) * a) * b`;
    every other component is called through its `compile_expr` closure on
    the stage's state list.  The stage states are `y + half*k1`,
    `y + half*k2`, `y + h*k3` and the update
    `y + sixth*(((k1 + 2*k2) + 2*k3) + k4)`, as in the classical loop, so
    floats and columns keep its bits; a stage
    coordinate no component reads is not computed.  Constants and
    closures are arguments of the generated factory, so the source
    depends only on the field's shape and is compiled once per shape."""
    coords = X.chart.coords
    slots = {sx.var(c): i for i, c in enumerate(coords)}
    consts: list[float] = []
    calls: list = []
    reads: set[int] = set()
    texts = []
    for c in X.components:
        text = _inline(c, slots, consts, reads)
        if text is None:
            calls.append(sx.compile_expr(c, coords))
            text = f"f{len(calls) - 1}(v)"
        texts.append(text)
    dim = len(texts)
    reads = range(dim) if calls else sorted(reads)
    params = [f"c{j}" for j in range(len(consts))] + [f"f{j}" for j in range(len(calls))]
    src = [f"def factory({', '.join(params)}):", "    def step(y, h, half, sixth):",
           f"        {''.join(f'y{i}, ' for i in range(dim))}= y"]
    ks: list = []
    for s, (name, coef) in enumerate(_STAGES):
        if coef is not None:
            src += [f"        {name}{i} = y{i} + {coef} * {ks[-1][i]}" for i in reads]
        if calls:
            src.append("        v = y" if coef is None else f"        v = [{', '.join(f'{name}{i}' for i in range(dim))}]")
        stage_k = []
        for i, text in enumerate(texts):
            expr = text.replace("@", name)
            if not expr.isidentifier():
                src.append(f"        k{s + 1}_{i} = {expr}")
                expr = f"k{s + 1}_{i}"
            stage_k.append(expr)
        ks.append(stage_k)
    update = [f"y{i} + sixth * ((({k1} + 2 * {k2}) + 2 * {k3}) + {k4})" for i, (k1, k2, k3, k4) in enumerate(zip(*ks))]
    src += [f"        return [{', '.join(update)}]", "    return step"]
    src = "\n".join(src) + "\n"
    factory = _STEP_FACTORIES.get(src)
    if factory is None:
        scope: dict = {}
        exec(compile(src, "<rk4 step>", "exec"), scope)
        factory = _STEP_FACTORIES[src] = scope["factory"]
    return factory(*consts, *calls)


def _inline(e: Expr, slots: Mapping[Expr, int], consts: list, reads: set) -> Optional[str]:
    """Python source of a canonical form that is one term (`poly_terms`),
    a constant times variables of `slots` to the first power, or None for
    any other form: `c<j>` for the j-th entry it appends to `consts` (left
    out when it is 1 and not alone), then `@<i>` for slot i of the stage
    state, which it adds to `reads`, multiplied from 1.0 left to right."""
    terms = sx.poly_terms(e)
    if terms is None or len(terms) > 1:
        return None
    coeff, atoms = terms[0] if terms else (0, ())
    if not all(n == 1 and atom in slots for atom, n in atoms):
        return None
    reads.update(slots[atom] for atom, _ in atoms)
    parts = [f"@{slots[atom]}" for atom, _ in atoms]
    if coeff != 1 or not atoms:
        consts.append(float(coeff))
        parts.insert(0, f"c{len(consts) - 1}")
    if len(parts) == 1:
        return parts[0]
    out = "1.0"
    for part in parts:
        out = f"({out} * {part})"
    return out


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
    worst = 0.0
    for i in range(len(D.basis)):
        for j in range(i + 1, len(D.basis)):
            Xi, Xj = D.basis[i], D.basis[j]
            a = flow(Xj, flow(Xi, point, t, step)[-1], t, step)[-1]
            b = flow(Xi, flow(Xj, point, t, step)[-1], t, step)[-1]
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
    vectors along the requested axes (the transversal part of D), each
    read off the basis anchors over the base columns
    (`ideals.combination`, no elimination): a field anchored on a fiber
    column takes no part.  The base components are the unit vector
    itself, which `combination` has checked canonically; only the fiber
    components are summed."""
    chart = p.chart
    k = chart.k
    out = []
    for ax in axes:
        comps = [sx.ONE if b == ax else sx.ZERO for b in chart.base] + [sx.ZERO] * (chart.dim - k)
        sol = ids.combination(D, comps, range(k))
        if sol is None:
            raise NonTransversalDistributionError(
                f"no combination of the distribution matches the {ax} direction"
            )
        for u, Y in zip(sol, D.basis):
            for i in range(k, chart.dim):
                comps[i] = comps[i] + u * Y.components[i]
        out.append(VecField(chart, comps))
    return out


def _seed_is_integral(p: vp.VariationalProblem, components, seed_axes, seed_values):
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
            comp = components[name]
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
        if axes[b].count < 1:
            raise ValueError(f"grid axis {b!r} needs at least one node")
    seed_axes = tuple(seed_axes)
    trans_axes = [b for b in chart.base if b not in seed_axes]
    if axis_order is None:
        axis_order = trans_axes
    else:
        axis_order = list(axis_order)
        if sorted(axis_order) != sorted(trans_axes):
            raise ValueError("axis_order must permute the transversal axes")

    fr = ids.frobenius_check(D)
    if fr.verdict != "integrable":
        raise ValueError(f"distribution is not certified integrable ({fr.verdict})")

    comp_map = phi0.components if isinstance(phi0, SectionMap) else {
        name: c if isinstance(c, Expr) else sx.num(c) for name, c in phi0.items()
    }
    for name in chart.fiber:
        if name not in comp_map:
            raise ValueError(f"seed section missing component {name!r}")
        extra = sx.free_vars(comp_map[name]) - set(seed_axes)
        if extra:
            raise ValueError(f"seed component {name!r} must use only seed axes, has {sorted(extra)}")

    seed_values = {ax: axes[ax].values()[0] for ax in trans_axes}
    _seed_is_integral(p, comp_map, seed_axes, seed_values)

    fields = {ax: f for ax, f in zip(axis_order, _transversal_fields(p, D, axis_order))}

    vals = {b: axes[b].values() for b in chart.base}
    seed_shape = tuple(axes[b].count for b in seed_axes)
    base_pos = {b: chart.index(b) for b in chart.base}
    fiber_pos = [chart.index(name) for name in chart.fiber]

    # the seed nodes in C order, the seed section's values and slopes at
    # each, and the tangency of the seed manifold against D there; the
    # first node that fails to evaluate or is tangent is reported
    nodes = [tuple(float(vals[ax][j]) for ax, j in zip(seed_axes, idx)) for idx in np.ndindex(*seed_shape)]
    seed_jet = [[comp_map[name] for name in chart.fiber]]
    seed_jet += [[sx.diff(comp_map[name], ax) for name in chart.fiber] for ax in seed_axes]
    jets, failures = la.sample_stack(seed_jet, seed_axes, nodes)
    upto = failures[0][0] if failures else len(nodes)
    block = np.zeros((upto, chart.dim))
    for ax in trans_axes:
        block[:, base_pos[ax]] = seed_values[ax]
    block[:, [base_pos[ax] for ax in seed_axes]] = np.reshape(nodes[:upto], (upto, len(seed_axes)))
    block[:, fiber_pos] = jets[:upto, 0]
    tangents = np.zeros((upto, len(seed_axes) + len(D.basis), chart.dim))
    for d, ax in enumerate(seed_axes):
        tangents[:, d, base_pos[ax]] = 1.0
        tangents[:, d, fiber_pos] = jets[:upto, 1 + d]
    basis, basis_failures = la.sample_stack([Y.components for Y in D.basis], chart.coords, block.tolist())
    upto_basis = basis_failures[0][0] if basis_failures else upto
    tangents[:upto_basis, len(seed_axes):] = basis[:upto_basis].reshape(upto_basis, len(D.basis), chart.dim)
    tangent = la.numeric_ranks(tangents[:upto_basis]) < tangents.shape[1]
    if tangent.any():
        raise TangencyViolationError(
            "seed manifold is tangent to the characteristic distribution",
            point=dict(zip(chart.coords, block[int(tangent.argmax())].tolist())),
        )
    for failed in basis_failures[:1] + failures[:1]:
        raise failed[1]
    block = block.reshape(seed_shape + (chart.dim,))

    # march the lattice one axis at a time from its low edge: every node
    # reached so far is a row, and all rows advance together edge by edge
    for ax in axis_order:
        lattice = vals[ax]
        rows = block.reshape(-1, chart.dim)
        spans = [float(lattice[j] - lattice[j - 1]) for j in range(1, len(lattice))]
        swept = [rows] + _rk4(fields[ax], rows, spans, step)
        block = np.stack(swept, axis=1).reshape(block.shape[:-1] + (len(lattice), chart.dim))
    order = list(seed_axes) + list(axis_order)
    points = np.ascontiguousarray(block.transpose([order.index(b) for b in chart.base] + [len(order)]))
    shape = points.shape[:-1]

    # transversality bookkeeping: base coordinates must hit the lattice (a
    # NaN means the march broke down); the first bad node in C order fails
    want = np.stack(np.meshgrid(*vals.values(), indexing="ij"), axis=-1)
    drifted = np.abs(points[..., [base_pos[b] for b in chart.base]] - want) > 1e-8
    unreached = np.isnan(points).any(axis=-1)
    bad = unreached | drifted.any(axis=-1)
    if bad.any():
        node = tuple(map(int, np.unravel_index(int(bad.argmax()), shape)))
        if unreached[node]:
            raise TangencyViolationError(f"lattice node {node} was never reached")
        raise TangencyViolationError(
            f"node {node} drifted off the base lattice in {chart.base[int(drifted[node].argmax())]}",
            point={c: float(v) for c, v in zip(chart.coords, points[node])},
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


def _fd_slopes(f: np.ndarray, d: int, vals: np.ndarray) -> np.ndarray:
    """Second-order finite-difference slopes of node values `f` along axis d
    of lattice `vals` (one-sided at the ends, first order on two nodes)."""
    a = np.moveaxis(f, d, 0)
    out = np.zeros_like(a)
    if len(a) == 2:
        out[0] = out[1] = (a[1] - a[0]) / float(vals[1] - vals[0])
    elif len(a) > 2:
        h = float(vals[1] - vals[0])
        out[1:-1] = (a[2:] - a[:-2]) / (2 * h)
        out[0] = (-3 * a[0] + 4 * a[1] - a[2]) / (2 * h)
        out[-1] = (3 * a[-1] - 4 * a[-2] + a[-3]) / (2 * h)
    return np.moveaxis(out, 0, d)


def _node_residuals(p, points, vals, tolerance) -> np.ndarray:
    """Evaluate the critical equations at every node with second-order
    finite-difference jets (exact for the affine closed forms), each
    equation once over the node columns.  The first node in C order whose
    evaluation fails or whose largest residual exceeds the tolerance is
    reported."""
    chart = p.chart
    system = vp.critical_equations(p)
    shape = points.shape[:-1]
    nodes = math.prod(shape)
    symbols = list(chart.coords) + [vp.jet_name(f, b) for b in chart.base for f in chart.fiber]
    fiber = points[..., [chart.index(name) for name in chart.fiber]]
    jets = [_fd_slopes(fiber, d, vals[b]) for d, b in enumerate(chart.base)]
    at = np.concatenate([points] + jets, axis=-1).reshape(nodes, len(symbols))
    residuals, failures = la.sample_stack([system.deltas], symbols, at)
    residuals = residuals[: failures[0][0] if failures else nodes, 0]
    worst = np.max(np.abs(residuals), axis=1)
    over = worst > tolerance
    if over.any():
        r = int(over.argmax())
        node = tuple(map(int, np.unravel_index(r, shape)))
        raise ResidualTooLargeError(
            f"node {node} violates the residual tolerance: {worst[r]:.3e} > {tolerance}",
            node=node, value=float(worst[r]),
        )
    for _, failure in failures[:1]:
        if isinstance(failure, (DivisionByZeroError, UnboundVariableError)):
            node = tuple(map(int, np.unravel_index(len(residuals), shape)))
            raise EvaluationFailureError(f"residual evaluation failed at {node}: {failure}") from failure
        raise failure
    return residuals.reshape(shape + (len(system.deltas),))
