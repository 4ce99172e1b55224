"""Problem-spec JSON ingestion shared by the fixtures and the CLI.

A problem spec holds a chart block, either `theta` or `factors` (lists of
{coeff, index} records with expression-string coefficients), an optional
`opaque` block declaring generic coefficient atoms (bare names in the
coefficient strings are applied to the listed chart coordinates), an
optional `instances` block of named numeric instantiations of those atoms
(atom name -> expression string), and an `options` block (box, seed,
step, tolerance).  The section file of `verify` and `integrate` and
the spec of `liouville` are read here too.  A field of the wrong shape
raises a ParseError that names it.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import symexpr as sx
from . import varprin as vp
from .errors import ParseError
from .forms import BundleChart, Chart, DiffForm, SectionMap, VecField, form_from_spec
from .symexpr import DEFAULT_SEED, Expr

__all__ = [
    "chart_from_spec",
    "opaque_substitution",
    "instance_from_spec",
    "parse_coefficient",
    "form_from_records",
    "section_from_spec",
    "sweep_from_spec",
    "field_from_spec",
    "liouville_from_spec",
    "problem_from_spec",
    "options_from_spec",
]


def _names(value, field: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(n, str) for n in value):
        raise ParseError(f"{field} must be a list of coordinate names")
    return tuple(value)


def chart_from_spec(spec: Mapping) -> BundleChart:
    try:
        chart = spec["chart"]
        if not isinstance(chart, Mapping):
            raise ParseError("chart must be a record of base, fiber_z and fiber_w name lists")
        return BundleChart(
            _names(chart["base"], "chart.base"),
            _names(chart["fiber_z"], "chart.fiber_z"),
            _names(chart.get("fiber_w", ()), "chart.fiber_w"),
        )
    except KeyError as exc:
        raise ParseError(f"problem spec missing chart key {exc}") from exc


def opaque_substitution(chart: Chart, opaque: Optional[Mapping]) -> dict[str, Expr]:
    """Bare atom names -> applied atoms over the declared coordinates
    ("all" applies the full chart)."""
    opaque = opaque or {}
    if not isinstance(opaque, Mapping):
        raise ParseError('opaque must be a record of atom name -> "all" or a list of coordinate names')
    sub: dict[str, Expr] = {}
    for name, args in opaque.items():
        coords = chart.coords if args == "all" else _names(args, f"opaque.{name}")
        sub[name] = sx.func(name, *[sx.var(c) for c in coords])
    return sub


def instance_from_spec(spec: Mapping, name: str) -> Optional[Mapping[str, str]]:
    """The numeric instantiation block `name` of a spec (atom name ->
    expression string), or None when the spec has no block of that name."""
    instances = spec.get("instances") or {}
    if not isinstance(instances, Mapping):
        raise ParseError("instances must be a record of named instantiation blocks")
    inst = instances.get(name)
    if inst is not None and not (
        isinstance(inst, Mapping) and all(isinstance(t, str) for t in inst.values())
    ):
        raise ParseError(f"instances.{name} must be a record of atom name -> expression string")
    return inst


def parse_coefficient(text: str, sub: Mapping[str, Expr]) -> Expr:
    """The expression of `text` with the names of `sub` bound as they are
    read (`symexpr.parse`)."""
    return sx.parse(text, sub)


def _check_records(records, field: str) -> None:
    """A form is a list of {coeff: string, index: list of names} records."""
    if not isinstance(records, list):
        raise ParseError(f"{field} must be a list of {{coeff, index}} records")
    for j, r in enumerate(records):
        if not isinstance(r, Mapping) or not isinstance(r.get("coeff"), str):
            raise ParseError(f"{field}[{j}] must be a record with a string coeff")
        if not isinstance(r.get("index"), list) or not all(isinstance(n, str) for n in r["index"]):
            raise ParseError(f"{field}[{j}].index must be a list of coordinate names")


def form_from_records(chart: Chart, records, sub: Mapping[str, Expr]) -> DiffForm:
    _check_records(records, "records")
    prepared = [
        {"coeff": parse_coefficient(r["coeff"], sub), "index": r["index"]}
        for r in records
    ]
    try:
        return form_from_spec(chart, prepared)
    except KeyError as exc:
        raise ParseError(f"unknown coordinate in form index: {exc}") from exc


def _components(spec, field: str, sub: Mapping[str, Expr]) -> dict[str, Expr]:
    """The parsed coordinate name -> expression string record of a section
    or field spec: its `components` record, or the spec itself."""
    if isinstance(spec, Mapping) and "components" in spec:
        spec, field = spec["components"], f"{field}.components"
    if not isinstance(spec, Mapping):
        raise ParseError(f"{field} must be a record of coordinate name -> expression string")
    for name, text in spec.items():
        if not isinstance(text, str):
            raise ParseError(f"{field}.{name} must be an expression string")
    return {name: parse_coefficient(text, sub) for name, text in spec.items()}


def section_from_spec(chart: BundleChart, spec, sub=None) -> SectionMap:
    return SectionMap(chart, _components(spec, "section", sub or {}))


def sweep_from_spec(spec) -> dict:
    """The seed file of `integrate`: the keyword arguments `phi0`, `grid`,
    `seed_axes` and `axis_order` of `flows.sweep_section`."""
    if not isinstance(spec, Mapping) or "components" not in spec or "grid" not in spec:
        raise ParseError("section must be a record with components and grid")
    grid = spec["grid"]
    if not isinstance(grid, Mapping):
        raise ParseError("section.grid must be a record of axis name -> [lo, hi, count]")
    for name, axis in grid.items():
        # lo and hi numbers, count an int (a JSON true or false is neither)
        if not (isinstance(axis, list) and len(axis) == 3 and all(type(v) in (int, float) for v in axis)
                and type(axis[2]) is int):
            raise ParseError(f"section.grid.{name} must be [lo, hi, count] with an integer count")
    order = spec.get("axis_order")
    return {
        "phi0": _components(spec, "section", {}),
        "grid": {name: tuple(axis) for name, axis in grid.items()},
        "seed_axes": _names(spec.get("seed_axes", []), "section.seed_axes"),
        "axis_order": None if order is None else _names(order, "section.axis_order"),
    }


def field_from_spec(chart: Chart, spec, sub=None) -> VecField:
    out = [sx.ZERO] * chart.dim
    for name, c in _components(spec, "field", sub or {}).items():
        out[chart.index(name)] = c
    return VecField(chart, out)


def liouville_from_spec(spec: Mapping) -> tuple[Chart, DiffForm, VecField, Optional[DiffForm]]:
    """The phase chart, the volume form omega, the field and the optional
    primitive sigma of a `liouville` spec."""
    chart = Chart(_names(spec["phase"], "phase"))
    for key in ("omega", "sigma"):
        _check_records(spec.get(key, []), key)
    sigma = form_from_records(chart, spec["sigma"], {}) if "sigma" in spec else None
    return chart, form_from_records(chart, spec["omega"], {}), field_from_spec(chart, spec["field"]), sigma


def _option(options: Mapping, key: str, convert, default, what: str):
    try:
        return convert(options.get(key, default))
    except (TypeError, ValueError, IndexError, KeyError, OverflowError) as exc:
        raise ParseError(f"options.{key} must be {what}") from exc


def _box(box):
    if isinstance(box, (list, tuple)):
        return (float(box[0]), float(box[1]))
    if isinstance(box, Mapping):
        return {k: (float(v[0]), float(v[1])) for k, v in box.items()}
    if box is not None:
        raise TypeError("box must be a pair or a record of pairs")
    return None


def options_from_spec(spec: Mapping) -> dict:
    if not isinstance(spec, Mapping):
        raise ParseError("problem spec must be a JSON object")
    options = spec.get("options") or {}
    if not isinstance(options, Mapping):
        raise ParseError("options must be a record of box, seed, step and tolerance")
    return {
        "box": _option(options, "box", _box, None, "[lo, hi] or a record of coordinate -> [lo, hi]"),
        "seed": _option(options, "seed", int, DEFAULT_SEED, "an integer"),
        "step": _option(options, "step", float, 1e-3, "a number"),
        "tolerance": _option(options, "tolerance", float, 1e-6, "a number"),
    }


def problem_from_spec(
    spec: Mapping,
    box=None,
    seed: Optional[int] = None,
    instance: Optional[Mapping[str, str]] = None,
) -> vp.VariationalProblem:
    """Build the variational problem a spec describes.

    `instance` replaces declared opaque atoms by parsed constant or
    polynomial expressions (numeric instantiations of generic fixtures).
    """
    chart = chart_from_spec(spec)
    options = options_from_spec(spec)
    use_box = box if box is not None else options["box"]
    use_seed = seed if seed is not None else options["seed"]
    sub = opaque_substitution(chart, spec.get("opaque"))
    if instance:
        for name, text in instance.items():
            sub[name] = sx.parse(text)
    theta = None
    factors = None
    if "factors" in spec:
        if not isinstance(spec["factors"], list):
            raise ParseError("factors must be a list of forms (lists of records)")
        for i, rec in enumerate(spec["factors"]):
            _check_records(rec, f"factors[{i}]")
        factors = [form_from_records(chart, rec, sub) for rec in spec["factors"]]
    if "theta" in spec:
        _check_records(spec["theta"], "theta")
        theta = form_from_records(chart, spec["theta"], sub)
    if theta is None and factors is None:
        raise ParseError("problem spec needs 'theta' or 'factors'")
    return vp.build_problem(
        chart, theta=theta, factors=factors, box=use_box, seed=use_seed
    )
