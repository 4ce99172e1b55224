"""Problem-spec JSON ingestion shared by the fixtures and the CLI.

A problem spec holds a chart block, either `theta` or `factors` (lists of
{coeff, index} records with expression-string coefficients), an optional
`opaque` block declaring generic coefficient atoms (bare names in the
coefficient strings are applied to the listed chart coordinates), an
optional `instances` block of named numeric instantiations of those atoms
(atom name -> expression string), and an `options` block (box, seed,
step, tolerance).  A field of the wrong shape raises a ParseError that
names it.
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
    "field_from_spec",
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


def section_from_spec(chart: BundleChart, spec: Mapping, sub=None) -> SectionMap:
    comps = spec["components"] if "components" in spec else spec
    sub = sub or {}
    return SectionMap(
        chart,
        {name: parse_coefficient(text, sub) for name, text in comps.items()},
    )


def field_from_spec(chart: Chart, spec: Mapping, sub=None) -> VecField:
    comps = spec["components"] if "components" in spec else spec
    sub = sub or {}
    out = [sx.ZERO] * chart.dim
    for name, text in comps.items():
        out[chart.index(name)] = parse_coefficient(text, sub)
    return VecField(chart, out)


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
