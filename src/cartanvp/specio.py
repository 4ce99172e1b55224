"""Problem-spec JSON ingestion shared by the fixtures and the CLI.

A problem spec holds a chart block, either `theta` or `factors` (lists of
{coeff, index} records with expression-string coefficients), an optional
`opaque` block declaring generic coefficient atoms (bare names in the
coefficient strings are applied to the listed chart coordinates), and an
`options` block (box, seed, step, tolerance).
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
    "parse_coefficient",
    "form_from_records",
    "section_from_spec",
    "field_from_spec",
    "problem_from_spec",
    "options_from_spec",
]


def chart_from_spec(spec: Mapping) -> BundleChart:
    try:
        chart = spec["chart"]
        return BundleChart(
            tuple(chart["base"]),
            tuple(chart["fiber_z"]),
            tuple(chart.get("fiber_w", ())),
        )
    except KeyError as exc:
        raise ParseError(f"problem spec missing chart key {exc}") from exc


def opaque_substitution(chart: Chart, opaque: Optional[Mapping]) -> dict[str, Expr]:
    """Bare atom names -> applied atoms over the declared coordinates
    ("all" applies the full chart)."""
    sub: dict[str, Expr] = {}
    for name, args in (opaque or {}).items():
        coords = chart.coords if args == "all" else tuple(args)
        sub[name] = sx.func(name, *[sx.var(c) for c in coords])
    return sub


def parse_coefficient(text: str, sub: Mapping[str, Expr]) -> Expr:
    e = sx.parse(text)
    return sx.subst(e, sub) if sub else sx.canon(e)


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


def options_from_spec(spec: Mapping) -> dict:
    options = dict(spec.get("options", {}))
    box = options.get("box")
    if isinstance(box, (list, tuple)):
        box = (float(box[0]), float(box[1]))
    elif isinstance(box, Mapping):
        box = {k: (float(v[0]), float(v[1])) for k, v in box.items()}
    return {
        "box": box,
        "seed": int(options.get("seed", DEFAULT_SEED)),
        "step": float(options.get("step", 1e-3)),
        "tolerance": float(options.get("tolerance", 1e-6)),
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
            sub[name] = sx.canon(sx.parse(text))
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
