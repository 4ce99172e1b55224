"""The three worked examples as data plus golden expected outputs.

Each fixture is a problem-spec JSON (the same format the CLI ingests)
extended with a `golden` block transcribed from the printed displays:
the wedge expansion of eta, the contraction forms, the critical-section
equations, the slope matrix, and the annihilator generators.  Coefficient
functions are opaque atoms (B11(x1, ...)), so comparisons match the
generic displays; numeric instantiations live under `instances`.

Where the printed source disagrees with the wedge expansion (dense sign
bookkeeping invites typos), the golden block stores the computed form and
a `printed_variants` record; `run_fixture` reports those side by side as
`discrepancy` items without failing the fixture.
"""

from __future__ import annotations

import importlib.resources
import json
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .. import ideals as ids
from .. import specio
from .. import symexpr as sx
from .. import varprin as vp
from ..forms import wedge_all, zero_form

__all__ = ["FIXTURE_NAMES", "load", "problem", "run_fixture", "FixtureReport", "FixtureItem"]

FIXTURE_NAMES = ("example1", "example2", "example3")


def load(name: str) -> dict:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    ref = importlib.resources.files(__package__) / "data" / f"{name}.json"
    return json.loads(ref.read_text())


def problem(
    name: str, instance: Optional[str] = None, box=None, seed: Optional[int] = None
) -> vp.VariationalProblem:
    """The fixture's variational problem; `instance` picks a numeric
    instantiation block by name (e.g. "constant")."""
    spec = load(name)
    inst = specio.instance_from_spec(spec, instance) if instance else None
    if instance and inst is None:
        raise KeyError(f"fixture {name} has no instance {instance!r}")
    return specio.problem_from_spec(spec, box=box, seed=seed, instance=inst)


@dataclass(frozen=True)
class FixtureItem:
    name: str
    status: str  # "pass" | "fail" | "discrepancy"
    detail: dict = field(default_factory=dict)


@dataclass
class FixtureReport:
    name: str
    items: list[FixtureItem]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(item.status != "fail" for item in self.items)

    def to_dict(self) -> dict:
        # wall time is deliberately absent: reports must be byte-identical
        # across runs with the same seed
        return {
            "fixture": self.name,
            "passed": self.passed,
            "items": [
                {"name": i.name, "status": i.status, **({"detail": i.detail} if i.detail else {})}
                for i in self.items
            ],
        }


def run_fixture(name: str, box=None, seed: Optional[int] = None) -> FixtureReport:
    """Recompute everything the printed example displays and compare:
    canonical equality for forms and scalar equations, span equality at
    the certification samples for distributions."""
    t0 = time.time()
    spec = load(name)
    golden = spec["golden"]
    use_seed = seed if seed is not None else specio.options_from_spec(spec)["seed"]
    p = specio.problem_from_spec(spec, box=box, seed=use_seed)
    chart = p.chart
    sub = specio.opaque_substitution(chart, spec.get("opaque"))
    items: list[FixtureItem] = []

    def check(item: str, ok: bool, detail: Optional[dict] = None):
        items.append(FixtureItem(item, "pass" if ok else "fail", detail or {}))

    cls = golden.get("classification", {})
    got = p.classification
    for key in cls:
        want = cls[key]
        have = {
            "degree_case": got.degree_case,
            "proper": got.proper,
            "q": got.q,
            "r": got.r,
            "h": got.h if got.h is not None else None,
        }.get(key)
        check(f"classification.{key}", have == want, {"want": want, "got": have})

    if "eta" in golden:
        want_eta = specio.form_from_records(chart, golden["eta"], sub)
        check("eta", p.eta == want_eta)

    if "psi" in golden:
        for a, records in enumerate(golden["psi"], start=1):
            want = specio.form_from_records(chart, records, sub)
            check(f"psi{a}", p.psi[a - 1] == want)

    if "psi_as_chi" in golden:
        alphas = list(p.factors.alphas)
        for rel in golden["psi_as_chi"]:
            omit = rel["omit"]
            rest = [alphas[i] for i in range(len(alphas)) if i != omit - 1]
            want = wedge_all(rest) * sx.num(rel["sign"])
            check(f"psi{omit}_as_chi", p.psi[omit - 1] == want)

    if "psi4_combination" in golden:
        coeffs = [specio.parse_coefficient(c, sub) for c in golden["psi4_combination"]]
        rhs = zero_form(chart, p.psi[0].degree)
        for c, psi in zip(coeffs, p.psi[: len(coeffs)]):
            rhs = rhs + psi * c
        check("psi4_combination", p.psi[len(coeffs)] == rhs)

    system = vp.critical_equations(p)
    if "deltas" in golden:
        for a, text in enumerate(golden["deltas"], start=1):
            want = specio.parse_coefficient(text, sub)
            check(
                f"delta{a}",
                (system.deltas[a - 1] - want).is_const_zero(),
                {"got": str(system.deltas[a - 1])},
            )
    check("minor_vs_pullback_ratio", system.ratio == 1, {"ratio": str(system.ratio)})

    if "P" in golden:
        ok = True
        for i, row in enumerate(golden["P"]):
            for j, text in enumerate(row):
                want = specio.parse_coefficient(text, sub)
                if not (system.P[i][j] - want).is_const_zero():
                    ok = False
        check("P", ok)

    if "annihilator" in golden:
        want_fields = [specio.field_from_spec(chart, rec, sub) for rec in golden["annihilator"]]
        same = len(want_fields) == len(p.annihilator.basis) and ids.span_equal(
            want_fields, list(p.annihilator.basis), box=box, seed=use_seed
        )
        check("annihilator_span", same, {"rank": p.annihilator.rank})

    if "vertical_witness" in golden:
        witness = specio.field_from_spec(chart, golden["vertical_witness"], sub)
        ok = witness.is_vertical() and p.vertical_annihilator.rank == 1 and ids.span_equal(
            [witness], list(p.vertical_annihilator.basis), box=box, seed=use_seed
        )
        check("vertical_witness", ok)

    if name == "example3":
        items.append(_f_elimination_item(p, system, use_seed))

    for item in _printed_variant_items(name, spec, p, system, sub, chart):
        items.append(item)

    return FixtureReport(name, items, time.time() - t0)


def _printed_variant_items(name, spec, p, system, sub, chart):
    printed = spec["golden"].get("printed_variants")
    if not printed:
        return
    if "deltas" in printed:
        for a, text in enumerate(printed["deltas"], start=1):
            want = specio.parse_coefficient(text, sub)
            agree = (system.deltas[a - 1] - want).is_const_zero()
            yield FixtureItem(
                f"printed_delta{a}",
                "pass" if agree else "discrepancy",
                {} if agree else {
                    "printed": text,
                    "computed": str(system.deltas[a - 1]),
                    "note": printed.get("note", ""),
                },
            )
    for rec in printed.get("eta_terms", ()):
        idx = tuple(sorted(chart.index(n) for n in rec["index"]))
        computed = p.eta.terms.get(idx, sx.ZERO)
        want = specio.parse_coefficient(rec["printed"], sub)
        agree = (computed - want).is_const_zero()
        yield FixtureItem(
            "printed_eta_" + "_".join(rec["index"]),
            "pass" if agree else "discrepancy",
            {} if agree else {"printed": rec["printed"], "computed": str(computed), "note": rec.get("note", "")},
        )
    for rec in printed.get("psi_terms", ()):
        a = rec["psi"]
        idx = tuple(sorted(chart.index(n) for n in rec["index"]))
        computed = p.psi[a - 1].terms.get(idx, sx.ZERO)
        want = specio.parse_coefficient(rec["printed"], sub)
        agree = (computed - want).is_const_zero()
        yield FixtureItem(
            f"printed_psi{a}_" + "_".join(rec["index"]),
            "pass" if agree else "discrepancy",
            {} if agree else {"printed": rec["printed"], "computed": str(computed), "note": rec.get("note", "")},
        )


def _f_elimination_item(p, system, seed) -> FixtureItem:
    """Tangency-vs-equations equivalence at sample points: slope matrices
    with a kernel direction must kill every equation (residual below 1e-9),
    generic slope matrices must violate one."""
    import numpy as np

    chart = p.chart
    rng = random.Random(seed ^ 0x5EED)
    atoms = {}
    for e in system.deltas:
        atoms.update(sx.opaque_atoms(e))
    slot = {key[1]: i for i, key in enumerate(atoms)}  # name -> position
    worst_solvable = 0.0
    min_generic = float("inf")
    fs = p.factors
    wname = chart.fiber_w[0]
    nbase = len(chart.base)
    jets = [vp.jet_name(chart.fiber_z[a], b) for a in range(3) for b in chart.base]
    jets += [vp.jet_name(wname, b) for b in chart.base]
    deltas = [sx.compile_expr(d, list(chart.coords) + jets + list(atoms)) for d in system.deltas]
    for _ in range(20):
        coord_vals = [rng.uniform(-1, 1) for _ in chart.coords]
        atom_vals = [rng.uniform(-1, 1) for _ in atoms]
        bval = {(a, j): atom_vals[slot[f"B{a + 1}{j + 1}"]] for a in range(3) for j in range(2)}
        cval = [atom_vals[slot[f"C{a + 1}"]] for a in range(3)]
        dw = [rng.uniform(-1, 1) for _ in range(2)]
        fvec = np.array([rng.uniform(0.2, 1.0), rng.uniform(-1.0, -0.2)])
        vperp = np.array([-fvec[1], fvec[0]])
        u = np.array([rng.uniform(0.2, 1.0) for _ in range(3)])
        K_solvable = np.outer(u, vperp)
        K_generic = np.array([[rng.uniform(0.5, 1.0) * (1 if (i + j) % 2 else -1) + i + 0.1 * j for j in range(2)] for i in range(3)])
        for K, solvable in ((K_solvable, True), (K_generic, False)):
            values = coord_vals + [
                float(K[a, j] - bval[(a, j)] - cval[a] * dw[j]) for a in range(3) for j in range(nbase)
            ]
            values += [dw[j] for j in range(nbase)] + atom_vals
            vals = [abs(f(values)) for f in deltas]
            if solvable:
                worst_solvable = max(worst_solvable, max(vals))
            else:
                svals = np.linalg.svd(K, compute_uv=False)
                if svals[-1] > 1e-6:
                    min_generic = min(min_generic, max(vals))
    ok = worst_solvable < 1e-9 and min_generic > 1e-9
    return FixtureItem(
        "f_elimination_equivalence",
        "pass" if ok else "fail",
        {
            "max_residual_with_tangent_frame": worst_solvable,
            "min_violation_generic": min_generic if min_generic != float("inf") else None,
        },
    )
