"""Print one `sha256  command` line per entry of a fixed list of CLI runs
and demos, each run from the checkout this script lives in.

    python3 tools/output_digest.py > digest.txt

Two checkouts print the same lines exactly when every listed run gave
byte-identical standard output and the same exit code, so comparing the
output of a change with its parent is one `diff` between two runs (for
example one of them in a `git archive` copy of the parent).  The list:
`example` on the stored examples; `analyze`, `el`, `annihilator` and
`frobenius` on the three fixture specs, generic and with each numeric
instance; `integrate --format csv` on the inputs of demo 04 and of
tests/test_cli.py, and on a k = 2 spec whose characteristic fields have
quotient, power, sum and exp components (one sweep, and two that fail
on a pole, in the first and in the second axis); `analyze`, `el` and
`verify` (of a polynomial-and-quotient section) on a k = 2 spec whose
factors carry quotients over distinct denominators;
`analyze`, `annihilator`, `frobenius` and `el` on the rotation action
form (the route through the contraction matrix of a given theta), and
`verify` on it of a flow line and of its mirror image (the
maximal-degree cross-check);
`liouville` on the rotation spec, on a divergence-free field on three
coordinates (odd phase dimension, so the orientation sign is 1) and on
one on four coordinates; `el` on a k = 3
intermediate and a k = 4 maximally characteristic polynomial spec (the
pullback route at scale); `analyze` on a k = 6 intermediate opaque spec
(Frobenius at scale); `el` on a spec with both theta and factors that
normalizing rescales; three inputs of the wrong shape, each exit 2 with a
ParseError naming its field: `verify` of a section with a non-string
component, `integrate` with a grid that is not a record, and `liouville`
with a phase that is not a list of names; two section files with an entry
the chart does not have (a `verify` component z4, an `integrate` grid
axis x9), each exit 2; `analyze` and `annihilator` on a k = 3 maximal
degree polynomial spec, whose ranks are proved, and on a spec whose
normalized factors carry 1/x1, whose ranks are sampled; `analyze` and
`el` on a spec whose dz1 pivot is 10^-12*x1 (below 1e-9 at every sample,
nonzero exactly), `analyze` on the same spec with the pivot a multiple
of sin^2 + cos^2 (no sample certifies it: exit 1 with the entry named),
and `frobenius` on a spec whose bracket residual is x2*(sin^2 + cos^2 -
1) (verdict unknown); demos 01-05.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "cartanvp" / "fixtures" / "data"


def _small_pivot(c: str) -> dict:
    return {
        "chart": {"base": ["x1", "x2"], "fiber_z": ["z1", "z2", "z3"], "fiber_w": []},
        "factors": [
            [{"coeff": c, "index": ["z1"]}, {"coeff": "1", "index": ["x1"]}],
            [{"coeff": "1", "index": ["z2"]}, {"coeff": "z1", "index": ["x2"]}],
            [{"coeff": "1", "index": ["z3"]}, {"coeff": "x2", "index": ["x1"]}],
        ],
    }


# name -> JSON written to the temporary directory before the runs
INPUTS = {
    # theta with factors that normalizing rescales (pivot 2): d(theta) is
    # the wedge of the factors as given
    "theta-factors.json": {
        "chart": {"base": ["x"], "fiber_z": ["z1", "z2"], "fiber_w": []},
        "theta": [{"coeff": "2*z1 + x", "index": ["z2"]}],
        "factors": [
            [{"coeff": "2", "index": ["z1"]}, {"coeff": "1", "index": ["x"]}],
            [{"coeff": "1", "index": ["z2"]}],
        ],
    },
    "rotation-theta.json": {
        "chart": {"base": ["t"], "fiber_z": ["x", "y"], "fiber_w": []},
        "theta": [
            {"coeff": "-1/2*y", "index": ["x"]},
            {"coeff": "1/2*x", "index": ["y"]},
            {"coeff": "-1/2*x^2 - 1/2*y^2", "index": ["t"]},
        ],
        "options": {"seed": 50343},
    },
    "rotation-liouville.json": {
        "phase": ["x", "y"],
        "omega": [{"coeff": "1", "index": ["x", "y"]}],
        "field": {"x": "-y", "y": "x"},
    },
    # a divergence-free field on three coordinates: an odd phase dimension
    # gives the orientation sign s = 1
    "liouville-3d.json": {
        "phase": ["x", "y", "z"],
        "omega": [{"coeff": "1", "index": ["x", "y", "z"]}],
        "field": {"x": "x*y + z^2", "y": "-1/2*y^2 + z", "z": "x^2 + y"},
    },
    # a divergence-free field on four coordinates: the homotopy runs on
    # 3-forms with monomials of degree 1-3, and the lift to the extended
    # chart shifts every index
    "liouville-4d.json": {
        "phase": ["x1", "y1", "x2", "y2"],
        "omega": [{"coeff": "1", "index": ["x1", "y1", "x2", "y2"]}],
        "field": {"x1": "x1^2 + y1^3", "y1": "-2*x1*y1 - x2", "x2": "2*x2*y2", "y2": "-y2^2 - x1"},
    },
    "demo04-seed.json": {
        "components": {"z1": "0", "z2": "0", "z3": "0"},
        "grid": {"x1": [0.0, 1.0, 21], "x2": [0.0, 1.0, 21]},
    },
    "demo04-seed-reversed.json": {
        "components": {"z1": "0", "z2": "0", "z3": "0"},
        "grid": {"x1": [0.0, 1.0, 21], "x2": [0.0, 1.0, 21]},
        "axis_order": ["x2", "x1"],
    },
    "test-seed-6.json": {
        "components": {"z1": "0", "z2": "0", "z3": "0"},
        "grid": {"x1": [0.0, 1.0, 6], "x2": [0.0, 1.0, 6]},
    },
    "test-seed-4.json": {
        "components": {"z1": "0", "z2": "0", "z3": "0"},
        "grid": {"x1": [0.0, 1.0, 4], "x2": [0.0, 1.0, 4]},
    },
    "helix-seed.json": {"components": {"x": "1", "y": "0"}, "grid": {"t": [0.0, 6.0, 61]}},
    # candidate sections of rotation-theta.json for `verify` on the
    # maximal-degree route: a flow line, and its mirror image, which is not
    "rotation-section.json": {"components": {"x": "cos(t)", "y": "sin(t)"}},
    "rotation-section-mirrored.json": {"components": {"x": "cos(t)", "y": "-sin(t)"}},
    # closed factors dz_a + P_a(x1) dx1 + Q_a(x2) dx2 with non-polynomial
    # coefficients: the swept fields carry components that are not products
    "nonpoly-k2.json": {
        "chart": {"base": ["x1", "x2"], "fiber_z": ["z1", "z2", "z3"], "fiber_w": []},
        "factors": [
            [{"coeff": "1", "index": ["z1"]}, {"coeff": "x1^2 + 1/2", "index": ["x1"]},
             {"coeff": "sin(x2)", "index": ["x2"]}],
            [{"coeff": "1", "index": ["z2"]}, {"coeff": "1/(x1 - 2)", "index": ["x1"]},
             {"coeff": "x2^-2", "index": ["x2"]}],
            [{"coeff": "1", "index": ["z3"]}, {"coeff": "exp(x1)", "index": ["x1"]},
             {"coeff": "-1/3", "index": ["x2"]}],
        ],
        "opaque": {},
        "options": {"seed": 4242},
    },
    # quotients over distinct denominators: the canonical quotient of a sum
    # depends on the order its terms are added in
    "quotients-k2.json": {
        "chart": {"base": ["x1", "x2"], "fiber_z": ["z1", "z2", "z3"], "fiber_w": []},
        "factors": [
            [{"coeff": "1", "index": ["z1"]}, {"coeff": "1/(x1 - 2)", "index": ["x1"]},
             {"coeff": "x1/(x2 + 3)", "index": ["x2"]}],
            [{"coeff": "1", "index": ["z2"]}, {"coeff": "z1/(x2 - 3)", "index": ["x1"]},
             {"coeff": "1/(x1 + x2 + 5)", "index": ["x2"]}],
            [{"coeff": "1", "index": ["z3"]}, {"coeff": "z2/(x1 + 4)", "index": ["x1"]},
             {"coeff": "(x1 - 1)/(x2 - 4)", "index": ["x2"]}],
        ],
        "opaque": {},
        "options": {"seed": 777},
    },
    # a candidate section of quotients-k2.json: its residuals are pulled
    # back through quotient coefficients, so they print what the fold of
    # each index's sum gives
    "quotients-section.json": {"components": {"z1": "x1*x2 + 1", "z2": "x1 - x2", "z3": "x2^2/(x1 + 7)"}},
    # inputs of the wrong shape: a non-string section component, a grid
    # that is not a record, a phase that is not a list of names
    "section-component-0.json": {"components": {"z1": 0, "z2": "0", "z3": "0"}},
    "section-grid-5.json": {"components": {"z1": "0", "z2": "0", "z3": "0"}, "grid": 5},
    "liouville-phase-5.json": {
        "phase": 5,
        "omega": [{"coeff": "1", "index": ["x", "y"]}],
        "field": {"x": "-y", "y": "x"},
    },
    "nonpoly-seed.json": {
        "components": {"z1": "1/5", "z2": "0", "z3": "-1"},
        "grid": {"x1": [0.0, 0.5, 6], "x2": [0.5, 1.0, 5]},
    },
    # the x1 field has a pole at x1 = 2, the x2 field one at x2 = 0
    "nonpoly-seed-pole-x1.json": {
        "components": {"z1": "1/5", "z2": "0", "z3": "-1"},
        "grid": {"x1": [1.5, 2.5, 5], "x2": [0.5, 1.0, 3]},
    },
    "nonpoly-seed-pole-x2.json": {
        "components": {"z1": "1/5", "z2": "0", "z3": "-1"},
        "grid": {"x1": [0.0, 0.5, 3], "x2": [-0.25, 0.25, 3]},
    },
    # polynomial factor specs as generated by perfbench/gen_analyze.py,
    # factor_spec(random.Random("swell/<k>/<case>/0"), k, case, "poly")["spec"]
    "swell-k3-intermediate-0.json": {
        "chart": {"base": ["x1", "x2", "x3"], "fiber_z": ["z1", "z2", "z3"], "fiber_w": []},
        "factors": [
            [
                {"coeff": "1", "index": ["z3"]},
                {"coeff": "(-3/2)*x2 + (1)*x1*x3", "index": ["x1"]},
                {"coeff": "(1)*x2 + (-4/3)*x2*x3", "index": ["x2"]},
                {"coeff": "(1/2)*x1 + (-3)*x1*x2", "index": ["x3"]},
            ],
            [
                {"coeff": "1", "index": ["z2"]},
                {"coeff": "(2/3)*z1 + (-3/2)*x3^2", "index": ["x1"]},
                {"coeff": "(3)*z2 + (2/3)*x3*z2", "index": ["x2"]},
                {"coeff": "(4/3)*x2 + (-4)*x2*x3", "index": ["x3"]},
            ],
            [
                {"coeff": "1", "index": ["x3"]},
                {"coeff": "(4/3)*x3 + (-4)*x3*z2", "index": ["x1"]},
                {"coeff": "(3/2)*x3 + (-2/3)*x3*z3", "index": ["x2"]},
            ],
            [
                {"coeff": "1", "index": ["z1"]},
                {"coeff": "(-3)*z3 + (3)*x1*z3", "index": ["x1"]},
                {"coeff": "(1)*x2 + (-2)*x1*z2", "index": ["x2"]},
                {"coeff": "(-1)*z3 + (-1)*z1*z3", "index": ["x3"]},
            ],
        ],
        "opaque": {},
        "options": {"seed": 17261},
    },
    "swell-k4-maximally-characteristic-0.json": {
        "chart": {"base": ["x1", "x2", "x3", "x4"], "fiber_z": ["z1", "z2", "z3", "z4", "z5"], "fiber_w": []},
        "factors": [
            [
                {"coeff": "1", "index": ["z2"]},
                {"coeff": "(1)*z2 + (-2)*z1*z5", "index": ["x1"]},
                {"coeff": "(1)*z1*z3 + (-1)*x3", "index": ["x2"]},
                {"coeff": "(4)*x4 + (1)*x1*x3", "index": ["x3"]},
                {"coeff": "(4/3)*z2 + (3/2)*x1*z3", "index": ["x4"]},
            ],
            [
                {"coeff": "1", "index": ["z1"]},
                {"coeff": "(-1)*x4*z2 + (-2)*x1", "index": ["x1"]},
                {"coeff": "(-2/3)*z1 + (3/2)*z1*z5", "index": ["x2"]},
                {"coeff": "(2)*z1 + (1/2)*x1^2", "index": ["x3"]},
                {"coeff": "(1)*z4 + (4)*x2*x4", "index": ["x4"]},
            ],
            [
                {"coeff": "1", "index": ["z4"]},
                {"coeff": "(-4)*z4 + (1)*x3*z3", "index": ["x1"]},
                {"coeff": "(-4)*x2*x3 + (4)*x1", "index": ["x2"]},
                {"coeff": "(3)*z1*z4 + (2)*x2", "index": ["x3"]},
                {"coeff": "(-1)*x4 + (4)*x2*z5", "index": ["x4"]},
            ],
            [
                {"coeff": "1", "index": ["z5"]},
                {"coeff": "(-2)*z5 + (-3/2)*z4*z5", "index": ["x1"]},
                {"coeff": "(-3)*z5 + (1)*x2*x3", "index": ["x2"]},
                {"coeff": "(1)*z2*z3 + (-1)*x2", "index": ["x3"]},
                {"coeff": "(-3)*z3 + (3/2)*x3*z2", "index": ["x4"]},
            ],
            [
                {"coeff": "1", "index": ["z3"]},
                {"coeff": "(-4/3)*z2 + (-3)*x1*x2", "index": ["x1"]},
                {"coeff": "(1)*z5 + (-2)*z1*z5", "index": ["x2"]},
                {"coeff": "(1)*x4*z4 + (-2)*x2", "index": ["x3"]},
                {"coeff": "(1/3)*z1 + (-4/3)*x4*z4", "index": ["x4"]},
            ],
        ],
        "opaque": {},
        "options": {"seed": 13895},
    },
    # factor_spec(random.Random("swell/3/maximal_degree/0"), 3,
    # "maximal_degree", "poly")["spec"]: polynomial entries and constant
    # pivot minors, so its ranks are proved exactly
    "swell-k3-maximal-degree-0.json": {
        "chart": {"base": ["x1", "x2", "x3"], "fiber_z": ["z1", "z2"], "fiber_w": []},
        "factors": [
            [{"coeff": "1", "index": ["x2"]}, {"coeff": "(1/2)*x2 + (-4/3)*x1*x3", "index": ["x1"]}],
            [
                {"coeff": "1", "index": ["z1"]},
                {"coeff": "(-2)*x1 + (-1/3)*x1*x2", "index": ["x1"]},
                {"coeff": "(-2)*z2 + (-1)*z1*z2", "index": ["x2"]},
                {"coeff": "(-4)*x3*z2 + (-2)*x2", "index": ["x3"]},
            ],
            [{"coeff": "1", "index": ["x3"]}, {"coeff": "(-4/3)*z2 + (-1/2)*x3^2", "index": ["x1"]}],
            [
                {"coeff": "1", "index": ["z2"]},
                {"coeff": "(1)*x3 + (-4/3)*x3*z2", "index": ["x1"]},
                {"coeff": "(1/2)*z1 + (-3)*x3*z2", "index": ["x2"]},
                {"coeff": "(2)*z1 + (-2)*z1*z2", "index": ["x3"]},
            ],
        ],
        "opaque": {},
        "options": {"seed": 47849},
    },
    # the factors [x1*dz1 + dx1, dz2 + dx2, dz3]: normalizing divides by
    # x1, so the ranks are sampled, and the sample at the box center fails
    "singular-k2.json": {
        "chart": {"base": ["x1", "x2"], "fiber_z": ["z1", "z2", "z3"], "fiber_w": []},
        "factors": [
            [{"coeff": "x1", "index": ["z1"]}, {"coeff": "1", "index": ["x1"]}],
            [{"coeff": "1", "index": ["z2"]}, {"coeff": "1", "index": ["x2"]}],
            [{"coeff": "1", "index": ["z3"]}],
        ],
    },
    # section entries the chart does not have: a component z4 and a grid
    # axis x9 (example1 has fiber z1-z3 and base x1, x2)
    "section-component-z4.json": {"components": {"z1": "0", "z2": "0", "z3": "0", "z4": "x1"}},
    "section-grid-x9.json": {
        "components": {"z1": "0", "z2": "0", "z3": "0"},
        "grid": {"x1": [0.0, 1.0, 2], "x2": [0.0, 1.0, 2], "x9": [0.0, 1.0, 50]},
    },
    # factor_spec(random.Random("k6probe/intermediate/opaque/0"), 6,
    # "intermediate", "opaque")["spec"]: Frobenius on rank-3 brackets of
    # opaque atoms over nine coordinates
    # [c*dz1 + dx1, dz2 + z1*dx2, dz3 + x2*dx1]: with c = x1 it exits 0;
    # with c = 10^-12*x1 every sample of c is below 1e-9, and with c a
    # multiple of sin^2 + cos^2 no sample certifies the dz1 pivot
    "small-pivot-k2.json": _small_pivot("1/1000000000000*x1"),
    "pythagorean-pivot-k2.json": _small_pivot("1/1000000000000*sin(x1)^2 + 1/1000000000000*cos(x1)^2"),
    # [dz1 + x2*(sin(x1)^2 + cos(x1)^2 - 1)*dx1, dz2, dz3]: the bracket of
    # the two annihilator fields leaves their span only canonically
    "pythagorean-bracket-k2.json": {
        "chart": {"base": ["x1", "x2"], "fiber_z": ["z1", "z2", "z3"], "fiber_w": []},
        "factors": [
            [{"coeff": "1", "index": ["z1"]}, {"coeff": "x2*(sin(x1)^2 + cos(x1)^2 - 1)", "index": ["x1"]}],
            [{"coeff": "1", "index": ["z2"]}],
            [{"coeff": "1", "index": ["z3"]}],
        ],
    },
    "k6probe-intermediate-opaque-0.json": {
        "chart": {"base": ["x1", "x2", "x3", "x4", "x5", "x6"], "fiber_z": ["z1", "z2", "z3"], "fiber_w": []},
        "factors": [
            [{"coeff": "1", "index": ["z1"]}] + [{"coeff": f"B1{m}", "index": [f"x{m}"]} for m in range(1, 7)],
            [{"coeff": "1", "index": ["x3"]}, {"coeff": "C25", "index": ["x5"]}, {"coeff": "C26", "index": ["x6"]}],
            [{"coeff": "1", "index": ["x4"]}, {"coeff": "C35", "index": ["x5"]}, {"coeff": "C36", "index": ["x6"]}],
            [{"coeff": "1", "index": ["x1"]}, {"coeff": "C45", "index": ["x5"]}, {"coeff": "C46", "index": ["x6"]}],
            [{"coeff": "1", "index": ["x2"]}, {"coeff": "C15", "index": ["x5"]}, {"coeff": "C16", "index": ["x6"]}],
            [{"coeff": "1", "index": ["z3"]}] + [{"coeff": f"B3{m}", "index": [f"x{m}"]} for m in range(1, 7)],
            [{"coeff": "1", "index": ["z2"]}] + [{"coeff": f"B2{m}", "index": [f"x{m}"]} for m in range(1, 7)],
        ],
        "opaque": {f"{c}{i}{m}": "all" for c, rows, cols in (("B", "123", "123456"), ("C", "1234", "56"))
                   for i in rows for m in cols},
        "options": {"seed": 64107},
    },
}


def entries() -> list[list[str]]:
    """The fixed list; file arguments are names relative to the fixture
    directory or the temporary input directory."""
    runs = [["cartanvp", "example", name] for name in ("example1", "example2", "example3")]
    for name in ("example1", "example2", "example3"):
        spec = json.loads((FIXTURES / f"{name}.json").read_text())
        for inst in [None, *spec.get("instances", {})]:
            for cmd in ("analyze", "el", "annihilator", "frobenius"):
                run = ["cartanvp", cmd, "--spec", f"{name}.json"]
                runs.append(run + (["--instance", inst] if inst else []))
    ex1 = ["cartanvp", "integrate", "--spec", "example1.json", "--instance", "constant"]
    runs += [
        ex1 + ["--section", "demo04-seed.json", "--step", "0.001", "--format", "csv"],
        ex1 + ["--section", "demo04-seed-reversed.json", "--step", "0.001", "--format", "csv"],
        ex1 + ["--section", "test-seed-6.json", "--step", "0.001", "--format", "csv"],
        ex1 + ["--section", "test-seed-4.json", "--step", "0.01", "--format", "csv"],
        ["cartanvp", "integrate", "--spec", "rotation-theta.json", "--section", "helix-seed.json",
         "--tol", "0.01", "--format", "csv"],
    ]
    runs += [["cartanvp", cmd, "--spec", "rotation-theta.json"] for cmd in ("analyze", "annihilator", "frobenius", "el")]
    runs += [
        ["cartanvp", "verify", "--spec", "rotation-theta.json", "--section", section]
        for section in ("rotation-section.json", "rotation-section-mirrored.json")
    ]
    nonpoly = ["cartanvp", "integrate", "--spec", "nonpoly-k2.json", "--tol", "0.01", "--format", "csv"]
    runs += [
        nonpoly + ["--section", "nonpoly-seed.json", "--step", "0.01"],
        nonpoly + ["--section", "nonpoly-seed-pole-x1.json", "--step", "0.125"],
        nonpoly + ["--section", "nonpoly-seed-pole-x2.json", "--step", "0.125"],
        ["cartanvp", "analyze", "--spec", "quotients-k2.json"],
        ["cartanvp", "el", "--spec", "quotients-k2.json"],
        ["cartanvp", "verify", "--spec", "quotients-k2.json", "--section", "quotients-section.json"],
        ["cartanvp", "liouville", "--spec", "rotation-liouville.json"],
        ["cartanvp", "liouville", "--spec", "liouville-3d.json"],
        ["cartanvp", "liouville", "--spec", "liouville-4d.json"],
        ["cartanvp", "el", "--spec", "swell-k3-intermediate-0.json"],
        ["cartanvp", "el", "--spec", "swell-k4-maximally-characteristic-0.json"],
        ["cartanvp", "analyze", "--spec", "k6probe-intermediate-opaque-0.json"],
        ["cartanvp", "el", "--spec", "theta-factors.json"],
        ["cartanvp", "verify", "--spec", "example1.json", "--instance", "constant",
         "--section", "section-component-0.json"],
        ex1 + ["--section", "section-grid-5.json"],
        ["cartanvp", "liouville", "--spec", "liouville-phase-5.json"],
        ["cartanvp", "verify", "--spec", "example1.json", "--instance", "constant",
         "--section", "section-component-z4.json"],
        ex1 + ["--section", "section-grid-x9.json"],
    ]
    runs += [
        ["cartanvp", cmd, "--spec", spec]
        for spec in ("swell-k3-maximal-degree-0.json", "singular-k2.json")
        for cmd in ("analyze", "annihilator")
    ]
    runs += [
        ["cartanvp", "analyze", "--spec", "small-pivot-k2.json"],
        ["cartanvp", "el", "--spec", "small-pivot-k2.json"],
        ["cartanvp", "analyze", "--spec", "pythagorean-pivot-k2.json"],
        ["cartanvp", "frobenius", "--spec", "pythagorean-bracket-k2.json"],
    ]
    runs += [["python", f"demos/{p.name}"] for p in sorted((ROOT / "demos").glob("0[1-5]_*.py"))]
    return runs


def _argv(entry: list[str], tmp: Path) -> list[str]:
    def path(arg: str) -> str:
        for where in (tmp, FIXTURES):
            if (where / arg).is_file():
                return str(where / arg)
        return arg

    if entry[0] == "python":
        return [sys.executable, str(ROOT / entry[1])]
    return [sys.executable, "-m", "cartanvp.cli"] + [path(a) for a in entry[1:]]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for fname, payload in INPUTS.items():
            (tmp / fname).write_text(json.dumps(payload))
        for entry in entries():
            proc = subprocess.run(_argv(entry, tmp), cwd=tmp, env=env, capture_output=True)
            digest = hashlib.sha256(proc.stdout + f"\nexit {proc.returncode}".encode())
            print(f"{digest.hexdigest()}  {' '.join(entry)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
