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
on a pole, in the first and in the second axis); `analyze` and `el` on a
k = 2 spec whose factors carry quotients over distinct denominators;
`liouville` on the rotation spec; `el` on a k = 3
intermediate and a k = 4 maximally characteristic polynomial spec (the
pullback route at scale); demos 01-05.
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

# name -> JSON written to the temporary directory before the runs
INPUTS = {
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
    nonpoly = ["cartanvp", "integrate", "--spec", "nonpoly-k2.json", "--tol", "0.01", "--format", "csv"]
    runs += [
        nonpoly + ["--section", "nonpoly-seed.json", "--step", "0.01"],
        nonpoly + ["--section", "nonpoly-seed-pole-x1.json", "--step", "0.125"],
        nonpoly + ["--section", "nonpoly-seed-pole-x2.json", "--step", "0.125"],
        ["cartanvp", "analyze", "--spec", "quotients-k2.json"],
        ["cartanvp", "el", "--spec", "quotients-k2.json"],
        ["cartanvp", "liouville", "--spec", "rotation-liouville.json"],
        ["cartanvp", "el", "--spec", "swell-k3-intermediate-0.json"],
        ["cartanvp", "el", "--spec", "swell-k4-maximally-characteristic-0.json"],
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
