"""Print one `sha256  command` line per entry of a fixed list of CLI runs
and demos, each run from the checkout this script lives in.

    python3 tools/output_digest.py > digest.txt

Two checkouts print the same lines exactly when every listed run gave
byte-identical standard output and the same exit code, so comparing the
output of a change with its parent is one `diff` between two runs (for
example one of them inside a `git worktree` of the parent).  The list:
`example` on the stored examples; `analyze`, `el`, `annihilator` and
`frobenius` on the three fixture specs, generic and with each numeric
instance; `integrate --format csv` on the inputs of demo 04 and of
tests/test_cli.py; `liouville` on the rotation spec; demos 01-05.
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
        ["cartanvp", "liouville", "--spec", "rotation-liouville.json"],
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
