"""numpy is loaded by numeric work alone.

Each check runs in a fresh interpreter on this checkout's package, since
the test process itself has numpy loaded already.  The exact API and the
`el`, `liouville` and `verify` commands never import numpy, nor do
`analyze` and `frobenius` where every rank is proved, since Frobenius is
decided exactly; the sampled rank certificates of `analyze`, the sweeps
of `integrate` and the fixture checks of `example` do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import output_digest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "cartanvp" / "fixtures" / "data"

# prints, as its last line, a JSON object of `loaded` (step -> whether
# numpy was imported by then) and `codes` (CLI argv -> exit code)
PROBE = """
import json, sys
loaded, codes = {}, {}

def note(step):
    loaded[step] = "numpy" in sys.modules

def cli_run(argv):
    from cartanvp import cli
    codes[" ".join(argv)] = cli.run(argv)[0]
    note(" ".join(argv))

import cartanvp
note("import cartanvp")
"""


def _fresh(code: str, cwd: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE + code + "\nprint(json.dumps({'loaded': loaded, 'codes': codes}))"],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """A directory holding the inputs of tools/output_digest.py."""
    where = tmp_path_factory.mktemp("inputs")
    for name, payload in output_digest().INPUTS.items():
        (where / name).write_text(json.dumps(payload))
    return where


EXACT_API = """
from cartanvp import forms as fm, liouville as lv, specio, symexpr as sx, varprin as vp
note("import the exact modules")
x, y = sx.var("x"), sx.var("y")
e = sx.parse("(x + y)^2/(x - 3)")
assert sx.diff(e, "x") == sx.canon(sx.diff(e, "x"))
assert sx.is_zero(e).is_nonzero and sx.is_zero(sx.num(2)).is_nonzero
f = sx.compile_expr(e, ["x", "y"])
assert f([1.0, 2.0]) == f((1.0, 2.0)) and f([1, 2]) == f([1.0, 2.0])
P = fm.Chart(["x", "y"])
theta = fm.one_form(P, {"x": -y / 2, "y": x / 2})
assert fm.ext_d(theta) == fm.volume_form(P)
setup = lv.build_setup(P, fm.volume_form(P), fm.VecField(P, [-1 * y, x]))
problem = lv.build_theta(setup)
vp.characteristic_field_maximal_degree(problem)
spec = json.load(open(r"{example1}"))
system = vp.critical_equations(specio.problem_from_spec(spec))
assert system.deltas
note("forms, symexpr, liouville and varprin")
"""


def test_exact_work_never_imports_numpy(inputs):
    result = _fresh(EXACT_API.replace("{example1}", str(FIXTURES / "example1.json")), inputs)
    assert result["loaded"] and not any(result["loaded"].values()), result["loaded"]


def test_el_liouville_and_verify_never_import_numpy(inputs):
    argvs = [
        ["el", "--spec", str(FIXTURES / "example1.json")],
        ["el", "--spec", "swell-k3-intermediate-0.json"],
        ["el", "--spec", "quotients-k2.json"],
        ["el", "--spec", "rotation-theta.json"],
        ["verify", "--spec", "quotients-k2.json", "--section", "quotients-section.json"],
        ["liouville", "--spec", "rotation-liouville.json"],
        ["liouville", "--spec", "liouville-3d.json"],
        ["liouville", "--spec", "liouville-4d.json"],
    ]
    result = _fresh("".join(f"cli_run({argv!r})\n" for argv in argvs), inputs)
    assert len(result["loaded"]) == 1 + len(argvs)
    assert not any(result["loaded"].values()), result["loaded"]
    assert result["codes"] == {
        " ".join(argv): (1 if argv[0] == "verify" else 0) for argv in argvs
    }


def test_proved_ranks_never_import_numpy(inputs):
    # a maximal-degree polynomial spec: constant pivot minors, and one
    # annihilator field, so Frobenius has no pair to test; example1:
    # opaque factors, whose brackets leave the span exactly
    argvs = [[cmd, "--spec", "swell-k3-maximal-degree-0.json"] for cmd in ("analyze", "annihilator")]
    argvs += [[cmd, "--spec", str(FIXTURES / "example1.json")] for cmd in ("analyze", "frobenius")]
    result = _fresh("".join(f"cli_run({argv!r})\n" for argv in argvs), inputs)
    assert result["codes"] == {" ".join(argv): 1 if argv[0] == "frobenius" else 0 for argv in argvs}
    assert not any(result["loaded"].values()), result["loaded"]


@pytest.mark.parametrize(
    "argv",
    [
        # quotient coefficients: the ranks are sampled
        ["analyze", "--spec", "quotients-k2.json"],
        ["integrate", "--spec", str(FIXTURES / "example1.json"), "--instance", "constant",
         "--section", "test-seed-4.json", "--step", "0.01"],
        ["example", "example1"],
    ],
    ids=["analyze", "integrate", "example"],
)
def test_numeric_commands_import_numpy(inputs, argv):
    result = _fresh(f"note('before'); cli_run({argv!r})\n", inputs)
    assert result["codes"] == {" ".join(argv): 0}
    assert result["loaded"] == {"import cartanvp": False, "before": False, " ".join(argv): True}


def test_submodules_load_on_attribute_access(inputs):
    result = _fresh(
        """
note("before")
assert callable(cartanvp.flows.sweep_section)
note("cartanvp.flows")
ns = {}
exec("from cartanvp import *", ns)
assert all(ns[name] is getattr(cartanvp, name) for name in cartanvp.__all__)
try:
    cartanvp.nothing
except AttributeError:
    pass
else:
    raise AssertionError("cartanvp.nothing")
""",
        inputs,
    )
    assert result["loaded"] == {"import cartanvp": False, "before": False, "cartanvp.flows": True}
