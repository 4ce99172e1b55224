import json
import os
import sys
import time

import pytest

from cartanvp import cli
from cartanvp import forms as fm
from cartanvp import flows
from cartanvp import fixtures as fx
from cartanvp import ideals as ids
from cartanvp import specio
from cartanvp import symexpr as sx
from cartanvp import varprin as vp
from conftest import ROTATION_THETA


@pytest.fixture
def example1_spec(tmp_path):
    spec = fx.load("example1")
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(spec))
    return str(path)


def run(argv):
    return cli.run(argv)


class TestAnalyze:
    def test_json_report(self, example1_spec):
        code, out = run(["analyze", "--spec", example1_spec])
        assert code == 0
        report = json.loads(out)
        assert report["classification"]["degree_case"] == "maximally_characteristic"
        assert report["classification"]["proper"] == "proper"
        assert report["classification"]["q"] == 2
        assert len(report["annihilator_basis"]) == 2
        assert report["frobenius"]["verdict"] == "not_integrable"
        assert report["seed"] == 50343

    def test_text_mirrors_json(self, example1_spec):
        code, out = run(["analyze", "--spec", example1_spec, "--format", "text"])
        assert code == 0
        assert "maximally_characteristic" in out
        assert "annihilator basis:" in out

    def test_byte_identical_reruns(self, example1_spec):
        _, out1 = run(["analyze", "--spec", example1_spec])
        _, out2 = run(["analyze", "--spec", example1_spec])
        assert out1.encode() == out2.encode()

    def test_seed_flag_echoed(self, example1_spec):
        _, out = run(["analyze", "--spec", example1_spec, "--seed", "7"])
        assert json.loads(out)["seed"] == 7

    def test_box_flag(self, example1_spec):
        code, out = run(["analyze", "--spec", example1_spec, "--box", "0.5,2.0"])
        assert code == 0
        report = json.loads(out)
        assert report["rank_certificate"]["box"] == [0.5, 2.0]

    def test_each_payload_compiled_once(self, example1_spec, monkeypatch):
        # the pivot rule, the zero tests, the rank certificates and the
        # Frobenius fallback share one float closure per payload and symbol
        # list, kept on the payload
        compile_ = sx._compile
        compiled = []

        def counting(rat, symbols, slots):
            compiled.append((rat, symbols))
            return compile_(rat, symbols, slots)

        monkeypatch.setattr(sx, "_compile", counting)
        code, _ = run(["analyze", "--spec", example1_spec])
        assert code == 0
        assert compiled and len({(id(r), s) for r, s in compiled}) == len(compiled)

    def test_env_seed_override(self, example1_spec, monkeypatch):
        monkeypatch.setenv("CARTAN_VP_SEED", "99")
        _, out = run(["analyze", "--spec", example1_spec])
        assert json.loads(out)["seed"] == 99
        # explicit flag wins over the environment
        _, out2 = run(["analyze", "--spec", example1_spec, "--seed", "3"])
        assert json.loads(out2)["seed"] == 3


class TestEl:
    def test_equations_listed(self, example1_spec):
        code, out = run(["el", "--spec", example1_spec])
        assert code == 0
        report = json.loads(out)
        assert len(report["equations"]) == 3
        assert report["route"] == "minors"
        assert report["minor_vs_pullback_constant"] == "1"
        assert "Dz1_x1" in json.dumps(report["P"])

    THETA_FACTORS = {
        "chart": {"base": ["x"], "fiber_z": ["z1", "z2"], "fiber_w": []},
        "theta": [{"coeff": "2*z1 + x", "index": ["z2"]}],
        "factors": [
            [{"coeff": "2", "index": ["z1"]}, {"coeff": "1", "index": ["x"]}],
            [{"coeff": "1", "index": ["z2"]}],
        ],
    }

    def test_power_too_large_to_expand(self, tmp_path):
        # the parser refuses to expand the power, so the run fails at once
        # with a typed error instead of running without end
        spec = json.loads(json.dumps(self.THETA_FACTORS))
        spec["theta"][0]["coeff"] = "(x + z1)^99999"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        code, out = run(["el", "--spec", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        report = json.loads(out)
        assert report == {"error": "power too large to expand (over 1000 terms) (at position 9)", "position": 9}

    def test_theta_with_factors_before_normalizing(self, tmp_path):
        # d(theta) is the wedge of the factors as given; normalizing them
        # (pivot 2) rescales their wedge, which must not reject the spec
        path = tmp_path / "spec.json"
        for pivot, code_want in (("2", 0), ("1", 1)):
            spec = json.loads(json.dumps(self.THETA_FACTORS))
            spec["factors"][0][0]["coeff"] = pivot
            path.write_text(json.dumps(spec))
            code, out = run(["el", "--spec", str(path)])
            assert code == code_want, out
            if code:  # with pivot 1, d(theta) is twice the wedge
                assert json.loads(out)["kind"] == "DegreeMismatchError"
        spec = json.loads(json.dumps(self.THETA_FACTORS))
        spec["theta"] = [{"coeff": "z1 + x", "index": ["z2"]}]
        spec["factors"][0][0]["coeff"] = "1"
        path.write_text(json.dumps(spec))
        assert run(["el", "--spec", str(path)])[0] == 0

    def test_failed_self_check_is_typed(self, example1_spec, monkeypatch):
        # a mathematical self-check that fails raises InvariantViolationError,
        # which exits 1 and names its kind: here each pulled-back contraction
        # is off by 1, so no constant relates it to its minor
        omega_coefficient = vp._omega_coefficient
        monkeypatch.setattr(vp, "_omega_coefficient", lambda form: omega_coefficient(form) + 1)
        code, out = run(["el", "--spec", example1_spec])
        assert code == 1
        assert json.loads(out)["kind"] == "InvariantViolationError"

    def test_zero_pullback_is_caught(self, example1_spec, monkeypatch):
        # a pullback that vanishes identically is no constant times a
        # nonzero minor: the self-check refuses it instead of reporting 0
        monkeypatch.setattr(vp, "_omega_coefficient", lambda form: sx.ZERO)
        code, out = run(["el", "--spec", example1_spec])
        assert code == 1
        assert json.loads(out)["kind"] == "InvariantViolationError"

    def test_perturbed_minor_is_caught(self, example1_spec, monkeypatch):
        # one term added to one Delta breaks the identity in that row only
        signed_minor = vp._signed_minor
        monkeypatch.setattr(
            vp, "_signed_minor", lambda P, a: signed_minor(P, a) + (sx.var("x1") if a == 1 else 0)
        )
        code, out = run(["el", "--spec", example1_spec])
        assert code == 1
        assert json.loads(out) == {
            "error": "pullback coefficient and minor differ beyond a constant at row 1",
            "kind": "InvariantViolationError",
        }

    def test_malformed_index_is_parse_error(self, tmp_path):
        spec = fx.load("example1")
        spec["factors"][0][0]["index"] = ["nope"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, out = run(["el", "--spec", str(path)])
        assert code in (1, 2)
        assert "error" in json.loads(out)

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda s: s.__setitem__("factors", 5), "factors must be a list"),
            (lambda s: s["factors"].__setitem__(1, {"coeff": "1"}), "factors[1] must be a list"),
            (lambda s: s["factors"][0][0].__setitem__("coeff", 3), "factors[0][0] must be a record"),
            (lambda s: s["factors"][0][1].pop("index"), "factors[0][1].index"),
        ],
    )
    def test_malformed_spec_shape_is_parse_error(self, tmp_path, mutate, field):
        spec = fx.load("example1")
        mutate(spec)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, out = run(["analyze", "--spec", str(path)])
        assert code == 2
        assert field in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "field, value, extra, message",
        [
            ("chart", 5, [], "chart must be a record"),
            ("opaque", 5, [], "opaque must be a record"),
            ("instances", 5, ["--instance", "constant"], "instances must be a record"),
            ("options", 5, [], "options must be a record"),
        ],
    )
    def test_malformed_spec_field_is_parse_error(self, tmp_path, field, value, extra, message):
        spec = fx.load("example1")
        spec[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, out = run(["analyze", "--spec", str(path)] + extra)
        assert code == 2
        assert message in json.loads(out)["error"]

    def test_parse_error_has_position(self, tmp_path):
        spec = fx.load("example1")
        spec["factors"][0][0]["coeff"] = "1 + * 2"
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(spec))
        code, out = run(["el", "--spec", str(path)])
        assert code == 2
        report = json.loads(out)
        assert report["position"] is not None

    @pytest.mark.parametrize("coeff, position", [("x1^²", 3), ("2²", 1), ("x1 + ²", 5)])
    def test_non_decimal_digit_is_parse_error(self, tmp_path, coeff, position):
        spec = fx.load("example1")
        spec["factors"][0][0]["coeff"] = coeff
        path = tmp_path / "bad3.json"
        path.write_text(json.dumps(spec))
        code, out = run(["el", "--spec", str(path)])
        assert code == 2
        assert json.loads(out)["position"] == position


class TestAnnihilatorFrobenius:
    def test_annihilator(self, example1_spec):
        code, out = run(["annihilator", "--spec", example1_spec])
        report = json.loads(out)
        assert code == 0 and report["rank"] == 2
        assert report["certificate"]["seed"] == 50343

    def test_frobenius_exit_code(self, example1_spec):
        code, out = run(["frobenius", "--spec", example1_spec])
        assert code == 1  # generic coefficients: not integrable
        assert json.loads(out)["verdict"] == "not_integrable"
        code2, out2 = run(["frobenius", "--spec", example1_spec, "--instance", "constant"])
        assert code2 == 0
        assert json.loads(out2)["verdict"] == "integrable"


class TestVerify:
    def test_exact_solution(self, example1_spec, tmp_path):
        section = {
            "components": {
                "z1": "-1/2*x1 + 1/3*x2",
                "z2": "-2*x1 - 1/5*x2",
                "z3": "x1 - 3/4*x2",
            }
        }
        spath = tmp_path / "section.json"
        spath.write_text(json.dumps(section))
        code, out = run(
            ["verify", "--spec", example1_spec, "--instance", "constant", "--section", str(spath)]
        )
        assert code == 0
        report = json.loads(out)
        assert report["critical"] is True
        assert report["cross_checked"] is True

    def test_perturbed_solution(self, example1_spec, tmp_path):
        # perturb two components so the slope matrix has full rank
        section = {
            "components": {
                "z1": "-1/2*x1 + 1/3*x2 + x1^2",
                "z2": "-2*x1 - 1/5*x2 + x2^2",
                "z3": "x1 - 3/4*x2",
            }
        }
        spath = tmp_path / "bad_section.json"
        spath.write_text(json.dumps(section))
        code, out = run(
            ["verify", "--spec", example1_spec, "--instance", "constant", "--section", str(spath)]
        )
        assert code == 1
        report = json.loads(out)
        assert report["critical"] is False
        assert any(r != "0" for r in report["residuals"])

    def test_wrong_chart_section(self, example1_spec, tmp_path):
        spath = tmp_path / "wrong.json"
        spath.write_text(json.dumps({"components": {"z1": "0"}}))
        code, out = run(
            ["verify", "--spec", example1_spec, "--instance", "constant", "--section", str(spath)]
        )
        assert code in (1, 2)


class TestIntegrate:
    def test_affine_patch_csv(self, example1_spec, tmp_path):
        seedfile = {
            "components": {"z1": "0", "z2": "0", "z3": "0"},
            "grid": {"x1": [0.0, 1.0, 6], "x2": [0.0, 1.0, 6]},
        }
        spath = tmp_path / "seed.json"
        spath.write_text(json.dumps(seedfile))
        out_csv = tmp_path / "patch.csv"
        code, _ = run(
            [
                "integrate",
                "--spec", example1_spec,
                "--instance", "constant",
                "--section", str(spath),
                "--format", "csv",
                "--out", str(out_csv),
                "--step", "0.001",
            ]
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0].startswith("# {")
        assert len(lines) == 2 + 36
        # every residual column below the tolerance
        header = lines[1].split(",")
        res_cols = [i for i, h in enumerate(header) if h.startswith("residual_")]
        for row in lines[2:]:
            vals = row.split(",")
            assert all(abs(float(vals[i])) < 1e-6 for i in res_cols)

    def test_json_summary(self, example1_spec, tmp_path):
        seedfile = {
            "components": {"z1": "0", "z2": "0", "z3": "0"},
            "grid": {"x1": [0.0, 1.0, 4], "x2": [0.0, 1.0, 4]},
        }
        spath = tmp_path / "seed.json"
        spath.write_text(json.dumps(seedfile))
        code, out = run(
            ["integrate", "--spec", example1_spec, "--instance", "constant",
             "--section", str(spath), "--step", "0.01"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["nodes"] == 16
        assert report["max_residual"] < 1e-6

    def test_csv_is_rendered_only_for_csv(self, example1_spec, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("to_csv called for a json or text report")

        monkeypatch.setattr(flows.SampledPatch, "to_csv", refuse)
        seedfile = {
            "components": {"z1": "0", "z2": "0", "z3": "0"},
            "grid": {"x1": [0.0, 1.0, 2], "x2": [0.0, 1.0, 2]},
        }
        spath = tmp_path / "seed.json"
        spath.write_text(json.dumps(seedfile))
        argv = ["integrate", "--spec", example1_spec, "--instance", "constant", "--section", str(spath)]
        code, out = run(argv + ["--format", "json"])
        assert code == 0 and json.loads(out)["nodes"] == 4
        code, out = run(argv + ["--format", "text"])
        assert code == 0 and out.startswith("swept 4 nodes")


class TestIntegrateThetaInput:
    def test_rotation_helix(self, tmp_path):
        # action form of the planar rotation field, given as theta directly:
        # the characteristics swept over the time axis are helices
        import math

        spec = {
            "chart": {"base": ["t"], "fiber_z": ["x", "y"], "fiber_w": []},
            "theta": [
                {"coeff": "-1/2*y", "index": ["x"]},
                {"coeff": "1/2*x", "index": ["y"]},
                {"coeff": "-1/2*x^2 - 1/2*y^2", "index": ["t"]},
            ],
            "options": {"seed": 50343},
        }
        path = tmp_path / "rotation.json"
        path.write_text(json.dumps(spec))
        seedfile = {
            "components": {"x": "1", "y": "0"},
            "grid": {"t": [0.0, 6.0, 61]},
        }
        spath = tmp_path / "seed.json"
        spath.write_text(json.dumps(seedfile))
        out_csv = tmp_path / "helix.csv"
        code, _ = run(
            ["integrate", "--spec", str(path), "--section", str(spath),
             "--format", "csv", "--out", str(out_csv), "--tol", "0.01"]
        )
        assert code == 0
        rows = out_csv.read_text().strip().split("\n")[2:]
        worst = 0.0
        for row in rows:
            t, x, y = (float(v) for v in row.split(",")[:3])
            worst = max(worst, abs(x - math.cos(t)), abs(y - math.sin(t)))
        assert worst < 1e-8  # integrator accuracy, far below the FD tolerance


class TestLiouville:
    def test_rotation_field(self, tmp_path):
        spec = {
            "phase": ["x", "y"],
            "omega": [{"coeff": "1", "index": ["x", "y"]}],
            "field": {"x": "-y", "y": "x"},
        }
        path = tmp_path / "liouville.json"
        path.write_text(json.dumps(spec))
        code, out = run(["liouville", "--spec", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["is_liouville"] is True
        assert report["hodge_identity"] is True
        assert report["characteristic_field"]["t"] == "1"

    def test_non_liouville_field(self, tmp_path):
        spec = {
            "phase": ["x", "y"],
            "omega": [{"coeff": "1", "index": ["x", "y"]}],
            "field": {"x": "x", "y": "0"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, out = run(["liouville", "--spec", str(path)])
        assert code == 1
        assert json.loads(out)["is_liouville"] is False

    def test_theta_differentiated_once(self, tmp_path, monkeypatch):
        # one run forms d(theta) once: the setup keeps its problem, whose
        # eta the characteristic, Hodge and report steps all read
        spec = {
            "phase": ["x", "y", "z"],
            "omega": [{"coeff": "1", "index": ["x", "y", "z"]}],
            "field": {"x": "x*y + z^2", "y": "-1/2*y^2 + z", "z": "x^2 + y"},
        }
        path = tmp_path / "liouville-3d.json"
        path.write_text(json.dumps(spec))
        ext_d = fm.ext_d
        thetas = []

        def counting(form):
            # theta is the one form of degree k on the extended bundle chart
            if isinstance(form.chart, fm.BundleChart) and form.degree == form.chart.k:
                thetas.append(form)
            return ext_d(form)

        for name, module in list(sys.modules.items()):
            if name.startswith("cartanvp") and getattr(module, "ext_d", None) is ext_d:
                monkeypatch.setattr(module, "ext_d", counting)
        code, out = run(["liouville", "--spec", str(path)])
        assert code == 0
        assert len(thetas) == 1
        assert fm.form_to_spec(thetas[0]) == json.loads(out)["theta"]

    def test_field_contracted_with_omega_once(self, tmp_path, monkeypatch):
        # the closedness check and gamma share one contraction X -| omega
        spec = {
            "phase": ["x", "y", "z"],
            "omega": [{"coeff": "1", "index": ["x", "y", "z"]}],
            "field": {"x": "x*y + z^2", "y": "-1/2*y^2 + z", "z": "x^2 + y"},
        }
        path = tmp_path / "liouville-3d.json"
        path.write_text(json.dumps(spec))
        phase = fm.Chart(spec["phase"])
        X = specio.field_from_spec(phase, spec["field"])
        interior = fm.interior
        contractions = []

        def counting(field, form):
            if field == X and form.chart == phase and form.degree == phase.dim:
                contractions.append(form)
            return interior(field, form)

        for name, module in list(sys.modules.items()):
            if name.startswith("cartanvp") and getattr(module, "interior", None) is interior:
                monkeypatch.setattr(module, "interior", counting)
        code, out = run(["liouville", "--spec", str(path)])
        assert code == 0 and json.loads(out)["is_liouville"] is True
        assert len(contractions) == 1

    def test_supplied_sigma(self, tmp_path):
        spec = {
            "phase": ["x", "y"],
            "omega": [{"coeff": "1", "index": ["x", "y"]}],
            "field": {"x": "-y", "y": "x"},
            "sigma": [{"coeff": "x", "index": ["y"]}],
        }
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(spec))
        code, out = run(["liouville", "--spec", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["hodge_identity"] is True
        # theta carries the supplied primitive, not the homotopy one
        assert {"coeff": "x", "index": ["y"]} in report["theta"]

    def test_zero_field(self, tmp_path):
        spec = {
            "phase": ["x", "y"],
            "omega": [{"coeff": "1", "index": ["x", "y"]}],
            "field": {"x": "0", "y": "0"},
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(spec))
        code, out = run(["liouville", "--spec", str(path)])
        assert code == 0
        report = json.loads(out)
        # theta reduces to the primitive of the volume form
        assert report["theta"] == [
            {"coeff": "-1/2*y", "index": ["x"]},
            {"coeff": "1/2*x", "index": ["y"]},
        ]


class TestEntryPoint:
    def test_console_script_deterministic_across_processes(self, example1_spec):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "cartanvp.cli", "analyze", "--spec", example1_spec]
        env = dict(os.environ, PYTHONHASHSEED="0")
        out1 = subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
        env2 = dict(os.environ, PYTHONHASHSEED="4242")
        out2 = subprocess.run(cmd, capture_output=True, env=env2, check=True).stdout
        assert out1 == out2
        assert json.loads(out1)["classification"]["q"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--spec", "spec.json", "--step", "0.1"],
            ["el", "--spec", "spec.json", "--tol", "0.1"],
            ["verify", "--spec", "spec.json", "--section", "s.json", "--step", "0.1"],
            ["annihilator", "--spec", "spec.json", "--format", "csv"],
            ["liouville", "--spec", "spec.json", "--instance", "constant"],
            ["example", "example1", "--instance", "constant"],
            ["example", "example1", "--box", "0,1"],
        ],
    )
    def test_unread_flags_rejected(self, argv, capsys):
        # each command accepts only the flags it reads
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err


class TestExample:
    @pytest.mark.parametrize("name", fx.FIXTURE_NAMES)
    def test_examples_pass(self, name):
        code, out = run(["example", name])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True

    def test_env_seed_echoed(self, monkeypatch):
        # the environment seeds `example` as it seeds every report
        monkeypatch.setenv("CARTAN_VP_SEED", "7")
        code, out = run(["example", "example1"])
        assert code == 0 and json.loads(out)["seed"] == 7
        _, out = run(["example", "example1", "--seed", "3"])
        assert json.loads(out)["seed"] == 3

    def test_text_shows_discrepancies(self):
        code, out = run(["example", "example3", "--format", "text"])
        assert code == 0
        assert "discrepancy" in out


def _pinned(text):
    """example1's opaque atoms are applied to the whole chart; `@` stands
    for that argument list."""
    return text.replace("@", "(x1, x2, z1, z2, z3)")


EXAMPLE1_BASIS_TEXT = [
    _pinned("  (1) d/dx1 + (-B11@) d/dz1 + (-B21@) d/dz2 + (-B31@) d/dz3"),
    _pinned("  (1) d/dx2 + (-B12@) d/dz1 + (-B22@) d/dz2 + (-B32@) d/dz3"),
]

EXAMPLE1_EL_TEXT = [
    "critical-section equations (minors route):",
    _pinned(
        "  Delta_1 = -Dz2_x2*Dz3_x1 + Dz2_x1*Dz3_x2 + B32@*Dz2_x1 - B31@*Dz2_x2"
        " - B22@*Dz3_x1 - B22@*B31@ + B21@*Dz3_x2 + B21@*B32@ = 0"
    ),
    _pinned(
        "  Delta_2 = Dz1_x2*Dz3_x1 - Dz1_x1*Dz3_x2 - B32@*Dz1_x1 + B31@*Dz1_x2"
        " + B12@*Dz3_x1 + B12@*B31@ - B11@*Dz3_x2 - B11@*B32@ = 0"
    ),
    _pinned(
        "  Delta_3 = -Dz1_x2*Dz2_x1 + Dz1_x1*Dz2_x2 + B22@*Dz1_x1 - B21@*Dz1_x2"
        " - B12@*Dz2_x1 - B12@*B21@ + B11@*Dz2_x2 + B11@*B22@ = 0"
    ),
]


class TestTextFormat:
    def test_example1_text_pinned(self, example1_spec):
        outputs = {
            c: run([c, "--spec", example1_spec, "--format", "text"])
            for c in ("analyze", "el", "annihilator")
        }
        assert outputs["analyze"] == (0, "\n".join([
            "case: maximally_characteristic   proper: proper",
            "n = 5, k = 2, q = 2, r = 2, h = 0",
            "annihilator basis:",
            *EXAMPLE1_BASIS_TEXT,
            "frobenius: not_integrable",
        ]) + "\n")
        assert outputs["el"] == (0, "\n".join(EXAMPLE1_EL_TEXT) + "\n")
        assert outputs["annihilator"] == (
            0, "\n".join(["annihilator rank 2:", *EXAMPLE1_BASIS_TEXT]) + "\n"
        )

    def test_field_lines_are_displays(self, tmp_path):
        # example3 is not proper, so its analyze text lists vertical witnesses
        spec = fx.load("example3")
        path = tmp_path / "example3.json"
        path.write_text(json.dumps(spec))
        code, out = run(["analyze", "--spec", str(path), "--format", "text"])
        p = specio.problem_from_spec(spec)
        witnesses = p.vertical_annihilator.basis
        assert code == 0 and witnesses
        lines = out.splitlines()
        at = lines.index("vertical annihilator witnesses:")
        assert lines[3:at] == ["  " + Y.display() for Y in p.annihilator.basis]
        assert lines[at + 1:-1] == ["  " + Y.display() for Y in witnesses]



class TestDistributionsBuilt:
    """Each command builds only the distributions it reports: the full
    annihilator, the vertical one, or neither."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []

        def counting(f):
            def wrapper(*args, **kwargs):
                calls.append("vertical" if kwargs.get("vertical_only") else "full")
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ids, "characteristic_distribution", counting(ids.characteristic_distribution))
        return calls

    @pytest.fixture(params=["example1", "rotation"])
    def problem_argv(self, request, tmp_path):
        """The spec arguments, and the extra arguments of integrate and verify."""
        if request.param == "example1":
            spec, extra = fx.load("example1"), ["--instance", "constant"]
            seed = {"components": {"z1": "0", "z2": "0", "z3": "0"},
                    "grid": {"x1": [0.0, 0.1, 2], "x2": [0.0, 0.1, 2]}}
        else:
            spec, extra = ROTATION_THETA, ["--tol", "0.01"]
            seed = {"components": {"x": "1", "y": "0"}, "grid": {"t": [0.0, 0.1, 3]}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        spath = tmp_path / "seed.json"
        spath.write_text(json.dumps(seed))
        return ["--spec", str(path)], {
            "integrate": ["--section", str(spath), *extra],
            "verify": ["--section", str(spath)],
        }

    @pytest.mark.parametrize(
        ("command", "want"),
        [
            ("el", []),
            ("verify", []),
            ("annihilator", ["full"]),
            ("frobenius", ["full"]),
            ("integrate", ["full"]),
            ("analyze", ["full", "vertical"]),
        ],
    )
    def test_problem_commands(self, built, problem_argv, command, want):
        spec_args, extra = problem_argv
        code, out = run([command, *spec_args, *extra.get(command, [])])
        assert "error" not in json.loads(out) and code in (0, 1)
        assert built == want

    def test_liouville(self, built, tmp_path):
        spec = {
            "phase": ["x", "y"],
            "omega": [{"coeff": "1", "index": ["x", "y"]}],
            "field": {"x": "-y", "y": "x"},
        }
        path = tmp_path / "liouville.json"
        path.write_text(json.dumps(spec))
        assert run(["liouville", "--spec", str(path)])[0] == 0
        assert built == []

    def test_example(self, built):
        assert run(["example", "example1"])[0] == 0
        assert built == ["full", "vertical"]


class TestElWithoutAnnihilator:
    """`el` reads only eta, so a problem whose annihilator rank cannot be
    certified at the samples still gets its equations; the commands that
    report the annihilator fail as before."""

    SPEC = {
        "chart": {"base": ["t"], "fiber_z": ["x", "y"], "fiber_w": []},
        "theta": [
            {"coeff": "-1/10000000000000*y", "index": ["x"]},
            {"coeff": "1/10000000000000*x", "index": ["y"]},
            {"coeff": "-1/2*x^2 - 1/2*y^2", "index": ["t"]},
        ],
        "options": {"seed": 50343},
    }

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_el_lists_equations(self, spec_path):
        code, out = run(["el", "--spec", spec_path])
        assert code == 0
        report = json.loads(out)
        assert report["route"] == "maximal_degree"
        assert report["equations"] == [
            "-x + 1/5000000000000*Dy_t",
            "-y - 1/5000000000000*Dx_t",
        ]

    @pytest.mark.parametrize("command", ["analyze", "annihilator", "frobenius"])
    def test_annihilator_commands_fail(self, spec_path, command):
        code, out = run([command, "--spec", spec_path])
        assert code == 1
        assert json.loads(out) == {
            "error": "annihilator system: sampled rank differs from symbolic rank 2 (sampled [0, 2])",
            "kind": "NonConstantRankError",
        }


SEED_SECTION = {"components": {"z1": "0", "z2": "0", "z3": "0"}, "grid": {"x1": [0.0, 1.0, 2], "x2": [0.0, 1.0, 2]}}
ROTATION_LIOUVILLE = {
    "phase": ["x", "y"],
    "omega": [{"coeff": "1", "index": ["x", "y"]}],
    "field": {"x": "-y", "y": "x"},
}


def _changed(record, path, value):
    """A deep copy of `record` with the entry at `path` set to `value`
    (the whole record when `path` is empty)."""
    if not path:
        return value
    out = json.loads(json.dumps(record))
    at = out
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = value
    return out


class TestInputShapes:
    """A section file or a liouville spec of the wrong shape exits 2 with
    a ParseError that names the field."""

    def _run(self, tmp_path, argv, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out = run([*argv, str(path)])
        assert code == 2
        return json.loads(out)

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("grid",), 5, "section.grid must be a record"),
            (("grid", "x1"), 5, "section.grid.x1 must be [lo, hi, count]"),
            (("grid", "x1"), [0.0, 1.0, 3.5], "section.grid.x1 must be [lo, hi, count]"),
            (("components", "z1"), 0, "section.components.z1 must be an expression string"),
            (("components",), ["0", "0", "0"], "section.components must be a record"),
            ((), [SEED_SECTION], "section must be a record"),
            (("axis_order",), 5, "section.axis_order must be a list"),
            (("seed_axes",), 5, "section.seed_axes must be a list"),
        ],
    )
    def test_integrate_section(self, example1_spec, tmp_path, path, value, field):
        argv = ["integrate", "--spec", example1_spec, "--instance", "constant", "--section"]
        report = self._run(tmp_path, argv, _changed(SEED_SECTION, path, value))
        assert report["error"].startswith(field) and report["position"] is None

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"components": {"z1": 0, "z2": "0", "z3": "0"}}, "section.components.z1 must be an expression string"),
            (["-1/2*x1"], "section must be a record"),
            ("-1/2*x1", "section must be a record"),
        ],
    )
    def test_verify_section(self, example1_spec, tmp_path, payload, field):
        argv = ["verify", "--spec", example1_spec, "--instance", "constant", "--section"]
        report = self._run(tmp_path, argv, payload)
        assert report["error"].startswith(field) and report["position"] is None

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("phase",), 5, "phase must be a list"),
            (("phase",), "xy", "phase must be a list"),
            (("field",), ["-y", "x"], "field must be a record"),
            (("field", "x"), 1, "field.x must be an expression string"),
        ],
    )
    def test_liouville_spec(self, tmp_path, path, value, field):
        report = self._run(tmp_path, ["liouville", "--spec"], _changed(ROTATION_LIOUVILLE, path, value))
        assert report["error"].startswith(field) and report["position"] is None


class TestFilePaths:
    """A file that cannot be read (`--spec`, `--section`) or written
    (`--out`) exits 2 with its `OSError` kind, not with a traceback."""

    @pytest.mark.parametrize("command", ["el", "analyze", "liouville"])
    def test_missing_spec(self, tmp_path, command):
        missing = tmp_path / "missing.json"
        code, out = run([command, "--spec", str(missing)])
        assert code == 2
        assert json.loads(out) == {
            "error": f"[Errno 2] No such file or directory: '{missing}'",
            "kind": "FileNotFoundError",
        }

    @pytest.mark.parametrize("command", ["el", "analyze", "liouville"])
    def test_spec_is_a_directory(self, tmp_path, command):
        code, out = run([command, "--spec", str(tmp_path)])
        assert code == 2
        assert json.loads(out) == {"error": f"[Errno 21] Is a directory: '{tmp_path}'", "kind": "IsADirectoryError"}

    def test_missing_section(self, example1_spec, tmp_path):
        missing = tmp_path / "section.json"
        code, out = run(["verify", "--spec", example1_spec, "--section", str(missing)])
        assert code == 2
        assert json.loads(out)["kind"] == "FileNotFoundError"

    def test_out_in_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out = run(["example", "example1", "--out", str(target)])
        assert code == 2
        assert json.loads(out) == {
            "error": f"[Errno 2] No such file or directory: '{target}'",
            "kind": "FileNotFoundError",
        }
        assert not target.parent.exists()
