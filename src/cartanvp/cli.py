"""Command-line surface.

Commands: analyze | el | annihilator | frobenius | integrate | verify |
liouville | example.  Input is the problem-spec JSON; output is JSON
(default), a text rendering of the same content, or CSV for patches.
All randomness is seeded from the spec (default 0xC4A7), overridable by
the CARTAN_VP_SEED environment variable and the --seed flag (flag wins);
the effective seed is echoed in every report, and identical runs are
byte-identical.  The problem computes its distributions on first read,
so each command builds only those it reports: `analyze` and `example`
the annihilator and its vertical part, `annihilator`, `frobenius` and
`integrate` the annihilator, `el`, `verify` and `liouville` neither.
Only numeric work loads numpy: the rank certificates and Frobenius
fallback of `analyze`, `annihilator` and `frobenius`, the sweeps of
`integrate` (`flows`, imported by that command) and the fixture checks of
`example`; `el`, `verify` and `liouville` run without it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import ideals as ids
from . import liouville as lv
from . import specio
from . import varprin as vp
from .errors import CartanVPError, NotClosedError, ParseError
from .forms import form_to_spec
from .symexpr import DEFAULT_SEED

__all__ = ["main", "build_parser", "run"]


def build_parser() -> argparse.ArgumentParser:
    from . import fixtures as fx

    ap = argparse.ArgumentParser(
        prog="cartanvp",
        description="variational Cartan ideals: analyze action forms, list "
        "critical-section equations, and integrate characteristic fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # each command accepts only the flags it reads
    def command(name, help, spec=True, formats=("json", "text")):
        p = sub.add_parser(name, help=help)
        if spec:
            p.add_argument("--spec", required=True, help="problem spec JSON path")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=list(formats), default="json")
        p.add_argument("--seed", type=int, help="override the spec / env seed")
        return p

    def problem_command(name, help, **kw):
        p = command(name, help, **kw)
        p.add_argument("--box", help="sampling box as 'lo,hi'")
        p.add_argument("--instance", help="numeric instantiation block name")
        return p

    problem_command("analyze", "classification, annihilator, Frobenius verdict")
    problem_command("el", "critical-section equations")
    problem_command("annihilator", "annihilator basis of the two-step differential")
    problem_command("frobenius", "integrability verdict for the annihilator")
    p = problem_command("verify", "residuals of a candidate section")
    p.add_argument("--section", required=True, help="section JSON path")
    p = problem_command(
        "integrate", "sweep a critical section patch (CSV)", formats=("json", "text", "csv")
    )
    p.add_argument("--section", required=True, help="seed-section JSON path")
    p.add_argument("--step", type=float, help="integration step")
    p.add_argument("--tol", type=float, help="residual tolerance")
    p = command("liouville", "assemble the action form of a volume-preserving field")
    p.add_argument("--box", help="sampling box as 'lo,hi'")
    p = command("example", "run a stored worked example against its goldens", spec=False)
    p.add_argument("name", choices=list(fx.FIXTURE_NAMES))
    return ap


def _effective_seed(args, spec_options) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CARTAN_VP_SEED")
    if env:
        return int(env)
    return spec_options.get("seed", DEFAULT_SEED)


def _parse_box(text: Optional[str]):
    if not text:
        return None
    lo, hi = (float(v) for v in text.split(","))
    return (lo, hi)


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _problem(args):
    spec = _load_json(args.spec)
    options = specio.options_from_spec(spec)
    seed = _effective_seed(args, options)
    box = _parse_box(args.box) or options["box"]
    instance = None
    if args.instance:
        instance = specio.instance_from_spec(spec, args.instance)
        if instance is None:
            raise ParseError(f"spec has no instance {args.instance!r}")
    p = specio.problem_from_spec(spec, box=box, seed=seed, instance=instance)
    options["seed"] = seed
    options["box"] = box
    return p, spec, options


def _field_json(Y) -> dict:
    return {
        name: str(c)
        for name, c in zip(Y.chart.coords, Y.components)
        if not c.is_const_zero()
    }


def _field_text(record: dict) -> str:
    """`VecField.display` of a field, built from its `_field_json` record
    so that no component is printed twice."""
    return " + ".join(f"({c}) d/d{name}" for name, c in record.items()) or "0"


def cmd_analyze(args):
    p, spec, options = _problem(args)
    cls = p.classification
    fr = ids.frobenius_check(p.annihilator)
    basis = [_field_json(Y) for Y in p.annihilator.basis]
    vertical = [_field_json(Y) for Y in p.vertical_annihilator.basis]
    report = {
        "seed": options["seed"],
        "classification": {
            "n": cls.n,
            "k": cls.k,
            "degree_case": cls.degree_case,
            "proper": cls.proper,
            "q": cls.q,
            "r": cls.r,
            "h": cls.h,
            "vertical_dim": cls.vertical_dim,
        },
        "annihilator_basis": basis,
        "vertical_witnesses": vertical,
        "frobenius": {"verdict": fr.verdict, "detail": fr.detail},
        "rank_certificate": p.annihilator.certificate.to_record(),
    }
    lines = [
        f"case: {cls.degree_case}   proper: {cls.proper}",
        f"n = {cls.n}, k = {cls.k}, q = {cls.q}, r = {cls.r}"
        + (f", h = {cls.h}" if cls.h is not None else ""),
        "annihilator basis:",
    ]
    lines += ["  " + _field_text(r) for r in basis]
    if vertical:
        lines.append("vertical annihilator witnesses:")
        lines += ["  " + _field_text(r) for r in vertical]
    lines.append(f"frobenius: {fr.verdict}")
    return report, "\n".join(lines), 0


def cmd_el(args):
    p, spec, options = _problem(args)
    system = vp.critical_equations(p)
    equations = [str(d) for d in system.deltas]
    report = {
        "seed": options["seed"],
        "route": system.route,
        "jet_names": list(system.jet_names),
        "equations": equations,
        "minor_vs_pullback_constant": str(system.ratio),
    }
    if system.P is not None:
        report["P"] = [[str(e) for e in row] for row in system.P]
    lines = [f"critical-section equations ({system.route} route):"]
    for a, d in enumerate(equations, start=1):
        lines.append(f"  Delta_{a} = {d} = 0")
    return report, "\n".join(lines), 0


def cmd_annihilator(args):
    p, spec, options = _problem(args)
    basis = [_field_json(Y) for Y in p.annihilator.basis]
    report = {
        "seed": options["seed"],
        "rank": p.annihilator.rank,
        "basis": basis,
        "certificate": p.annihilator.certificate.to_record(),
    }
    lines = [f"annihilator rank {p.annihilator.rank}:"]
    lines += ["  " + _field_text(r) for r in basis]
    return report, "\n".join(lines), 0


def cmd_frobenius(args):
    p, spec, options = _problem(args)
    fr = ids.frobenius_check(p.annihilator)
    report = {
        "seed": options["seed"],
        "verdict": fr.verdict,
        "detail": fr.detail,
        "witness_pair": fr.witness_pair,
        "witness_point": fr.witness_point,
    }
    code = 0 if fr.verdict == "integrable" else 1
    return report, f"frobenius: {fr.verdict} {fr.detail}".rstrip(), code


def cmd_verify(args):
    p, spec, options = _problem(args)
    phi = specio.section_from_spec(p.chart, _load_json(args.section))
    result = vp.verify_critical(p, phi)
    report = {
        "seed": options["seed"],
        "critical": result.ok,
        "cross_checked": result.cross_checked,
        "residuals": [str(r) for r in result.residuals],
    }
    lines = [f"critical: {result.ok}"]
    for a, r in enumerate(result.residuals, start=1):
        lines.append(f"  residual_{a} = {r}")
    return report, "\n".join(lines), 0 if result.ok else 1


def cmd_integrate(args):
    from . import flows

    p, spec, options = _problem(args)
    sweep = specio.sweep_from_spec(_load_json(args.section))
    patch = flows.sweep_section(
        p,
        p.annihilator,
        step=options["step"] if args.step is None else args.step,
        tolerance=options["tolerance"] if args.tol is None else args.tol,
        **sweep,
    )
    report = {
        "seed": options["seed"],
        "nodes": int(patch.points.size // p.chart.dim),
        "max_residual": patch.max_residual,
        "provenance": patch.provenance,
    }
    text = f"swept {report['nodes']} nodes, max residual {patch.max_residual:.3e}"
    # formatting every node is a large share of a sweep: only csv needs it
    return report, text, 0, patch.to_csv() if args.format == "csv" else None


def cmd_liouville(args):
    spec = _load_json(args.spec)
    options = specio.options_from_spec(spec)
    seed = _effective_seed(args, options)
    try:
        setup = lv.build_setup(*specio.liouville_from_spec(spec))
    except NotClosedError:
        return {"seed": seed, "is_liouville": False}, "is_liouville: false", 1
    report = {"seed": seed, "is_liouville": True}
    problem = lv.build_theta(setup, box=_parse_box(args.box), seed=seed)
    hodge_ok, hodge_sign = lv.verify_hodge_identity(setup)
    W = _field_json(vp.characteristic_field_maximal_degree(problem))
    report.update(
        {
            "sign_s": setup.sign_s,
            "theta": form_to_spec(setup.theta),
            "Z_annihilates_eta": True,
            "hodge_identity": hodge_ok,
            "hodge_sign": hodge_sign,
            "characteristic_field": W,
        }
    )
    lines = [
        "is_liouville: true",
        f"sign s = {setup.sign_s}",
        f"theta = {setup.theta.display()}",
        f"hodge identity: {hodge_ok} (sign {hodge_sign})",
        f"characteristic field: {_field_text(W)}",
    ]
    return report, "\n".join(lines), 0 if hodge_ok else 1


def cmd_example(args):
    from . import fixtures as fx

    seed = _effective_seed(args, specio.options_from_spec(fx.load(args.name)))
    rep = fx.run_fixture(args.name, seed=seed)
    report = rep.to_dict()
    report["seed"] = seed
    lines = [f"fixture {rep.name}: {'PASS' if rep.passed else 'FAIL'} ({rep.elapsed:.2f}s)"]
    for item in rep.items:
        lines.append(f"  [{item.status:^11}] {item.name}")
        if item.status == "discrepancy":
            lines.append(f"      printed:  {item.detail.get('printed', '')}")
            lines.append(f"      computed: {item.detail.get('computed', '')[:160]}")
    return report, "\n".join(lines), 0 if rep.passed else 1


_parser = functools.cache(build_parser)  # one parser per process

COMMANDS = {
    "analyze": cmd_analyze,
    "el": cmd_el,
    "annihilator": cmd_annihilator,
    "frobenius": cmd_frobenius,
    "verify": cmd_verify,
    "integrate": cmd_integrate,
    "liouville": cmd_liouville,
    "example": cmd_example,
}


def run(argv=None) -> tuple[int, str]:
    """Parse, execute, and render; returns (exit code, rendered output).
    A file that cannot be read or written (`--spec`, `--section`, `--out`)
    exits 2 with its `OSError` kind."""
    args = _parser().parse_args(argv)
    try:
        result = COMMANDS[args.command](args)
        report, text, code = result[:3]
        if args.format == "json":
            out = json.dumps(report, sort_keys=True, indent=2) + "\n"
        elif args.format == "text":
            out = text + "\n"
        else:  # csv, which only integrate accepts and returns
            out = result[3]
        if args.out:
            with open(args.out, "w") as f:
                f.write(out)
            return code, ""
        return code, out
    except ParseError as exc:
        payload = json.dumps({"error": str(exc), "position": exc.position}, sort_keys=True)
        return 2, payload
    except CartanVPError as exc:
        payload = json.dumps(
            {"error": str(exc), "kind": type(exc).__name__}, sort_keys=True
        )
        return 1, payload
    except (OSError, ValueError, KeyError) as exc:
        payload = json.dumps(
            {"error": str(exc), "kind": type(exc).__name__}, sort_keys=True
        )
        return 2, payload


def main(argv=None) -> int:
    code, out = run(argv)
    if out:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
