"""How each workload hands its generated inputs to the program, and the
independent check of every output.

A workload object turns an item from its generator into a zero-argument
callable (`prepare`, untimed: it writes spec and section files), and
checks what the callable returned (`check`, untimed).  Only the callable
is timed.  References come from the generator's own data and from the
exact evaluator in `common`, never from the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import common as cm
import gen_analyze
import gen_forms
import gen_sweep


class CheckFailed(Exception):
    pass


def need(cond, what: str):
    if not cond:
        raise CheckFailed(what)


def frac_rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def frac_det(m) -> Fraction:
    m = [list(r) for r in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


class Workload:
    gen = None

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.rng = random.Random(f"check/{self.name}/{seed}")

    def cycle(self, index: int) -> list[dict]:
        return self.gen.cycle(self.seed, index)

    def warmup(self) -> dict:
        return self.gen.warmup(self.seed)

    def digested(self, item: dict) -> bool:
        """Whether the item's output must be byte-identical across processes."""
        return False

    def _write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)


# ---------------------------------------------------------------------------


class AnalyzeGeneric(Workload):
    name = "analyze-generic"
    gen = gen_analyze

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        from cartanvp import cli

        self.cli = cli

    def prepare(self, item):
        if item["cmd"] == "example":
            argv = ["example", item["name"]]
        else:
            argv = [item["cmd"], "--spec", self._write("spec.json", item["spec"])]
        return lambda: self.cli.run(argv)

    def digested(self, item):
        return item["cmd"] in ("analyze", "el")

    @staticmethod
    def digest(out) -> str:
        return hashlib.sha256(out[1].encode()).hexdigest()

    def check(self, item, out):
        code, text = out
        need(code == 0, f"exit code {code}: {text[:300]}")
        rep = json.loads(text)
        getattr(self, "_check_" + item["cmd"])(item, rep)

    def _opaque_env(self, spec, point):
        """Values of the spec's bare opaque names at `point`, and the same
        atoms as functions for the program's printed `B11(x1, ...)`."""
        vals = cm.OpaqueValues(self.rng)
        coords = list(point)
        funcs, env = {}, dict(point)
        for name, args in spec.get("opaque", {}).items():
            f = vals.func(name)
            funcs[name] = f
            declared = coords if args == "all" else args
            env[name] = f(*[point[c] for c in declared])
        return env, funcs

    def _check_analyze(self, item, rep):
        exp, spec = item["expect"], item["spec"]
        cls = rep["classification"]
        for key in ("degree_case", "q", "proper", "n", "k"):
            need(cls[key] == exp[key], f"classification.{key}: {cls[key]!r} != {exp[key]!r}")
        basis = rep["annihilator_basis"]
        need(len(basis) == exp["q"], f"annihilator has {len(basis)} fields, want {exp['q']}")
        ch = spec["chart"]
        coords = ch["base"] + ch["fiber_z"]
        point = cm.rand_point(self.rng, coords)
        env, funcs = self._opaque_env(spec, point)
        fields = [[cm.exact_eval(Y.get(c, "0"), point, funcs) for c in coords] for Y in basis]
        for row in spec["factors"]:
            alpha = {r["index"][0]: cm.exact_eval(r["coeff"], env) for r in row}
            for Y in fields:
                s = sum(alpha.get(c, 0) * y for c, y in zip(coords, Y))
                need(s == 0, "annihilator field does not annihilate a factor")
        need(frac_rank(fields) == exp["q"], "annihilator basis is dependent")

    def _check_el(self, item, rep):
        exp, spec = item["expect"], item["spec"]
        need(rep["route"] == "minors", f"route {rep['route']}")
        need(rep["minor_vs_pullback_constant"] == "1", f"minor_vs_pullback_constant {rep['minor_vs_pullback_constant']}")
        ch = spec["chart"]
        base, fiber = ch["base"], ch["fiber_z"]
        need(len(rep["equations"]) == len(fiber), "one equation per fiber pivot")
        point = cm.rand_point(self.rng, base + fiber)
        env, funcs = self._opaque_env(spec, point)
        jets = {f"D{z}_{x}": cm.rand_frac(self.rng, -5, 5) for z in fiber for x in base}
        P = [
            [cm.exact_eval(b, env) + jets[f"D{z}_{x}"] for b, x in zip(brow, base)]
            for z, brow in zip(fiber, exp["B"])
        ]
        P += [[cm.exact_eval(c, env) for c in crow] for crow in exp["C"]]
        full = dict(point, **jets)
        for a, eq in enumerate(rep["equations"]):
            want = (-1) ** a * frac_det([r for i, r in enumerate(P) if i != a])
            need(cm.exact_eval(eq, full, funcs) == want, f"equation {a} differs from the signed minor")

    def _check_liouville(self, item, rep):
        need(rep["is_liouville"] is True, "is_liouville")
        need(rep["hodge_identity"] is True, "hodge_identity")
        need(rep["Z_annihilates_eta"] is True, "Z_annihilates_eta")
        W = rep["characteristic_field"]
        need(W.get("t") == "1", "characteristic field is not normalized in t")
        phase = item["spec"]["phase"]
        point = cm.rand_point(self.rng, phase)
        for c in phase:
            got = cm.exact_eval(W.get(c, "0"), point)
            need(got == cm.exact_eval(item["expect"]["field"][c], point), f"characteristic field differs in {c}")

    def _check_example(self, item, rep):
        need(rep["passed"] is True, "stored goldens fail")
        need(all(i["status"] != "fail" for i in rep["items"]), "a golden item fails")


# ---------------------------------------------------------------------------


def _terms(form) -> dict:
    return {I: str(c) for I, c in form.terms.items()}


def _records_terms(records, names) -> dict:
    # generator records list ascending coordinate names
    return {tuple(names.index(n) for n in r["index"]): r["coeff"] for r in records}


class FormsIdentities(Workload):
    name = "forms-identities"
    gen = gen_forms

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        from cartanvp import forms, liouville, symexpr

        self.fm, self.lv, self.sx = forms, liouville, symexpr

    def prepare(self, item):
        return lambda: getattr(self, "_run_" + item["kind"])(item)

    def _chart(self, item):
        return self.fm.BundleChart(**item["chart"])

    def _field(self, chart, comps):
        return self.fm.VecField(chart, [self.sx.parse(t) for t in comps])

    def _run_dd(self, it):
        ch = self._chart(it)
        da = self.fm.ext_d(self.fm.form_from_spec(ch, it["a"]))
        return {"da": da, "holds": self.fm.ext_d(da).is_zero_form()}

    def _run_antiderivation(self, it):
        fm, ch = self.fm, self._chart(it)
        a, b = fm.form_from_spec(ch, it["a"]), fm.form_from_spec(ch, it["b"])
        X = self._field(ch, it["X"])
        lhs = fm.interior(X, fm.wedge(a, b))
        rhs = fm.wedge(fm.interior(X, a), b) + fm.wedge(a, fm.interior(X, b)) * (-1) ** a.degree
        return {"lhs": lhs, "rhs": rhs, "holds": (lhs - rhs).is_zero_form()}

    def _run_jacobi(self, it):
        fm, ch = self.fm, self._chart(it)
        X, Y, Z = (self._field(ch, it[n]) for n in "XYZ")
        YZ = fm.lie_bracket(Y, Z)
        terms = [fm.lie_bracket(X, YZ), fm.lie_bracket(Y, fm.lie_bracket(Z, X)), fm.lie_bracket(Z, fm.lie_bracket(X, Y))]
        return {"YZ": YZ, "terms": terms, "holds": (terms[0] + terms[1] + terms[2]).is_zero_field()}

    def _run_homotopy(self, it):
        fm, ch = self.fm, self._chart(it)
        db = fm.ext_d(fm.form_from_spec(ch, it["beta"]))
        gamma = self.lv.homotopy_antiderivative(db)
        return {"db": db, "gamma": gamma, "holds": fm.ext_d(gamma) == db}

    def _run_pullback(self, it):
        fm, sx, ch = self.fm, self.sx, self._chart(it)
        a = fm.form_from_spec(ch, it["a"])
        T = fm.Chart(gen_forms.TARGET)
        sub = {n: sx.parse(t) for n, t in it["sub"].items()}
        dmap = {ch.index(n): fm.one_form(T, {t: sx.parse(x) for t, x in d.items()}) for n, d in it["dmap"].items()}
        left = fm.pullback_with(fm.ext_d(a), T, dmap, sub)
        right = fm.ext_d(fm.pullback_with(a, T, dmap, sub))
        return {"l": left, "r": right, "holds": left == right}

    def check(self, item, out):
        need(out["holds"] is True, f"{item['kind']} identity fails")
        names = gen_forms.coords_of(item["dim"])
        pt = cm.rand_point(self.rng, names)
        getattr(self, "_check_" + item["kind"])(item, out, names, pt)

    def _check_dd(self, it, out, names, pt):
        want = cm.d_at(_records_terms(it["a"], names), pt, names)
        need(cm.form_at(_terms(out["da"]), pt) == want, "d(a) differs from the reference")

    def _check_antiderivation(self, it, out, names, pt):
        a = cm.form_at(_records_terms(it["a"], names), pt)
        b = cm.form_at(_records_terms(it["b"], names), pt)
        X = [cm.exact_eval(t, pt) for t in it["X"]]
        want = cm.interior_at(X, cm.wedge_at(a, b))
        need(cm.form_at(_terms(out["lhs"]), pt) == want, "i_X(a^b) differs from the reference")
        need(cm.form_at(_terms(out["rhs"]), pt) == want, "antiderivation side differs from the reference")

    def _check_jacobi(self, it, out, names, pt):
        Y, Z = it["Y"], it["Z"]
        for i in range(len(names)):
            want = sum(
                cm.exact_eval(Y[j], pt) * cm.partial(Z[i], pt, n) - cm.exact_eval(Z[j], pt) * cm.partial(Y[i], pt, n)
                for j, n in enumerate(names)
            )
            need(cm.exact_eval(str(out["YZ"].components[i]), pt) == want, "[Y, Z] differs from the reference")
            total = sum(cm.exact_eval(str(t.components[i]), pt) for t in out["terms"])
            need(total == 0, "Jacobi terms do not cancel at a sample point")

    def _check_homotopy(self, it, out, names, pt):
        want = cm.d_at(_records_terms(it["beta"], names), pt, names)
        need(cm.form_at(_terms(out["db"]), pt) == want, "d(beta) differs from the reference")
        need(cm.d_at(_terms(out["gamma"]), pt, names) == want, "d(gamma) != d(beta) at a sample point")

    def _check_pullback(self, it, out, names, pt):
        target = gen_forms.TARGET
        u = cm.rand_point(self.rng, target)
        src = {n: cm.exact_eval(it["sub"][n], u) for n in names}
        dphi = [
            cm.clean({(target.index(t),): cm.exact_eval(x, u) for t, x in it["dmap"][n].items()}) for n in names
        ]

        def pull(form_at_src):
            acc: dict = {}
            for I, c in form_at_src.items():
                piece = {(): c}
                for i in I:
                    piece = cm.wedge_at(piece, dphi[i])
                acc = cm.add_at(acc, piece)
            return acc

        want = pull(cm.d_at(_records_terms(it["a"], names), src, names))
        need(cm.form_at(_terms(out["l"]), u) == want, "pullback of d(a) differs from the reference")
        need(cm.form_at(_terms(out["r"]), u) == want, "d of the pullback differs from the reference")


# ---------------------------------------------------------------------------


HELIX_TOL = 1e-2
NODE_TOL = 1e-8


class SweepLattice(Workload):
    name = "sweep-lattice"
    gen = gen_sweep

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        from cartanvp import cli, flows, liouville, symexpr
        from cartanvp import forms as fm

        self.cli, self.flows, self.sx = cli, flows, symexpr
        self.fixtures = {
            name: json.loads((root / "src/cartanvp/fixtures/data" / f"{name}.json").read_text())
            for name in ("example2", "example3")
        }
        # the planar rotation field and its action form, built once
        P = fm.Chart(["x", "y"])
        x, y = symexpr.var("x"), symexpr.var("y")
        setup = liouville.build_setup(P, fm.volume_form(P), fm.VecField(P, [-1 * y, x]))
        self.helix_problem = liouville.build_theta(setup)

    def prepare(self, item):
        if item["kind"] == "helix":
            return lambda: self._sweep_helix(item)
        spec = item["spec"] if item["kind"] == "constant" else self.fixtures[item["fixture"]]
        argv = [
            "integrate",
            "--spec", self._write("spec.json", spec),
            "--section", self._write("section.json", item["section"]),
            "--step", repr(item["step"]),
            "--format", "csv",
        ]
        if "instance" in item:
            argv += ["--instance", item["instance"]]
        return lambda: self.cli.run(argv)

    def _sweep_helix(self, item):
        p = self.helix_problem
        start = {n: self.sx.parse(v) for n, v in item["start"].items()}
        grid = {n: tuple(v) for n, v in item["grid"].items()}
        return self.flows.sweep_section(p, p.annihilator, start, grid, step=item["step"], tolerance=HELIX_TOL)

    def check(self, item, out):
        if item["kind"] == "helix":
            return self._check_helix(item, out)
        code, text = out
        need(code == 0, f"exit code {code}: {text[:300]}")
        lines = text.strip().split("\n")
        header = lines[1].split(",")
        rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[2:]]
        grid = item["section"]["grid"]
        base = [h for h in header if h in grid]
        need(len(rows) == math.prod(grid[b][2] for b in base), "node count differs from the lattice")
        lattice = [[grid[b][0] + (grid[b][1] - grid[b][0]) * j / (grid[b][2] - 1) for j in range(grid[b][2])] for b in base]
        invariants = self._invariants(item)
        for pos, row in enumerate(rows):
            # rows come in C order over the base axes
            rest = pos
            for d in reversed(range(len(base))):
                rest, j = divmod(rest, grid[base[d]][2])
                need(abs(row[base[d]] - lattice[d][j]) <= NODE_TOL, "node off the base lattice")
            for h in header:
                if h.startswith("residual_"):
                    need(abs(row[h]) <= 1e-6, f"residual {row[h]:.3e} above tolerance")
            for coeffs, rhs in invariants:
                lhs = sum(float(c) * row[n] for n, c in coeffs.items())
                need(abs(lhs - rhs(row)) <= NODE_TOL, f"node misses the closed form by {abs(lhs - rhs(row)):.3e}")

    def _invariants(self, item):
        """(coefficients, right-hand side) pairs that every node satisfies:
        the factors have constant coefficients, so z_a + B_a.x (+ C_a w)
        is constant along every characteristic field."""
        if item["kind"] == "constant":
            return [
                ({n: Fraction(c) for n, c in inv["coeffs"].items()}, lambda row, v=float(Fraction(inv["value"])): v)
                for inv in item["invariants"]
            ]
        inst = {k: Fraction(v) for k, v in self.fixtures[item["fixture"]]["instances"][item["instance"]].items()}
        out = []
        for a in (1, 2, 3):
            coeffs = {f"z{a}": Fraction(1), "x1": inst[f"B{a}1"], "x2": inst[f"B{a}2"]}
            if item["fixture"] == "example2":
                curve = item["seed_curve"][f"z{a}"]
                rhs = lambda row, t=curve: float(cm.exact_eval(t, {"x3": Fraction(row["x3"])}))
            else:
                comps = {k: Fraction(v) for k, v in item["section"]["components"].items()}
                coeffs["w"] = inst[f"C{a}"]
                rhs = lambda row, v=float(comps[f"z{a}"] + inst[f"C{a}"] * comps["w"]): v
            out.append((coeffs, rhs))
        return out

    def _check_helix(self, item, patch):
        need(patch.max_residual <= HELIX_TOL, "helix residual above tolerance")
        lo, hi, count = item["grid"]["t"]
        x0, y0 = (float(Fraction(item["start"][n])) for n in ("x", "y"))
        need(patch.points.shape == (count, 3), "helix lattice shape")
        for j, pt in enumerate(patch.points):
            t = lo + (hi - lo) * j / (count - 1)
            need(abs(pt[0] - t) <= NODE_TOL, "helix node off the t lattice")
            want = (x0 * math.cos(t) - y0 * math.sin(t), x0 * math.sin(t) + y0 * math.cos(t))
            need(max(abs(pt[1] - want[0]), abs(pt[2] - want[1])) <= NODE_TOL, "helix misses (cos t, sin t)")


WORKLOADS = {w.name: w for w in (AnalyzeGeneric, FormsIdentities, SweepLattice)}
