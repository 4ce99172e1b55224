"""Seeded inputs of the `analyze-generic` workload.

Every item is one CLI invocation: `analyze` or `el` on a generated
factor spec, `liouville` on a Hamiltonian polynomial field, or `example`
on a stored worked example.  Factor specs are well posed by
construction: the z-rows are in normal form with unit fiber pivots
(dz_a + B_a.dx) and the remaining base rows carry a unit pivot on their
own base column, so the coefficient matrix has constant full rank and
the expected classification is known without running the program.

Run `python3 perfbench/gen_analyze.py --seed 1` to print one cycle.
"""

from __future__ import annotations

import argparse
import json
import random

from common import poly_diff, poly_text, rand_poly

# (k, degree case, coefficient kind, command); one cycle runs each once.
# Left out, because single items can outlast a whole run and their spread
# is too wide for any run length to average out (seed code, 2-core Xeon):
# - k = 4: 6-146 s per item;
# - `analyze` on intermediate and maximally characteristic k = 3
#   polynomial specs: 15-100+ s on about one input in five (expression
#   swell in the Frobenius check); with polynomials in the base
#   coordinates only, 0.05-5 s with a standard deviation near the mean.
# `el` on those specs stays in (0.3-3 s): it carries the swell tail.
SKIP = {(3, "intermediate", "poly", "analyze"), (3, "maximally_characteristic", "poly", "analyze")}
CASES = {
    2: ("maximal_degree", "maximally_characteristic"),
    3: ("maximal_degree", "intermediate", "maximally_characteristic"),
}
KINDS = ("opaque", "poly")
COMMANDS = ("analyze", "el")
EXAMPLES = ("example1", "example2", "example3")
LIOUVILLE_DIMS = (2, 3)


def fiber_count(k: int, case: str) -> int:
    # n = k + p: maximal degree n = k+2, maximally characteristic
    # n = 2k+1, intermediate k+2 < n < 2k+1 (only n = 6 at k = 3)
    return {"maximal_degree": 2, "maximally_characteristic": k + 1, "intermediate": 3}[case]


def _coeff(rng, name, kind, coords, opaque):
    """One factor entry: an opaque atom over the whole chart, or a random
    polynomial c1*u*v + c2*w in the chart coordinates."""
    if kind == "opaque":
        opaque[name] = "all"
        return name
    return poly_text(rand_poly(rng, coords, degree=2, terms=2), coords)


def factor_spec(rng: random.Random, k: int, case: str, kind: str) -> dict:
    p = fiber_count(k, case)
    base = [f"x{m}" for m in range(1, k + 1)]
    fiber = [f"z{a}" for a in range(1, p + 1)]
    coords = base + fiber
    opaque: dict = {}
    z_rows, B = [], []
    for a in range(1, p + 1):
        row = [{"coeff": "1", "index": [f"z{a}"]}]
        brow = []
        for m in range(1, k + 1):
            c = _coeff(rng, f"B{a}{m}", kind, coords, opaque)
            brow.append(c)
            if c != "0":
                row.append({"coeff": c, "index": [f"x{m}"]})
        z_rows.append(row)
        B.append(brow)
    h = k + 1 - p
    pivots = rng.sample(range(k), h)
    c_rows, C = [], []
    for i, j in enumerate(pivots, start=1):
        row = [{"coeff": "1", "index": [base[j]]}]
        crow = ["0"] * k
        crow[j] = "1"
        for m in range(k):
            if m not in pivots:
                c = _coeff(rng, f"C{i}{m + 1}", kind, coords, opaque)
                crow[m] = c
                if c != "0":
                    row.append({"coeff": c, "index": [base[m]]})
        c_rows.append(row)
        C.append(crow)
    rows = z_rows + c_rows
    order = list(range(len(rows)))
    rng.shuffle(order)
    spec = {
        "chart": {"base": base, "fiber_z": fiber, "fiber_w": []},
        "factors": [rows[i] for i in order],
        "opaque": opaque,
        "options": {"seed": rng.randrange(1, 1 << 16)},
    }
    n = k + p
    expect = {
        "degree_case": case,
        "q": n - k - 1,
        "proper": "proper",
        "n": n,
        "k": k,
        "B": B,
        # base rows keep their order of appearance in the factor list
        "C": [C[i - p] for i in order if i >= p],
    }
    return {"spec": spec, "expect": expect}


def liouville_spec(rng: random.Random, dim: int) -> dict:
    """Divergence-free polynomial field: the Hamiltonian field of H in
    (x, y), plus for dim 3 a z-component depending on (x, y) only."""
    phase = ["x", "y", "z"][:dim]
    H = rand_poly(rng, ["x", "y"], degree=3, terms=3)
    field = {"x": poly_text(poly_diff(H, 1), ["x", "y"]) if poly_diff(H, 1) else "0"}
    dHx = poly_diff(H, 0)
    field["y"] = poly_text({e: -c for e, c in dHx.items()}, ["x", "y"]) if dHx else "0"
    if dim == 3:
        field["z"] = poly_text(rand_poly(rng, ["x", "y"], degree=2, terms=2), ["x", "y"])
    spec = {
        "phase": phase,
        "omega": [{"coeff": "1", "index": phase}],
        "field": field,
        "options": {"seed": rng.randrange(1, 1 << 16)},
    }
    return {"spec": spec, "expect": {"field": field}}


def cycle(seed: int, index: int) -> list[dict]:
    """The items of cycle `index`: every (k, case, kind, command) once,
    each Liouville dimension once, and every stored example."""
    rng = random.Random(f"analyze-generic/{seed}/{index}")
    items = []
    for k, cases in CASES.items():
        for case in cases:
            for kind in KINDS:
                for cmd in COMMANDS:
                    if (k, case, kind, cmd) in SKIP:
                        continue
                    item = factor_spec(rng, k, case, kind)
                    item.update(cmd=cmd, label=f"{cmd}/k{k}/{case}/{kind}")
                    items.append(item)
    for dim in LIOUVILLE_DIMS:
        item = liouville_spec(rng, dim)
        item.update(cmd="liouville", label=f"liouville/{dim}d")
        items.append(item)
    items += [{"cmd": "example", "name": name, "label": f"example/{name}"} for name in EXAMPLES]
    rng.shuffle(items)
    return items


def warmup(seed: int) -> dict:
    rng = random.Random(f"analyze-generic/{seed}/warmup")
    item = factor_spec(rng, 2, "maximally_characteristic", "opaque")
    item.update(cmd="analyze", label="warmup")
    return item


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycle", type=int, default=0)
    args = ap.parse_args()
    print(json.dumps(cycle(args.seed, args.cycle), indent=1))
