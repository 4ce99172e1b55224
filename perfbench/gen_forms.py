"""Seeded inputs of the `forms-identities` workload.

Every item is one exact identity on random polynomial forms and fields
over the 5-coordinate chart (x1 x2 | z1 z2 z3) or the 6-coordinate chart
with a residual fiber w.  Inputs are coefficient strings; the item parses
them, so each item canonicalizes fresh expression trees.

Run `python3 perfbench/gen_forms.py --seed 1` to print one cycle.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random

from common import poly_diff, poly_text, rand_poly

CHARTS = {
    5: {"base": ["x1", "x2"], "fiber_z": ["z1", "z2", "z3"], "fiber_w": []},
    6: {"base": ["x1", "x2"], "fiber_z": ["z1", "z2", "z3"], "fiber_w": ["w"]},
}
IDENTITIES = ("dd", "antiderivation", "jacobi", "homotopy", "pullback")
TARGET = ["u", "v", "s"]


def coords_of(dim: int) -> list[str]:
    c = CHARTS[dim]
    return c["base"] + c["fiber_z"] + c["fiber_w"]


def rand_form(rng: random.Random, names, degree: int, terms: int = 3, poly_terms: int = 2, poly_degree: int = 2):
    """Records [{coeff, index}] of a random polynomial `degree`-form."""
    idxs = list(itertools.combinations(names, degree))
    rng.shuffle(idxs)
    return [
        {"coeff": poly_text(rand_poly(rng, names, degree=poly_degree, terms=poly_terms), names), "index": list(idx)}
        for idx in idxs[: min(terms, len(idxs))]
    ]


def rand_field(rng: random.Random, names):
    return [poly_text(rand_poly(rng, names, degree=1, terms=2), names) for _ in names]


def item(rng: random.Random, kind: str, dim: int, degree: int) -> dict:
    """One identity; `degree` (1 or 2) is the degree of the input forms."""
    names = coords_of(dim)
    out = {"kind": kind, "dim": dim, "chart": CHARTS[dim], "label": f"{kind}/{dim}/{degree}"}
    if kind == "dd":
        out["a"] = rand_form(rng, names, degree)
    elif kind == "antiderivation":
        out["a"] = rand_form(rng, names, degree)
        out["b"] = rand_form(rng, names, 3 - degree)
        out["X"] = rand_field(rng, names)
    elif kind == "jacobi":
        out["X"], out["Y"], out["Z"] = (rand_field(rng, names) for _ in range(3))
    elif kind == "homotopy":
        # beta is any polynomial form; d(beta) is closed by construction
        out["beta"] = rand_form(rng, names, degree)
    elif kind == "pullback":
        # pull back along a polynomial map from a 3-coordinate chart; the
        # images of the differentials are written out here, not computed
        out["a"] = rand_form(rng, names, degree)
        sub, dmap = {}, {}
        for name in names:
            poly = rand_poly(rng, TARGET, degree=2, terms=2)
            sub[name] = poly_text(poly, TARGET)
            dmap[name] = {t: poly_text(poly_diff(poly, j), TARGET) for j, t in enumerate(TARGET) if poly_diff(poly, j)}
        out["sub"], out["dmap"] = sub, dmap
    return out


def cycle(seed: int, index: int) -> list[dict]:
    """Every identity on both charts with input forms of degree 1 and 2
    (Jacobi: two triples of fields), in seeded order."""
    rng = random.Random(f"forms-identities/{seed}/{index}")
    items = [item(rng, kind, dim, deg) for deg in (1, 2) for kind in IDENTITIES for dim in CHARTS]
    rng.shuffle(items)
    return items


def warmup(seed: int) -> dict:
    return item(random.Random(f"forms-identities/{seed}/warmup"), "antiderivation", 5, 1)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycle", type=int, default=0)
    args = ap.parse_args()
    print(json.dumps(cycle(args.seed, args.cycle), indent=1))
