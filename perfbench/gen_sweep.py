"""Seeded inputs of the `sweep-lattice` workload.

Every item is one lattice sweep.  Spec items go through the CLI
`integrate` command: constant-coefficient maximally characteristic
problems (k = 2, 3) with a point seed, the stored example2 with its
`axis` instance and a seed curve over x3, and the stored example3 with a
seeded w fiber value.  The Liouville helix (planar rotation) goes through
`flows.sweep_section` directly.  Every item carries its closed form: the
affine invariants z_a + B_a.x (+ C_a w) of the constant-coefficient
factors, or the rotation of the seed point for the helix.

Run `python3 perfbench/gen_sweep.py --seed 1` to print one cycle.
"""

from __future__ import annotations

import argparse
import json
import random

from common import frac_text, poly_text, rand_frac, rand_poly

STEPS = (1e-3, 2e-3, 2.5e-3, 4e-3, 5e-3)
# Lattice sizes per cycle.  Sizes and steps are the same in every cycle,
# so every cycle covers the whole range and does the same amount of work;
# the seed draws coefficients, seed data and item order.
SIZES_2D = (6, 12, 18, 25, 31)
SIZES_3D = (5, 7, 9)
SIZES_EXAMPLE2 = (6, 8)
SIZES_EXAMPLE3 = (9, 22)
SIZES_HELIX = (17, 45, 73, 101, 129)
EXTENT = {2: 0.15, 3: 0.1}  # extent of each lattice axis
HELIX_SPACING = 0.05  # t-spacing of the helix lattice; FD residuals stay below 1e-2


def _grid(names, dim, count):
    return {n: [0.0, EXTENT[dim], count] for n in names}


def constant_mc(rng: random.Random, k: int, count: int) -> dict:
    base = [f"x{m}" for m in range(1, k + 1)]
    fiber = [f"z{a}" for a in range(1, k + 2)]
    B = [[rand_frac(rng) for _ in base] for _ in fiber]
    factors = [
        [{"coeff": "1", "index": [z]}]
        + [{"coeff": frac_text(b), "index": [x]} for b, x in zip(row, base) if b]
        for z, row in zip(fiber, B)
    ]
    spec = {
        "chart": {"base": base, "fiber_z": fiber, "fiber_w": []},
        "factors": factors,
        "options": {"seed": rng.randrange(1, 1 << 16)},
    }
    z0 = [rand_frac(rng) for _ in fiber]
    section = {"components": {z: frac_text(c) for z, c in zip(fiber, z0)}, "grid": _grid(base, k, count)}
    invariants = [
        {"coeffs": {x: frac_text(b) for x, b in zip(base, row)} | {z: "1"}, "value": frac_text(c)}
        for z, row, c in zip(fiber, B, z0)
    ]
    return {"spec": spec, "section": section, "invariants": invariants}


def example2_axis(rng: random.Random, count: int) -> dict:
    """Seed curve over x3: z_a(x3) is a random polynomial; the invariant
    z_a + B_a1 x1 + B_a2 x2 equals the seed value at the node's x3."""
    fiber = ["z1", "z2", "z3"]
    comps = {z: poly_text(rand_poly(rng, ["x3"], degree=2, terms=2), ["x3"]) for z in fiber}
    grid = _grid(("x1", "x2", "x3"), 3, count)
    section = {"components": comps, "grid": grid, "seed_axes": ["x3"]}
    return {"fixture": "example2", "instance": "axis", "section": section, "seed_curve": comps}


def example3_w(rng: random.Random, count: int) -> dict:
    fiber = ["z1", "z2", "z3", "w"]
    comps = {f: frac_text(rand_frac(rng)) for f in fiber}
    section = {"components": comps, "grid": _grid(("x1", "x2"), 2, count)}
    return {"fixture": "example3", "instance": "constant", "section": section}


def helix(rng: random.Random, count: int) -> dict:
    x0, y0 = rand_frac(rng, nonzero=True), rand_frac(rng)
    return {
        "start": {"x": frac_text(x0), "y": frac_text(y0)},
        "grid": {"t": [0.0, HELIX_SPACING * (count - 1), count]},
    }


def cycle(seed: int, index: int) -> list[dict]:
    """Constant instances over every 2-D size (k = 2) and the 3-D sizes
    (k = 3), example2 `axis` and example3 `w` sweeps, and helices over
    every 1-D size; item j takes STEPS[j % 5]."""
    rng = random.Random(f"sweep-lattice/{seed}/{index}")
    items = [dict(constant_mc(rng, 2, n), kind="constant", label=f"constant/k2/{n}") for n in SIZES_2D]
    items += [dict(constant_mc(rng, 3, n), kind="constant", label=f"constant/k3/{n}") for n in SIZES_3D]
    items += [dict(example2_axis(rng, n), kind="fixture", label=f"example2/axis/{n}") for n in SIZES_EXAMPLE2]
    items += [dict(example3_w(rng, n), kind="fixture", label=f"example3/w/{n}") for n in SIZES_EXAMPLE3]
    items += [dict(helix(rng, n), kind="helix", label=f"helix/{n}") for n in SIZES_HELIX]
    for j, it in enumerate(items):
        it["step"] = STEPS[j % len(STEPS)]
    rng.shuffle(items)
    return items


def warmup(seed: int) -> dict:
    rng = random.Random(f"sweep-lattice/{seed}/warmup")
    return dict(constant_mc(rng, 2, 6), kind="constant", label="warmup", step=5e-3)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycle", type=int, default=0)
    args = ap.parse_args()
    print(json.dumps(cycle(args.seed, args.cycle), indent=1))
