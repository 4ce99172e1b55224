"""Run one benchmark workload on two checkouts in one process, item by
item, and print how their times compare.

    python3 tools/pair_bench.py DIR_A DIR_B --workload forms-identities \
        [--seed 1] [--cycles 20]

The `src/cartanvp` of each checkout is copied into a temporary directory
under a package name of its own (`cartanvp_a`, `cartanvp_b`), so the two
live side by side with their own caches.  A side's workload object is
built while `cartanvp` and its submodules name that side's package, so
everything the workload imports there is that side's code.  The workload
module comes from this checkout's `perfbench`, as in
`tools/profile_workload.py`, and nothing under `perfbench/` changes.

Both sides run a warm-up item, then every item of cycles 0 to N - 1.
Each item is prepared, timed and checked on one side and then on the
other; the side that goes first alternates from item to item, so that
drift in the machine's speed falls on both.  The script prints the total
timed seconds and the items per second of each side, the throughput
ratio B/A, the items on which each side was faster, and the p50 and p90
item latency of each side.  Like the benchmark worker it re-executes
itself with `PYTHONHASHSEED=0` and one BLAS thread.  Timing both sides
in one process removes most of the spread between processes: on a
2-vCPU box, three A/A runs of forms-identities over 40 cycles (seeds 1-3)
read x0.997, x1.019 and x1.018, where the items_per_s of single
`perfbench/run.py` runs of one commit spread by an IQR of about 20% of
their median over seeds 1-10.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def stage(checkout: Path, name: str, into: Path) -> dict:
    """Import the checkout's `src/cartanvp` as package `name`: the
    module map that makes `cartanvp` that package."""
    shutil.copytree(checkout / "src" / "cartanvp", into / name)
    if str(into) not in sys.path:
        sys.path.insert(0, str(into))
    package = importlib.import_module(name)
    modules = {"cartanvp": package}
    for path in sorted((into / name).glob("*.py")):
        if path.stem != "__init__":
            modules[f"cartanvp.{path.stem}"] = importlib.import_module(f"{name}.{path.stem}")
    return modules


def build(workloads: dict, modules: dict, args, checkout: Path, workdir: Path):
    """The workload object of one side, built while `cartanvp` is its package."""
    saved = {k: sys.modules.get(k) for k in modules}
    sys.modules.update(modules)
    try:
        return workloads[args.workload](args.seed, workdir, checkout)
    finally:
        for k, m in saved.items():
            if m is None:
                del sys.modules[k]
            else:
                sys.modules[k] = m


def timed(wl, item) -> float:
    call = wl.prepare(item)
    t = time.perf_counter()
    out = call()
    dt = time.perf_counter() - t
    wl.check(item, out)
    return dt


def quantile(xs: list, q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cycles", type=int, default=20)
    args = ap.parse_args(argv)

    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **ENV})

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = []
        for label, checkout in (("a", args.dir_a.resolve()), ("b", args.dir_b.resolve())):
            modules = stage(checkout, f"cartanvp_{label}", tmp / "packages")
            workdir = tmp / f"work-{label}"
            workdir.mkdir()
            sides.append(build(WORKLOADS, modules, args, checkout, workdir))
        for wl in sides:
            timed(wl, wl.warmup())
        times: tuple[list, list] = ([], [])
        n = 0
        for index in range(args.cycles):
            for item in sides[0].cycle(index):
                for s in (0, 1) if n % 2 == 0 else (1, 0):
                    times[s].append(timed(sides[s], item))
                n += 1

    a, b = times
    wins_b = sum(tb < ta for ta, tb in zip(a, b))
    print(f"{args.workload} seed {args.seed} cycles 0-{args.cycles - 1}: {n} items")
    print(f"A {args.dir_a}: {sum(a):.3f} s, {n / sum(a):.1f} items/s")
    print(f"B {args.dir_b}: {sum(b):.3f} s, {n / sum(b):.1f} items/s")
    print(f"throughput B/A: x{sum(a) / sum(b):.3f}")
    print(f"faster items: B {wins_b}, A {n - wins_b} of {n}")
    for q in (0.5, 0.9):
        qa, qb = quantile(a, q), quantile(b, q)
        print(f"p{round(100 * q)}: A {1e3 * qa:.3f} ms, B {1e3 * qb:.3f} ms ({100 * (qb / qa - 1):+.1f}%)")
    print(f"median of per-item ratios B/A: {statistics.median(tb / ta for ta, tb in zip(a, b)):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
