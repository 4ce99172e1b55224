"""cProfile the cycles of one benchmark workload, run item by item as the
benchmark worker runs them, and print the top entries.

    python3 tools/profile_workload.py --workload forms-identities --seed 1 \
        --cycles 0-3 [--top 25] [--calls diff _to_rat _compile]

Each item is prepared, called and checked before the next one is
prepared, as in `perfbench/worker.py`; only the call is profiled.  (The
workloads write every spec to the same file names, so preparing all
items first would make every CLI item run the last spec written.)  The
worker's warm-up item runs first, unprofiled.  The script re-executes
itself with `PYTHONHASHSEED=0` and one BLAS thread, like the worker.
It prints the top `--top` entries by self time and by cumulative time,
then the call counts (primitive and total) of every function named in
`--calls`, by bare name or as `module.name`.  It imports the benchmark's workload module and changes
nothing under `perfbench/`.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def cycle_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_item(prof: cProfile.Profile, wl, item: dict) -> None:
    call = wl.prepare(item)
    prof.enable()
    try:
        out = call()
    finally:
        prof.disable()
    wl.check(item, out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=cycle_range, default=range(0, 1), help="A or A-B (inclusive)")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--calls", nargs="*", default=[], help="function names to count calls of")
    args = ap.parse_args(argv)

    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **ENV})

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    prof = cProfile.Profile()
    items = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp), ROOT)
        wl.prepare(wl.warmup())()
        for index in args.cycles:
            for item in wl.cycle(index):
                items += 1
                try:
                    run_item(prof, wl, item)
                except Exception as exc:  # a failed item, as in the worker
                    failed += 1
                    print(f"failed: {item.get('label')}: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)

    stats = pstats.Stats(prof)
    total = stats.total_tt
    print(f"{args.workload} seed {args.seed} cycles {args.cycles.start}-{args.cycles.stop - 1}: "
          f"{items} items, {failed} failed, {total:.3f} s profiled")
    for order in ("tottime", "cumulative"):
        print(f"\n-- top {args.top} by {order}")
        stats.sort_stats(order).print_stats(args.top)
    if args.calls:
        print("-- call counts (primitive/total)")
        seen = set()
        for (path, line, name), (cc, nc, tt, ct, _) in sorted(stats.stats.items()):
            for wanted in (name, f"{Path(path).stem}.{name}"):
                if wanted in args.calls:
                    seen.add(wanted)
                    print(f"{wanted:24s} {cc:>9d} {nc:>9d}  self {tt:.3f} s  cum {ct:.3f} s  {Path(path).name}:{line}")
        for name in args.calls:
            if name not in seen:
                print(f"{name:24s} {0:>9d} {0:>9d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
