"""Profile the cycles of one benchmark workload, run item by item as the
benchmark worker runs them, and print the top entries.

    python3 tools/profile_workload.py --workload forms-identities --seed 1 \
        --cycles 0-3 [--top 25] [--calls diff _to_rat _compile] [--sample] \
        [--kind el]

Each item is prepared, called and checked before the next one is
prepared, as in `perfbench/worker.py`; only the call is profiled.  (The
workloads write every spec to the same file names, so preparing all
items first would make every CLI item run the last spec written.)  The
worker's warm-up item runs first, unprofiled.  With `--kind K` every
item still runs, but only those whose `cmd`, or else `kind`, is K are
profiled (the item kinds `tools/pair_bench.py` prints: `analyze`, `el`,
..., or `constant`, `fixture`, `helix`), so the figures are per command
while the process state matches a full run.  The script re-executes
itself with `PYTHONHASHSEED=0` and one BLAS thread, like the worker.
It prints the top `--top` entries by self time and by cumulative time,
then the call counts (primitive and total) of every function named in
`--calls`, by bare name or as `module.name`.

cProfile charges every call, so it overstates call-heavy code.  With
`--sample` the script takes a statistical profile instead: a SIGPROF
interval timer on its own process (`signal.setitimer(ITIMER_PROF)`,
asking for 1 ms of CPU time; the kernel's tick makes it coarser, about
4 ms on a 250 Hz kernel) records the stack of every sample, and the
script prints the sample count, the self and inclusive shares of the
top `--top` functions, as `file:function:line` of the definition, and
the self share of every source file (all its functions together, e.g.
the `fractions.py` share of exact arithmetic).
Python runs the handler only where the interpreter checks for signals
(calls and loop jumps), so straight-line code without calls, such as the
generated RK4 step of `flows`, is charged to its caller.

It imports the benchmark's workload module and changes nothing under
`perfbench/`.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import signal
import sys
import tempfile
from collections import Counter
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


class Sampler:
    """Stack samples on SIGPROF while enabled: per function, the samples
    in which it runs (self) and those in which it is on the stack
    (inclusive); this script's own frames are left out."""

    INTERVAL_S = 1e-3

    def __init__(self):
        self.samples = 0
        self.self = Counter()
        self.inclusive = Counter()
        self.active = False
        # the timer runs throughout, so that calls shorter than a tick are
        # sampled in proportion to their CPU time; samples outside calls
        # are dropped
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def enable(self) -> None:
        self.active = True

    def disable(self) -> None:
        self.active = False

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _sample(self, signum, frame) -> None:
        if not self.active:
            return
        codes = []
        while frame is not None:
            if frame.f_code.co_filename != __file__:
                codes.append(frame.f_code)
            frame = frame.f_back
        if not codes:
            return
        self.samples += 1
        self.self[codes[0]] += 1
        self.inclusive.update(set(codes))

    def print(self, top: int) -> None:
        def label(code) -> str:
            return f"{Path(code.co_filename).name}:{code.co_name}:{code.co_firstlineno}"

        for title, counts in (("self", self.self), ("inclusive", self.inclusive)):
            print(f"\n-- top {top} by {title} share of {self.samples} samples")
            for code, n in counts.most_common(top):
                print(f"{100 * n / self.samples:6.1f}%  {n:>7d}  {label(code)}")
        files = Counter()
        for code, n in self.self.items():
            files[Path(code.co_filename).name] += n
        print(f"\n-- self share per source file of {self.samples} samples")
        for name, n in files.most_common():
            print(f"{100 * n / self.samples:6.1f}%  {n:>7d}  {name}")


def run_item(prof, wl, item: dict, profiled: bool) -> None:
    call = wl.prepare(item)
    if profiled:
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
    ap.add_argument("--sample", action="store_true", help="statistical profile by SIGPROF stack samples")
    ap.add_argument("--kind", help="profile only items whose cmd, else kind, is this")
    args = ap.parse_args(argv)
    if args.sample and args.calls:
        ap.error("--calls counts calls under cProfile; leave out --sample")

    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **ENV})

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    prof = Sampler() if args.sample else cProfile.Profile()
    items = failed = profiled = 0
    with tempfile.TemporaryDirectory() as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp), ROOT)
        wl.prepare(wl.warmup())()
        for index in args.cycles:
            for item in wl.cycle(index):
                items += 1
                wanted = args.kind is None or (item.get("cmd") or item["kind"]) == args.kind
                profiled += wanted
                try:
                    run_item(prof, wl, item, wanted)
                except Exception as exc:  # a failed item, as in the worker
                    failed += 1
                    print(f"failed: {item.get('label')}: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)

    head = f"{args.workload} seed {args.seed} cycles {args.cycles.start}-{args.cycles.stop - 1}: {items} items, {failed} failed"
    if args.kind is not None:
        head += f", {profiled} of kind {args.kind} profiled"
        if not profiled:
            print(head)
            return 1
    if args.sample:
        prof.stop()
        print(f"{head}, {prof.samples} samples")
        prof.print(args.top)
        return 0
    stats = pstats.Stats(prof)
    print(f"{head}, {stats.total_tt:.3f} s profiled")
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
