"""One workload process; `run.py` starts it and reads its last line.

Modes:
  timed  - closed loop, one client: whole cycles of items until at least
           `--seconds` have passed and at least 100 items are done
  fixed  - exactly `--cycles` cycles (the traced and untraced passes of a
           traced run, so that counts repeat for a seed)
  setup  - set-up only, then re-run a few digested items of cycle 0 and
           report their output digests (set-up time sample and the
           cross-process determinism check)
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITEMS = 100
RECHECK_PER_PROBE = 3


def _run_item(wl, item, failures):
    """Run one item (timed) and check it (untimed); returns (seconds, output)."""
    call = wl.prepare(item)
    t = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # any program error is a failed item
        dt = time.perf_counter() - t
        failures.append([item["label"], f"{type(exc).__name__}: {exc}"[:500]])
        return dt, None
    dt = time.perf_counter() - t
    try:
        wl.check(item, out)
    except Exception as exc:  # a failed or crashing check is a failed item
        failures.append([item["label"], f"{type(exc).__name__}: {exc}"[:500]])
        return dt, None
    return dt, out


def run(args, wl, tracer) -> dict:
    failures: list = []
    warm_failures: list = []
    _run_item(wl, wl.warmup(), warm_failures)
    cycle_items = wl.cycle(0)
    if tracer is not None:
        import cartanvp

        tracer.install(cartanvp)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "warmup_failures": warm_failures}

    if args.mode == "setup":
        positions = [p for p, it in enumerate(cycle_items) if wl.digested(it)]
        mine = positions[args.probe * RECHECK_PER_PROBE : (args.probe + 1) * RECHECK_PER_PROBE]
        digests = {}
        for p in mine:
            _, out = _run_item(wl, cycle_items[p], failures)
            if out is not None:
                digests[p] = wl.digest(out)
        result.update(digests=digests, failures=failures, latencies=[])
        return result

    latencies: list[list[float]] = []  # per cycle
    digests = {}
    cycle = 0
    t_start = time.monotonic()
    while True:
        if args.mode == "fixed":
            if cycle >= args.cycles:
                break
        elif time.monotonic() - t_start >= args.seconds and sum(map(len, latencies)) >= MIN_ITEMS:
            break
        items = cycle_items if cycle == 0 else wl.cycle(cycle)
        latencies.append([])
        for pos, item in enumerate(items):
            dt, out = _run_item(wl, item, failures)
            latencies[-1].append(dt)
            if cycle == 0 and out is not None and wl.digested(item):
                digests[pos] = wl.digest(out)
        cycle += 1
    result.update(
        latencies=latencies,
        busy_s=sum(map(sum, latencies)),
        wall_s=time.monotonic() - t_start,
        cycles=cycle,
        failures=failures,
        digests=digests,
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("timed", "fixed", "setup"), required=True)
    ap.add_argument("--cycles", type=int, default=1)
    ap.add_argument("--probe", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import cartanvp  # noqa: F401  (import time belongs to set-up)

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        result = run(args, wl, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["spans"] = len(tracer.fid)
        tracer.write(HERE / "out" / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
