"""The cartanvp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  analyze-generic   CLI analyze/el/liouville/example on generated specs
  forms-identities  exact exterior-calculus identities on random forms
  sweep-lattice     lattice sweeps of characteristic fields (RK4)

Each workload runs in a fresh single-threaded worker process as a closed
loop with one client.  `--trace 0` prints the end-to-end metrics: the
main timed run, plus two set-up-only processes whose set-up times give
the median `setup_s` and whose re-run `analyze`/`el` outputs must be
byte-identical to the main run's.  `--trace 1` runs a fixed number of
cycles untraced and then traced (same seed, same items) and prints the
per-module metrics and the tracing overhead.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_PROBES = 2
# cycles per second of --seconds in a traced run: fixed, so that the
# traced counts repeat exactly for a seed, and sized so that the untraced
# and traced passes together take about --seconds on the seed code (one
# cycle takes about 5.5 s, 1.5 s and 3.2 s there)
TRACE_CYCLES_PER_S = {"analyze-generic": 0.1, "forms-identities": 0.3, "sweep-lattice": 0.1}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CARTAN_VP_SEED", "PYTHONPATH")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(deadline: float, **opts) -> dict:
    argv = [sys.executable, str(HERE / "worker.py")]
    for key, val in opts.items():
        argv += [f"--{key}", str(val)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    argv += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=worker_env(), cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the deadline: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy

        np_version = numpy.__version__
    except ImportError:
        np_version = None
    return {
        "python": platform.python_version(),
        "numpy": np_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline) -> tuple[dict, int, list]:
    main = spawn(deadline, workload=args.workload, seed=args.seed, seconds=args.seconds, mode="timed")
    probes = [
        spawn(deadline, workload=args.workload, seed=args.seed, mode="setup", probe=j) for j in range(SETUP_PROBES)
    ]
    failures = list(main["failures"]) + main["warmup_failures"]
    for pr in probes:
        failures += pr["failures"] + pr["warmup_failures"]
        for pos, digest in pr["digests"].items():
            if main["digests"].get(pos) != digest:
                failures.append([f"cycle0/{pos}", "output differs between two processes with the same seed"])
    ms = [1000.0 * v for cycle in main["latencies"] for v in cycle]
    metrics = {
        "setup_s": metric(statistics.median([main["setup_s"]] + [p["setup_s"] for p in probes]), "s"),
        "items_per_s": metric(len(ms) / main["busy_s"], "1/s"),
        "item_p50_ms": metric(statistics.median(ms), "ms"),
        "item_p90_ms": metric(statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB"),
    }
    print(f"# {len(ms)} items in {main['cycles']} cycles, {main['busy_s']:.2f} s busy, {main['wall_s']:.2f} s wall")
    return metrics, len(ms), failures


def per_layer(args, deadline, names) -> tuple[dict, int, list]:
    cycles = max(1, round(args.seconds * TRACE_CYCLES_PER_S[args.workload]))
    opts = dict(workload=args.workload, seed=args.seed, mode="fixed", cycles=cycles)
    plain = spawn(deadline, trace=0, **opts)
    traced = spawn(deadline, trace=1, **opts)
    tr = traced["trace"]
    drawn = tr.get("linalg.samples_drawn", 0)
    derived = {
        "linalg.sample_yield": tr.get("linalg.samples_kept", 0) / drawn if drawn else 0.0,
        "trace.overhead_frac": traced["busy_s"] / plain["busy_s"] - 1.0,
    }
    metrics = {}
    for m in names:
        name = m["name"]
        metrics[name] = metric(derived[name] if name in derived else tr.get(name, 0), m["unit"])
    failures = []
    for run in (plain, traced):
        failures += run["failures"] + run["warmup_failures"]
    n = sum(len(c) for run in (plain, traced) for c in run["latencies"])
    print(f"# {cycles} cycles per pass, {traced['spans']} spans, spans written under perfbench/out/")
    return metrics, n, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cartanvp benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_CYCLES_PER_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cartanvp" / "__init__.py").is_file():
        print(f"error: no cartanvp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            names = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            metrics, attempted, failures = per_layer(args, deadline, names)
        else:
            metrics, attempted, failures = end_to_end(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for label, msg in failures[:20]:
        print(f"# FAILED {label}: {msg}")
    print("# " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
