"""Print the median wall time of each CLI run and demo of
tools/output_digest.py, each run in a fresh process, and whether that
process imported numpy.

    python3 tools/startup_time.py [--runs 5] [--match TEXT]

The runs and their inputs are the digest's (`output_digest.entries()`
and `INPUTS`), from the checkout this script lives in.  The package is
byte-compiled once (`python -m compileall`) before any run, so every
timed process reads cached bytecode, as an installed package does.  Each
entry then runs `--runs` times back to back, timed from spawn to exit,
and once more untimed under `-X importtime`, whose report says whether
numpy was imported.  `--match` keeps the entries whose command line
contains TEXT.  One line per entry: the median seconds, `numpy` or `-`,
and the command.  Compare two commits by running the script in a copy of
each (for example a `git archive` copy of the parent).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from output_digest import INPUTS, ROOT, _argv, entries


def _loads_numpy(argv: list[str], cwd: Path, env: dict) -> bool:
    proc = subprocess.run([argv[0], "-X", "importtime", *argv[1:]], cwd=cwd, env=env, capture_output=True, text=True)
    # one "import time: self | cumulative | name" line per imported module
    return any(line.rsplit("|", 1)[-1].strip() == "numpy" for line in proc.stderr.splitlines())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="timed runs per entry")
    ap.add_argument("--match", default="", help="keep entries whose command contains this text")
    args = ap.parse_args(argv)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "cartanvp")], check=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for fname, payload in INPUTS.items():
            (tmp / fname).write_text(json.dumps(payload))
        for entry in entries():
            command = " ".join(entry)
            if args.match not in command:
                continue
            run = _argv(entry, tmp)
            times = []
            for _ in range(args.runs):
                t = time.perf_counter()
                subprocess.run(run, cwd=tmp, env=env, capture_output=True)
                times.append(time.perf_counter() - t)
            numpy = "numpy" if _loads_numpy(run, tmp, env) else "-"
            print(f"{statistics.median(times):8.3f}  {numpy:5}  {command}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
