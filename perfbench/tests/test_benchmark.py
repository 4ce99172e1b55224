"""Self-test of the benchmark harness (not part of the Tier-1 suite).

    python -m pytest -q perfbench/tests

Runs every workload briefly through `run.py`: no item may fail, every
metric BENCHMARK.json names must be printed, and the traced counts must
repeat exactly across two processes with the same seed.  Takes a few
minutes on a 2-core machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTS = ("flows.rk4_steps", "linalg.samples_drawn")


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_clean(result):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (run(workload, 7, 1, 1) for _ in range(2))
    for result in (first, second):
        assert_clean(result)
        assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    counts = [n for n in first["metrics"] if n.endswith(".calls") or n in COUNTS]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_end_to_end_metrics():
    # the cheapest workload; the others emit the same keys from the same code
    result = run("forms-identities", 7, 1, 0)
    assert_clean(result)
    assert result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
