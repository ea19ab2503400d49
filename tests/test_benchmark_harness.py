"""A smoke test of the benchmark harness, perfbench/run.py.

Each workload BENCHMARK.json names runs for half a second untraced, and
tpep-fine-blocks once traced, from a copy of perfbench/ beside this
checkout's src/, so that the span file a traced run writes lands in a
temporary directory.  A run must exit 0 and end with a result line that
says it was correct, with no failed operation and a finite value for
every metric BENCHMARK.json names for its mode: the end-to-end ones
untraced, the per-layer ones traced.  So a change that breaks the
harness's imports, keywords, tracer patch targets or correctness checks
fails here, not only in a benchmark run.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = [(w["name"], 0) for w in BENCHMARK["workloads"]] + [("tpep-fine-blocks", 1)]


@pytest.mark.parametrize("workload,trace", RUNS)
def test_the_harness_runs_a_workload_and_checks_it(workload, trace, tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "0.5", "--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr[-3000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    for metric in BENCHMARK["per_layer" if trace else "end_to_end"]:
        assert math.isfinite(result["metrics"][metric["name"]]["value"]), metric["name"]
