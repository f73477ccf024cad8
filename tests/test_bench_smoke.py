"""The benchmark harness still runs against the program, checks and all.

``perfbench/run.py --smoke`` runs every job of a workload at tiny sizes,
checks each output and prints one JSON result line last.  With ``--trace 1``
it runs a traced pass and then an untraced one, and checks both, so one run
covers the harness with and without its tracer.  A renamed function that the
harness or its tracer relies on shows up here as a failed job or a crash.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["paper-mc", "regime-mc"])
def test_traced_benchmark_smoke_run_is_correct(workload):
    """The tracer finds every program name it wraps or reads.  No job runs a
    raw simulation: table1 and every coverage job are conditional and draw
    no K = 500 geometry, yet their Monte Carlo time is traced."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["montecarlo.self_s"] > 0
    assert metrics["montecarlo.simulate.calls"] == 0
