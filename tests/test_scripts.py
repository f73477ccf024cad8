"""The experiment scripts run end to end and write every file they name."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, outdir, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         "--outdir", str(outdir), *argv],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return sorted(p.name for p in outdir.iterdir())


def test_scripts_write_every_file(tmp_path):
    coverage = _run("make_coverage_curves.py", tmp_path / "coverage",
                    "--trials", "1000")
    assert len(coverage) == 7 and all(f.endswith(".csv") for f in coverage)
    assert "coverage_skip-comp_ic_coherent.csv" in coverage
    throughput = _run("make_throughput_curves.py", tmp_path / "throughput")
    assert throughput == [f"throughput_lambda{lam}_d{d}.csv"
                          for lam in (50, 70) for d in (0.7, 2.0)]
