"""The experiment scripts run end to end and write every file they name."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))


def _run(script, outdir, *argv):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         "--outdir", str(outdir), *argv],
        env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return sorted(p.name for p in outdir.iterdir())


@pytest.fixture(scope="module")
def coverage_dir(tmp_path_factory):
    """make_coverage_curves.py's output at 1,000 trials: its seven variants
    run one after another in one process, on one seed."""
    outdir = tmp_path_factory.mktemp("scripts") / "coverage"
    _run("make_coverage_curves.py", outdir, "--trials", "1000")
    return outdir


def test_scripts_write_every_file(tmp_path, coverage_dir):
    coverage = sorted(p.name for p in coverage_dir.iterdir())
    assert len(coverage) == 7 and all(f.endswith(".csv") for f in coverage)
    assert "coverage_skip-comp_ic_coherent.csv" in coverage
    throughput = _run("make_throughput_curves.py", tmp_path / "throughput")
    assert throughput == [f"throughput_lambda{lam}_d{d}.csv"
                          for lam in (50, 70) for d in (0.7, 2.0)]


@pytest.mark.parametrize("name,flags,mode", [
    ("skip-comp", [], "both"),
    ("skip-comp_ic_coherent", ["--ic", "--coherent"], "mc"),
])
def test_coverage_script_writes_what_a_fresh_cli_run_writes(
        tmp_path, coverage_dir, name, flags, mode):
    """A variant the script runs after others on the same seed, reusing their
    Monte Carlo draws, has the bytes of a lone ``coverage`` command."""
    out = tmp_path / f"coverage_{name}.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "skipcomp", "coverage", "--scheme", "skip-comp",
         *flags, "--mode", mode, "--trials", "1000", "--seed", "12345",
         "--tmin-db", "-10", "--tmax-db", "20", "--tstep-db", "1",
         "--out", str(out)],
        env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert out.read_bytes() == (coverage_dir / out.name).read_bytes()
