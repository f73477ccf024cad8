"""CLI outputs must stay byte-identical to the files saved in tests/data.

Each case is one ``skipcomp`` command line; its output file is compared byte
for byte with ``tests/data/<name>``.  A change that alters the random stream
or the output format has to regenerate the affected files on purpose, naming
each case (no name regenerates them all):

    PYTHONPATH=src python tests/test_golden.py [NAME ...]
"""

import os
import subprocess
import sys

import pytest

from skipcomp.cli import EXIT_OK, main

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
CONFIG = os.path.join(DATA, "golden_config.json")
NOISY = os.path.join(DATA, "noisy_config.json")  # eta = 4, noise 1e3 W

CASES = {
    "table1.csv": ["table1", "--trials", "2000"],
    "coverage_skip-comp_ic.csv": [
        "coverage", "--scheme", "skip-comp", "--ic", "--mode", "both",
        "--trials", "2000", "--tstep-db", "5"],
    "throughput.csv": ["throughput", "--vstep", "50"],
    "throughput_no_ic.csv": [
        "throughput", "--no-ic", "--vstep", "100", "--delay", "0.5",
        "--delay", "1.0"],
    "distance.csv": ["distance", "--trials", "20"],
    "coverage_config.json": [
        "coverage", "--config", CONFIG, "--scheme", "skip-comp", "--mode",
        "both", "--tstep-db", "10", "--format", "json"],
    "throughput_config.json": [
        "throughput", "--config", CONFIG, "--vstep", "100", "--format", "json"],
    # General-eta and noisy analytic paths (quadrature, not closed form).
    "coverage_skip_eta3.5.csv": [
        "coverage", "--scheme", "skip", "--eta", "3.5", "--mode", "analytic",
        "--tstep-db", "10"],
    "coverage_skip-comp_eta3.5.csv": [
        "coverage", "--scheme", "skip-comp", "--eta", "3.5", "--mode",
        "analytic", "--tstep-db", "10"],
    "coverage_skip-comp_noisy.csv": [
        "coverage", "--config", NOISY, "--scheme", "skip-comp", "--mode",
        "analytic", "--tstep-db", "15"],
    "coverage_best_noisy.csv": [
        "coverage", "--config", NOISY, "--scheme", "best", "--mode",
        "analytic", "--tstep-db", "15"],
    "coverage_skip_noisy.csv": [
        "coverage", "--config", NOISY, "--scheme", "skip", "--mode",
        "analytic", "--tstep-db", "15"],
    "coverage_skip_ic_noisy.csv": [
        "coverage", "--config", NOISY, "--scheme", "skip", "--ic", "--mode",
        "analytic", "--tstep-db", "15"],
    "coverage_skip-comp_ic_noisy_eta3.5.csv": [
        "coverage", "--config", NOISY, "--scheme", "skip-comp", "--ic",
        "--eta", "3.5", "--mode", "analytic", "--tstep-db", "15"],
    # Conditional MC coverage; at eta = 3.5 its far-field tail is a 2F1.
    "coverage_skip.csv": [
        "coverage", "--scheme", "skip", "--mode", "both", "--trials", "2000",
        "--tstep-db", "5"],
    "coverage_skip_ic_noisy_eta3.5_mc.csv": [
        "coverage", "--config", NOISY, "--scheme", "skip", "--ic", "--eta",
        "3.5", "--mode", "mc", "--trials", "2000", "--tstep-db", "5"],
    # Coherent estimate: max(conditional coherent, conditional skip-comp).
    "coverage_skip-comp_coh_mc.csv": [
        "coverage", "--scheme", "skip-comp", "--coherent", "--mode", "mc",
        "--trials", "2000", "--tstep-db", "5"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_saved_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == EXIT_OK
    with open(os.path.join(DATA, name), "rb") as fh:
        assert out.read_bytes() == fh.read()


#: numpy SIMD dispatches other than the one it picks for the CPU, each as a
#: NPY_DISABLE_CPU_FEATURES value: AVX-512 off, and AVX2 off too (numpy's
#: X86_V2 baseline).  Each names only dispatch targets of numpy 2.4's x86-64
#: wheels; numpy ignores a target the CPU lacks.
DISPATCHES = {"no-avx512": "X86_V4 AVX512_ICL AVX512_SPR",
              "x86-v2": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}

#: Runs every case into the directory argv[1], after checking that the
#: disabled features are off; exits 1 if a case fails.
_RUN_CASES = """
import os, sys
from numpy._core._multiarray_umath import __cpu_features__
from test_golden import CASES
from skipcomp.cli import EXIT_OK, main
off = os.environ["NPY_DISABLE_CPU_FEATURES"].split()
assert not any(__cpu_features__.get(f) for f in off), __cpu_features__
sys.exit(any(main(argv + ["--out", os.path.join(sys.argv[1], name)]) != EXIT_OK
             for name, argv in CASES.items()))
"""


@pytest.mark.parametrize("disabled", DISPATCHES.values(), ids=DISPATCHES)
def test_saved_bytes_hold_at_other_simd_dispatches(disabled, tmp_path):
    """Every case, run in one fresh process with some of numpy's SIMD kernels
    turned off, writes the saved bytes: the output does not depend on which
    float64 kernels numpy picks for the CPU."""
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join(
                   [src, HERE, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _RUN_CASES, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    differ = []
    for name in sorted(CASES):
        with open(os.path.join(DATA, name), "rb") as fh:
            if (tmp_path / name).read_bytes() != fh.read():
                differ.append(name)
    assert differ == []


if __name__ == "__main__":
    for name in sys.argv[1:] or CASES:
        if main(CASES[name] + ["--out", os.path.join(DATA, name)]) != EXIT_OK:
            sys.exit(f"{name}: command failed")
        print(f"wrote {os.path.join(DATA, name)}")
