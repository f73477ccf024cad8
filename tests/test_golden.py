"""CLI outputs must stay byte-identical to the files saved in tests/data.

Each case is one ``skipcomp`` command line; its output file is compared byte
for byte with ``tests/data/<name>``.  A change that alters the random stream
or the output format has to regenerate the affected files on purpose, naming
each case (no name regenerates them all):

    PYTHONPATH=src python tests/test_golden.py [NAME ...]
"""

import os
import sys

import pytest

from skipcomp.cli import EXIT_OK, main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
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


if __name__ == "__main__":
    for name in sys.argv[1:] or CASES:
        if main(CASES[name] + ["--out", os.path.join(DATA, name)]) != EXIT_OK:
            sys.exit(f"{name}: command failed")
        print(f"wrote {os.path.join(DATA, name)}")
