#!/usr/bin/env python3
"""Emit the coverage-probability curve data for every scheme variant.

Writes one CSV per variant (analytic + Monte Carlo columns, coherent
variants MC-only) into the output directory.  The non-IC and IC families
correspond to the two coverage figures of the study this reproduces.
"""

import argparse
import os
import sys

from skipcomp.cli import main as cli_main
from skipcomp.model import VARIANTS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="out/coverage")
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    for variant in VARIANTS:
        scheme = variant.association.value
        flags = ["--ic"] * variant.ic + ["--coherent"] * variant.coherent
        mode = "mc" if variant.coherent else "both"
        tag = scheme + "".join(f.replace("--", "_") for f in flags)
        out = os.path.join(args.outdir, f"coverage_{tag}.csv")
        code = cli_main([
            "coverage", "--scheme", scheme, *flags, "--mode", mode,
            "--trials", str(args.trials), "--seed", str(args.seed),
            "--tmin-db", "-10", "--tmax-db", "20", "--tstep-db", "1",
            "--out", out,
        ])
        if code != 0:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
