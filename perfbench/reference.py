#!/usr/bin/env python3
"""Generate the analytic reference values the benchmark checks outputs against.

Run from the repository root:

    python3 perfbench/reference.py

It writes ``perfbench/reference.json``: every analytic value a workload's
checks need, computed once with the library at the current commit (recorded
with its git SHA), and for every regime-mc regime a large Monte Carlo run
that measures the bias of the simulator against the analytic value.  A
regime whose bias is significant is recorded as a known defect with its bias
bound; a regime whose analytic value fails is recorded with the error.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import context  # noqa: E402
import workloads as wl  # noqa: E402
from checks import ci_halfwidth  # noqa: E402

#: Trials of the Monte Carlo run that measures each regime's bias.
BIAS_TRIALS = 100_000
BIAS_SEED = 20160712
#: Multiple of the 95% CI half-width used by every Monte Carlo check.
K_CI = 3.0


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from skipcomp import coverage as cov
    from skipcomp import montecarlo, throughput
    from skipcomp.model import Association, NetworkParams, SchemeSpec

    schemes = {
        "best": SchemeSpec(Association.BEST_CONNECTED),
        "skip": SchemeSpec(Association.SKIP_NO_COOP),
        "skip+ic": SchemeSpec(Association.SKIP_NO_COOP, ic=True),
        "skip-comp": SchemeSpec(Association.SKIP_COOP),
        "skip-comp+ic": SchemeSpec(Association.SKIP_COOP, ic=True),
    }
    values = {}
    defects = []

    def curve(sid, net, grid):
        return list(cov.coverage_curve(schemes[sid], net, wl.thresholds(grid)).values)

    def timed(key, fn):
        t0 = time.perf_counter()
        try:
            values[key] = fn()
        except Exception as exc:  # recorded as a defect of that regime
            values[key] = {"error": f"{type(exc).__name__}: {exc}"}
        print(f"{key}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)

    paper = NetworkParams()
    timed("paper-mc/table1", lambda: {
        sid: throughput.spectral_efficiency(s, paper) for sid, s in schemes.items()})
    for sid in schemes:
        timed(f"paper-mc/{sid}", lambda sid=sid: curve(sid, paper, wl.FULL_GRID))

    for lam, eta in wl.SWEEP_PAIRS:
        net = NetworkParams(lambda_bs=lam, eta=eta)
        timed(wl.sweep_key(lam, eta, 0.0, "se"), lambda net=net: {
            sid: throughput.spectral_efficiency(s, net)
            for sid, s in schemes.items()})
        for sid in schemes:
            timed(wl.sweep_key(lam, eta, 0.0, sid),
                  lambda sid=sid, net=net: curve(sid, net, wl.FULL_GRID))
    for eta, tgrid in wl.NOISY_JOBS:
        net = NetworkParams(eta=eta, noise_power=wl.SWEEP_NOISE)
        for sid in schemes:
            timed(wl.noisy_key(eta, sid, tgrid),
                  lambda sid=sid, net=net, tgrid=tgrid: curve(sid, net, tgrid))

    thresholds = wl.thresholds(wl.REGIME_GRID)
    bias = {}
    for r in wl.regime_jobs():
        lam, eta, noise, sid = r["lam"], r["eta"], r["noise"], r["sid"]
        key = wl.regime_key(lam, eta, noise, sid)
        net = NetworkParams(lambda_bs=lam, eta=eta, noise_power=noise)
        timed(key, lambda sid=sid, net=net: curve(sid, net, wl.REGIME_GRID))
        sim = montecarlo.SimulationSpec(trials=BIAS_TRIALS, seed=BIAS_SEED)
        mc = montecarlo.coverage_from_result(
            montecarlo.simulate(net, sim), schemes[sid], thresholds).values
        ref = values[key]
        if isinstance(ref, dict):
            defects.append({
                "id": "analytic-failure", "regime": key, "detail": ref["error"],
            })
            continue
        dev = [m - a for m, a in zip(mc, ref)]
        # Deviation beyond what the bias run's own noise explains.
        band = [K_CI * ci_halfwidth(m, a, BIAS_TRIALS) for m, a in zip(mc, ref)]
        excess = [abs(d) - b for d, b in zip(dev, band)]
        bias[key] = {"mc": mc, "deviation": dev}
        if max(excess) > 0.0:
            bound = max(abs(d) + b for d, b in zip(dev, band))
            defects.append({
                "id": "mc-window-truncation-bias", "regime": key,
                "max_abs_deviation": max(abs(d) for d in dev),
                "bias_bound": bound,
            })

    out = {
        "generated_by": "python3 perfbench/reference.py",
        "context": context.collect(ROOT),
        "k_ci": K_CI,
        "bias_trials": BIAS_TRIALS,
        "bias_seed": BIAS_SEED,
        "values": values,
        "bias_runs": bias,
        "defects": defects,
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
