"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The shared 2e5-trial simulation comes from conftest; its first
100k samples are bit-identical to a standalone 100k run with the same seed
and batch size.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import integrate_ordered_3d
from skipcomp import checks, distances, montecarlo, throughput
from skipcomp import coverage as cov
from skipcomp.model import (
    ANALYTIC_VARIANTS,
    MobilityParams,
    NetworkParams,
    OverheadParams,
)

NET = NetworkParams(lambda_bs=70.0, eta=4.0, tx_power=1.0, noise_power=0.0,
                    bandwidth=1e7)
OVERHEAD = OverheadParams(u_conventional=0.3, u_skipping=0.15)

BEST, SKIP, SKIP_IC, COOP, COOP_IC = ANALYTIC_VARIANTS

FIVE_CASES = list(zip(ANALYTIC_VARIANTS, (1.49, 0.21, 0.66, 0.31, 1.01)))


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_table1_analytic():
    errs = {}
    for scheme, target in FIVE_CASES:
        se = throughput.spectral_efficiency(scheme, NET)
        errs[scheme.scheme_id] = abs(se - target)
    report("1 table1-analytic", all(e <= 0.03 for e in errs.values()),
           f"max err {max(errs.values()):.4f}")


def test_criterion_2_table1_monte_carlo(big_mc, table1_mc):
    # The estimator table1 prints, over big_mc's 2e5 trials, seed and batches.
    assert big_mc.spec.trials == 200_000
    errs = {}
    for scheme, target in FIVE_CASES:
        se, _ = table1_mc[scheme.scheme_id]
        errs[scheme.scheme_id] = abs(se - target)
    report("2 table1-mc", all(e <= 0.05 for e in errs.values()),
           f"max err {max(errs.values()):.4f}")


def test_criterion_3_skipping_averages():
    se = {s.scheme_id: throughput.spectral_efficiency(s, NET)
          for s, _ in FIVE_CASES}
    targets = {"skip": 0.85, "skip-comp": 0.90, "skip+ic": 1.08,
               "skip-comp+ic": 1.25}
    ok = True
    for key, target in targets.items():
        avg = throughput.skipping_avg_se(se["best"], se[key])
        # exact arithmetic mean of the criterion-1 values
        ok &= avg == (se["best"] + se[key]) / 2.0
        ok &= abs(avg - target) <= 0.03
    report("3 skipping-averages", ok)


def test_criterion_4_coverage_cross_validation(mc_100k):
    # Each variant from the estimator `coverage --mode mc` prints, the
    # conditional one, over 1e5 trials of mc_100k's spec, in its printed CIs.
    results = checks.mc_vs_analytic(NET, mc_100k.spec, range(-10, 21))
    worst = max(c.deviation for c in results)
    report("4 analytic-vs-mc", all(c.ok for c in results),
           f"max dev {worst:.2f} CIs at 1e5 trials "
           + " ".join(f"{c.name.removeprefix('mc_vs_analytic_')}:"
                      f"{c.deviation:.2f}" for c in results))


def test_criterion_5_eta4_closed_form_equivalence():
    results = checks.eta4_equivalence(NET)
    assert len(results) == 6
    worst = max(c.deviation for c in results)
    for t in checks.ETA4_THRESHOLDS:
        r2, r3 = 0.05, 0.08
        s = t / (r2 ** -4 + r3 ** -4)
        worst = max(worst, abs(
            cov.lt_i1_coop(s, r2, 4.0, 1.0)
            - cov.lt_i1_coop(s, r2, checks.ETA4_REFERENCE, 1.0)))
        worst = max(worst, abs(
            cov.lt_ir2_coop(s, r3, 70.0, 4.0, 1.0)
            - cov.lt_ir2_coop(s, r3, 70.0, checks.ETA4_REFERENCE, 1.0)))
    report("5 eta4-equivalence", worst <= checks.ETA4_EQUIVALENCE_TOL,
           f"max dev {worst:.2e}")


def test_criterion_6_best_connected_anchor():
    oracle = 1.0 / (1.0 + math.sqrt(1.0) * (math.pi / 2 - math.atan(1.0)))
    assert cov.best_connected_closed_form(1.0) == pytest.approx(oracle, rel=1e-15)
    c = checks.best_connected_anchor(NET.lambda_bs)
    report("6 best-connected-anchor", c.ok,
           f"deviation {c.deviation:.2e}, oracle {oracle:.6f}")


def test_criterion_7_throughput_gains():
    ses = throughput.scheme_spectral_efficiencies([BEST, COOP_IC], NET)
    se_best, se_coop = ses[BEST], ses[COOP_IC]
    gains = {}
    for v, target in ((80.0, 0.12), (100.0, 0.15), (160.0, 0.27)):
        mob = MobilityParams(velocity=v, ho_delay=0.7)
        at_b = throughput.average_throughput(BEST, NET, mob, OVERHEAD, se_best)
        at_c = throughput.average_throughput(COOP_IC, NET, mob, OVERHEAD, se_coop)
        gains[v] = (at_c.throughput_nats / at_b.throughput_nats - 1.0, target)
    ok = all(abs(g - t) <= 0.02 for g, t in gains.values())
    report("7 throughput-gains", ok,
           " ".join(f"v={v:.0f}:{g:.3f}(target {t})"
                    for v, (g, t) in gains.items()))


def test_criterion_8_precoding_benchmark(big_mc):
    def mix_gap(t_db, ic):
        # skipping-scheme coverage averages 50% best-connected time, where
        # precoding is irrelevant, so the mixture gap is half the blackout gap
        t = 10 ** (t_db / 10)
        coh = "skip-comp+ic+coh" if ic else "skip-comp+coh"
        ncoh = "skip-comp+ic" if ic else "skip-comp"
        return 0.5 * float((big_mc.sinr[coh] > t).mean()
                           - (big_mc.sinr[ncoh] > t).mean())

    window = np.arange(-5.0, 0.5, 1.0)
    gap_no_ic = float(np.mean([mix_gap(t, False) for t in window]))
    gap_ic = float(np.mean([mix_gap(t, True) for t in window]))
    level_ok = abs(gap_no_ic - 0.06) <= 0.02 and abs(gap_ic - 0.08) <= 0.02

    tail = np.arange(0.0, 22.5, 2.5)
    mono_ok = True
    for ic in (False, True):
        gaps = [mix_gap(t, ic) for t in tail]
        mono_ok &= all(b <= a + 1e-3 for a, b in zip(gaps, gaps[1:]))
        mono_ok &= gaps[-1] < 0.01
    report("8 precoding-benchmark", level_ok and mono_ok,
           f"gap noIC {gap_no_ic:.4f} (6pp), IC {gap_ic:.4f} (8pp), "
           f"monotone-to-zero {mono_ok}")


def test_criterion_9_property_suite(big_mc):
    results = {}

    # PDF normalizations
    for lam in (50.0, 70.0):
        for c in checks.pdf_normalization(lam):
            results[f"{c.name}_{lam}"] = c.ok
    results["norm_joint123"] = abs(integrate_ordered_3d(
        lambda x, y, z: distances.joint_pdf_r123(x, y, z, 25.0)) - 1) \
        <= checks.PDF_NORMALIZATION_TOL

    # marginal-consistency chain, 1e-8 pointwise
    lam, chain_ok = 50.0, True
    for y in (0.03, 0.06, 0.1, 0.15, 0.2):
        z = 1.5 * y
        got = integrate.quad(lambda x: distances.joint_pdf_r123(x, y, z, lam),
                             0, y, epsabs=1e-12, epsrel=1e-10)[0]
        chain_ok &= abs(got - distances.joint_pdf_r2_r3(y, z, lam)) < 1e-8 \
            * max(1.0, distances.joint_pdf_r2_r3(y, z, lam))
        got = integrate.quad(lambda zz: distances.joint_pdf_r2_r3(y, zz, lam),
                             y, np.inf, epsabs=1e-12, epsrel=1e-10)[0]
        chain_ok &= abs(got - distances.marginal_pdf_r2(y, lam)) < 1e-8 \
            * max(1.0, distances.marginal_pdf_r2(y, lam))
        ratio = distances.joint_pdf_r123(y / 2, y, z, lam) \
            / distances.joint_pdf_r2_r3(y, z, lam)
        chain_ok &= abs(ratio - distances.conditional_pdf_r1_given_r2(y / 2, y)) < 1e-8
    results["consistency_chain"] = chain_ok

    # coverage monotonicity and bounds
    grid_db = list(range(-10, 21, 3))
    for scheme, _ in FIVE_CASES:
        vals = cov.coverage_curve(scheme, NET, grid_db).values
        results[f"monotone_{scheme.scheme_id}"] = (
            all(0 <= v <= 1 for v in vals)
            and all(a >= b for a, b in zip(vals, vals[1:]))
        )

    # lambda invariance at sigma^2 = 0, 1e-6
    net_lo = NetworkParams(lambda_bs=10.0, eta=4.0)
    net_hi = NetworkParams(lambda_bs=100.0, eta=4.0)
    inv_ok = True
    for scheme, _ in FIVE_CASES:
        inv_ok &= abs(cov.coverage(scheme, net_lo, 1.0)
                      - cov.coverage(scheme, net_hi, 1.0)) < 1e-6
    results["lambda_invariance"] = inv_ok

    # sampler KS < 0.01 at 1e5 draws
    rng = np.random.Generator(np.random.Philox(key=[424242, 0]))
    draws = distances.sample_ordered_distances_array(50.0, rng, 100_000)
    scale = 1.0 / math.sqrt(2.0 * math.pi * 50.0)
    results["ks_r1"] = stats.kstest(
        draws[:, 0], stats.rayleigh(scale=scale).cdf).statistic < 0.01

    def r2_cdf(y):
        u = math.pi * 50.0 * np.asarray(y) ** 2
        return 1.0 - np.exp(-u) * (1.0 + u)

    results["ks_r2"] = stats.kstest(draws[:, 1], r2_cdf).statistic < 0.01

    # determinism under fixed seeds
    spec = montecarlo.SimulationSpec(trials=2000, seed=3, batch_size=500)
    a = montecarlo.simulate(NET, spec)
    b = montecarlo.simulate(NET, spec)
    results["mc_determinism"] = all(
        (a.sinr[k] == b.sinr[k]).all() for k in a.sinr)

    failed = [k for k, ok in results.items() if not ok]
    report("9 property-suite", not failed, f"failed: {failed}" if failed else "")
