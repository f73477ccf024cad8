import math
from dataclasses import replace

import numpy as np
import pytest

from skipcomp import coverage as cov
from skipcomp.coverage import CoherentNotAnalytic
from skipcomp.model import (
    ANALYTIC_VARIANTS,
    Association,
    MobilityParams,
    NetworkParams,
    OverheadParams,
    SchemeSpec,
)
from skipcomp.throughput import (
    LN2,
    average_throughput,
    ho_cost,
    ho_rate,
    scheme_spectral_efficiencies,
    skipping_avg_se,
    spectral_efficiency,
    throughput_sweep,
)

NET = NetworkParams(lambda_bs=70.0, eta=4.0, bandwidth=1e7)
OVERHEAD = OverheadParams(u_conventional=0.3, u_skipping=0.15)

BEST, SKIP, SKIP_IC, COOP, COOP_IC = ANALYTIC_VARIANTS


# --------------------------------------------------------------------------
# Spectral efficiency
# --------------------------------------------------------------------------

TABLE = list(zip(ANALYTIC_VARIANTS, (1.49, 0.21, 0.66, 0.31, 1.01)))


@pytest.mark.parametrize("scheme,target", TABLE)
def test_spectral_efficiency_values(scheme, target):
    assert spectral_efficiency(scheme, NET) == pytest.approx(target, abs=0.03)


def test_spectral_efficiency_rejects_coherent():
    with pytest.raises(CoherentNotAnalytic):
        spectral_efficiency(SchemeSpec(Association.SKIP_COOP, coherent=True), NET)


@pytest.mark.parametrize("eta", [2.5, 4.0, 6.0])
@pytest.mark.parametrize("noise", [0.0, 1e3])
def test_se_on_half_the_u_nodes_equals_all_of_them(eta, noise, monkeypatch):
    # The SE integrates skip-comp's coverage on U_NODES // 2 nodes over
    # ln(r2/r3); with U_NODES doubled it takes all of the original ones.
    net = replace(NET, eta=eta, noise_power=noise)
    half = [spectral_efficiency(s, net) for s in ANALYTIC_VARIANTS]
    monkeypatch.setattr(cov, "U_NODES", 2 * cov.U_NODES)
    full = [spectral_efficiency(s, net) for s in ANALYTIC_VARIANTS]
    np.testing.assert_allclose(half, full, rtol=1e-12, atol=0.0)


def test_skipping_averages():
    assert skipping_avg_se(1.49, 0.21) == pytest.approx(0.85)
    assert skipping_avg_se(1.49, 0.31) == pytest.approx(0.90)
    assert skipping_avg_se(1.49, 1.01) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        skipping_avg_se(-0.1, 1.0)


def test_scheme_spectral_efficiency_is_phase_average():
    se_best = spectral_efficiency(BEST, NET)
    se_coop = spectral_efficiency(COOP_IC, NET)
    ses = scheme_spectral_efficiencies([COOP_IC, BEST], NET)
    assert ses[COOP_IC] == (se_best + se_coop) / 2
    assert ses[BEST] == se_best


# --------------------------------------------------------------------------
# Handover rate and cost
# --------------------------------------------------------------------------

def test_ho_rate_examples():
    assert ho_rate(0.0, 70.0) == 0.0
    assert ho_rate(100.0, 70.0) == pytest.approx(0.2959, abs=2e-4)
    assert ho_rate(100.0, 140.0) == pytest.approx(
        math.sqrt(2.0) * ho_rate(100.0, 70.0)
    )


def test_ho_cost_examples():
    assert ho_cost(BEST, 0.2959, 0.7) == pytest.approx(0.2071, abs=1e-4)
    assert ho_cost(COOP_IC, 0.2959, 0.7) == pytest.approx(0.1036, abs=1e-4)
    assert ho_cost(BEST, 0.5, 2.5) == 1.0  # saturation clamp


@pytest.mark.parametrize("call", [
    lambda: MobilityParams(velocity=math.nan),
    lambda: MobilityParams(ho_delay=math.nan),
    lambda: ho_rate(math.nan, 70.0),
    lambda: ho_cost(BEST, math.nan, 0.7),
    lambda: ho_cost(COOP_IC, 1.0, math.nan),
    lambda: skipping_avg_se(1.49, math.nan),
], ids=["velocity", "ho_delay", "ho_rate", "ho_cost-rate", "ho_cost-delay",
        "skipping_avg_se"])
def test_nan_input_raises(call):
    # min(1, rate*nan) is 1, which average_throughput prints as throughput 0.
    with pytest.raises(ValueError):
        call()


def test_saturated_cost_gives_zero_throughput():
    mob = MobilityParams(velocity=5000.0, ho_delay=2.5)
    point = average_throughput(BEST, NET, mob, OVERHEAD, se=1.49)
    assert point.ho_cost == 1.0
    assert point.throughput_nats == 0.0


# --------------------------------------------------------------------------
# Average throughput
# --------------------------------------------------------------------------

def test_average_throughput_arithmetic():
    mob = MobilityParams(velocity=100.0, ho_delay=0.7)
    point = average_throughput(BEST, NET, mob, OVERHEAD, se=1.49)
    expected = 1e7 * 1.49 * 0.7 * (1.0 - ho_cost(BEST, ho_rate(100, 70), 0.7))
    assert point.throughput_nats == pytest.approx(expected)
    assert point.throughput_nats == pytest.approx(8.27e6, rel=0.005)
    assert point.throughput_bits == pytest.approx(point.throughput_nats / LN2)


def test_gain_at_100kmh_matches_published_value():
    mob = MobilityParams(velocity=100.0, ho_delay=0.7)
    best = average_throughput(BEST, NET, mob, OVERHEAD, se=1.49)
    coop = average_throughput(COOP_IC, NET, mob, OVERHEAD, se=1.25)
    gain = coop.throughput_nats / best.throughput_nats - 1.0
    assert gain == pytest.approx(0.15, abs=0.02)


def test_gain_over_skipping_without_coop():
    mob = MobilityParams(velocity=100.0, ho_delay=0.7)
    skip = average_throughput(SKIP_IC, NET, mob, OVERHEAD, se=1.08)
    coop = average_throughput(COOP_IC, NET, mob, OVERHEAD, se=1.25)
    gain = coop.throughput_nats / skip.throughput_nats - 1.0
    assert gain == pytest.approx(0.17, abs=0.02)


def test_throughput_monotone_in_velocity_and_delay():
    se = 1.25
    t_prev = math.inf
    for v in (0, 40, 80, 120, 160):
        p = average_throughput(COOP_IC, NET, MobilityParams(v, 0.7), OVERHEAD, se)
        assert p.throughput_nats <= t_prev
        t_prev = p.throughput_nats
    p_short = average_throughput(COOP_IC, NET, MobilityParams(100, 0.7), OVERHEAD, se)
    p_long = average_throughput(COOP_IC, NET, MobilityParams(100, 2.0), OVERHEAD, se)
    assert p_long.throughput_nats < p_short.throughput_nats


def test_throughput_linear_in_bandwidth():
    wide = NetworkParams(lambda_bs=70.0, eta=4.0, bandwidth=2e7)
    mob = MobilityParams(100.0, 0.7)
    a = average_throughput(BEST, NET, mob, OVERHEAD, se=1.49).throughput_nats
    b = average_throughput(BEST, wide, mob, OVERHEAD, se=1.49).throughput_nats
    assert b == pytest.approx(2.0 * a)


def test_crossover_velocity_exists_for_skipping_without_coop():
    # Best connected wins at rest (lower SE of the skipping scheme dominates),
    # skipping wins at speed (halved HO cost dominates); single sign change.
    velocities = np.arange(0.0, 300.0, 5.0)
    points = throughput_sweep(NET, [BEST, SKIP_IC], velocities, [0.7], OVERHEAD)
    best = [p.throughput_nats for p in points if p.scheme == BEST]
    skip = [p.throughput_nats for p in points if p.scheme == SKIP_IC]
    diffs = np.array(skip) - np.array(best)
    assert diffs[0] < 0
    assert diffs[-1] > 0
    signs = np.sign(diffs)
    assert ((signs[:-1] < 0) & (signs[1:] > 0)).sum() == 1


def test_coop_ic_gain_over_best_grows_with_velocity():
    # With IC, cooperative skipping already edges out best connected at rest
    # (0.85 * 1.25 > 0.7 * 1.49) and the gain widens as HO cost bites.
    velocities = [0.0, 40.0, 80.0, 120.0, 160.0]
    points = throughput_sweep(NET, [BEST, COOP_IC], velocities, [0.7], OVERHEAD)
    best = [p.throughput_nats for p in points if p.scheme == BEST]
    coop = [p.throughput_nats for p in points if p.scheme == COOP_IC]
    gains = [c / b - 1.0 for b, c in zip(best, coop)]
    assert all(g > 0 for g in gains)
    assert all(a < b for a, b in zip(gains, gains[1:]))


def test_sweep_shape_and_velocity_zero_rows():
    points = throughput_sweep(NET, [BEST, SKIP_IC, COOP_IC], [0.0, 100.0],
                              [0.7, 2.0], OVERHEAD)
    assert len(points) == 3 * 2 * 2
    at_rest = [p for p in points if p.velocity == 0.0 and p.ho_delay == 0.7]
    best_at_rest = next(p for p in at_rest if p.scheme == BEST)
    skip_at_rest = next(p for p in at_rest if p.scheme == SKIP_IC)
    assert best_at_rest.throughput_nats > skip_at_rest.throughput_nats
