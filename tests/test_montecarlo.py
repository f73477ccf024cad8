import math

import numpy as np
import pytest
from scipy import stats

from skipcomp.coverage import best_connected_closed_form, coverage_curve
from skipcomp.distances import sample_ordered_squared_distances
from skipcomp.model import ANALYTIC_VARIANTS, Association, NetworkParams, SchemeSpec
from skipcomp.montecarlo import (
    SimulationSpec,
    coverage_from_result,
    default_window_radius,
    simulate,
    spectral_efficiency_from_result,
)

NET = NetworkParams(lambda_bs=70.0, eta=4.0)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


# --------------------------------------------------------------------------
# PPP sampling
# --------------------------------------------------------------------------

def test_ppp_squared_distance_gaps_are_exponential():
    """Squared distances of a planar PPP form a 1-D PPP of rate pi*lambda."""
    lam = 50.0
    d2 = sample_ordered_squared_distances(lam, rng(11), 200, 50)
    gaps = np.diff(d2, axis=1, prepend=0.0).ravel()
    stat = stats.kstest(gaps, stats.expon(scale=1.0 / (math.pi * lam)).cdf).statistic
    assert stat < 0.015


def test_ppp_nearest_distance_matches_rayleigh():
    lam = 50.0
    spec = SimulationSpec(trials=20_000, seed=12, window_radius=1.0)
    nearest = simulate(NetworkParams(lambda_bs=lam, eta=4.0), spec).distances[:, 0]
    scale = 1.0 / math.sqrt(2.0 * math.pi * lam)
    stat = stats.kstest(nearest, stats.rayleigh(scale=scale).cdf).statistic
    assert stat < 0.015


def test_default_window_radius_sizes_for_500_points():
    r = default_window_radius(70.0)
    assert 70.0 * math.pi * r * r == pytest.approx(500.0)


def test_simulation_spec_rejects_tiny_window():
    spec = SimulationSpec(trials=10, window_radius=0.05)
    with pytest.raises(ValueError):
        spec.radius_for(70.0)


# --------------------------------------------------------------------------
# Determinism and reproducibility
# --------------------------------------------------------------------------

def test_simulate_deterministic_given_seed():
    spec = SimulationSpec(trials=4000, seed=99, batch_size=1000)
    a = simulate(NET, spec)
    b = simulate(NET, spec)
    for k in a.sinr:
        assert (a.sinr[k] == b.sinr[k]).all()
    assert (a.distances == b.distances).all()


def test_different_seeds_differ():
    a = simulate(NET, SimulationSpec(trials=1000, seed=1))
    b = simulate(NET, SimulationSpec(trials=1000, seed=2))
    assert not (a.sinr["best"] == b.sinr["best"]).any()


def test_batch_size_changes_stream_but_not_distribution():
    spec_a = SimulationSpec(trials=40_000, seed=5, batch_size=1000)
    spec_b = SimulationSpec(trials=40_000, seed=6, batch_size=4000)
    ca = coverage_from_result(simulate(NET, spec_a),
                              SchemeSpec(Association.BEST_CONNECTED), [0.0])
    cb = coverage_from_result(simulate(NET, spec_b),
                              SchemeSpec(Association.BEST_CONNECTED), [0.0])
    assert abs(ca.values[0] - cb.values[0]) < ca.ci_halfwidths[0] \
        + cb.ci_halfwidths[0]


# --------------------------------------------------------------------------
# Pointwise SINR structure (paired draws)
# --------------------------------------------------------------------------

def test_coherent_dominates_non_coherent_pointwise(big_mc):
    assert (big_mc.sinr["skip-comp+coh"] >= big_mc.sinr["skip-comp"] - 1e-12).all()
    assert (big_mc.sinr["skip-comp+ic+coh"]
            >= big_mc.sinr["skip-comp+ic"] - 1e-12).all()


def test_ic_dominates_pointwise(big_mc):
    assert (big_mc.sinr["skip+ic"] >= big_mc.sinr["skip"]).all()
    assert (big_mc.sinr["skip-comp+ic"] >= big_mc.sinr["skip-comp"]).all()


def test_all_sinr_nonnegative(big_mc):
    for k, v in big_mc.sinr.items():
        assert (v >= 0).all(), k
    assert (big_mc.distances[:, 0] <= big_mc.distances[:, 1]).all()
    assert (big_mc.distances[:, 1] <= big_mc.distances[:, 2]).all()


# --------------------------------------------------------------------------
# Agreement with analytics
# --------------------------------------------------------------------------

def test_best_connected_coverage_anchor(big_mc):
    curve = coverage_from_result(big_mc, SchemeSpec(Association.BEST_CONNECTED),
                                 [0.0])
    assert curve.values[0] == pytest.approx(best_connected_closed_form(1.0),
                                            abs=0.005)


def test_coop_beats_nocoop_empirically(big_mc):
    a = coverage_from_result(big_mc, SchemeSpec(Association.SKIP_COOP, ic=True),
                             [0.0]).values[0]
    b = coverage_from_result(big_mc, SchemeSpec(Association.SKIP_NO_COOP, ic=True),
                             [0.0]).values[0]
    assert a - b > 0


def test_spectral_efficiencies_match_table(big_mc):
    targets = {"best": 1.49, "skip": 0.21, "skip+ic": 0.66,
               "skip-comp": 0.31, "skip-comp+ic": 1.01}
    for scheme in ANALYTIC_VARIANTS:
        se, ci = spectral_efficiency_from_result(big_mc, scheme)
        assert se == pytest.approx(targets[scheme.scheme_id], abs=0.02)
        assert ci < 0.02


def test_mc_curve_tracks_analytic_curve(big_mc):
    grid = [-10, -5, 0, 5, 10, 15, 20]
    for scheme in (SchemeSpec(Association.BEST_CONNECTED),
                   SchemeSpec(Association.SKIP_COOP, ic=True)):
        mc = coverage_from_result(big_mc, scheme, grid)
        analytic = coverage_curve(scheme, NET, grid)
        for a, m in zip(analytic.values, mc.values):
            assert abs(a - m) <= 0.01


def test_window_truncation_negligible():
    """Doubling K changes best-connected coverage by < 0.3 pp.

    Paired estimate: same realizations of the 2K nearest BSs, interference
    summed over BSs 2..K and over BSs 2..2K.
    """
    lam, eta = NET.lambda_bs, NET.eta
    k = round(lam * math.pi * default_window_radius(lam) ** 2)
    trials = 5000
    deltas = []
    for t_db in (-10.0, 0.0, 10.0):
        t = 10 ** (t_db / 10)
        g = rng(int(t_db) + 100)
        rx = sample_ordered_squared_distances(lam, g, trials, 2 * k) ** (-eta / 2) \
            * g.exponential(1.0, (trials, 2 * k))
        sig = rx[:, 0]
        covered_full = (sig / rx[:, 1:].sum(axis=1) > t).sum()
        covered_trunc = (sig / rx[:, 1:k].sum(axis=1) > t).sum()
        deltas.append(abs(covered_full - covered_trunc) / trials)
    assert max(deltas) < 0.003


# --------------------------------------------------------------------------
# SINR formulas against a per-trial reference
# --------------------------------------------------------------------------

def replay_batch(params, seed, batch, n, k):
    """The draws of batch `batch`, in the order the module docstring states."""
    g = np.random.Generator(np.random.Philox(key=[seed, batch]))
    d2 = np.cumsum(g.standard_exponential((n, k)), axis=1) \
        / (math.pi * params.lambda_bs)
    p1 = g.standard_exponential(n)
    tail = g.standard_exponential((n, k - 3))
    h = g.standard_normal((n, 2)) + 1j * g.standard_normal((n, 2))
    return d2, p1, tail, h / math.sqrt(2.0)


def reference_sinrs(params, d2, p1, tail, h):
    """Every variant's SINR for one trial: signal over the fsum of the received
    powers of all BSs that neither serve nor are cancelled."""
    p, eta = params.tx_power, params.eta
    gain = [p * x ** (-eta / 2.0) for x in d2]
    a2, a3 = h[0] * math.sqrt(gain[1]), h[1] * math.sqrt(gain[2])
    rx = [p1 * gain[0], abs(a2) ** 2, abs(a3) ** 2] \
        + [w * x for w, x in zip(tail, gain[3:])]

    def interference(*excluded):
        return math.fsum(v for i, v in enumerate(rx) if i not in excluded) \
            + params.noise_power

    coop, coh = abs(a2 + a3) ** 2, (abs(a2) + abs(a3)) ** 2
    return {
        "best": rx[0] / interference(0),
        "skip": rx[1] / interference(1),
        "skip+ic": rx[1] / interference(0, 1),
        "skip-comp": coop / interference(1, 2),
        "skip-comp+ic": coop / interference(0, 1, 2),
        "skip-comp+coh": coh / interference(1, 2),
        "skip-comp+ic+coh": coh / interference(0, 1, 2),
    }


@pytest.mark.parametrize("eta,noise", [(4.0, 0.0), (3.5, 1e3)])
def test_batch_sinrs_match_per_trial_reference(eta, noise):
    params = NetworkParams(lambda_bs=70.0, eta=eta, noise_power=noise)
    k, n, seed = 120, 300, 41
    spec = SimulationSpec(trials=n, seed=seed, batch_size=n,
                          window_radius=math.sqrt(k / (math.pi * params.lambda_bs)))
    result = simulate(params, spec)
    d2, p1, tail, h = replay_batch(params, seed, 0, n, k)
    assert result.redraws == 0
    np.testing.assert_allclose(result.distances, np.sqrt(d2[:, :3]), rtol=1e-12)
    for i in range(n):
        want = reference_sinrs(params, d2[i], p1[i], tail[i], h[i])
        for key, value in want.items():
            assert result.sinr[key][i] == pytest.approx(value, rel=1e-12), (key, i)


def test_no_cancellation_when_nearest_bs_dominates():
    """With a tiny r1 the skip-comp+ic interference is still the tail beyond
    BS 3 to full precision: it is never formed as total - t1 - t2 - t3."""
    batches, n = 10, 2000
    result = simulate(NET, SimulationSpec(trials=batches * n, seed=7, batch_size=n))
    k = round(NET.lambda_bs * math.pi * default_window_radius(NET.lambda_bs) ** 2)
    for b in range(batches):
        d2, p1, tail, h = replay_batch(NET, 7, b, n, k)
        gain = NET.tx_power * d2 ** (-NET.eta / 2)
        for i in np.argsort(d2[:, 0])[:3]:
            t1 = p1[i] * gain[i, 0]
            want = math.fsum(tail[i] * gain[i, 3:])
            assert t1 > 1e4 * want  # the nearest BS dominates by far
            coop = abs(h[i, 0] * math.sqrt(gain[i, 1])
                       + h[i, 1] * math.sqrt(gain[i, 2])) ** 2
            interference = coop / result.sinr["skip-comp+ic"][b * n + i]
            assert interference == pytest.approx(want, rel=1e-12)
