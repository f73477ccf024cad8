import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from skipcomp import montecarlo
from skipcomp.coverage import best_connected_closed_form, coverage_curve
from skipcomp.distances import sample_ordered_v
from skipcomp.model import ANALYTIC_VARIANTS, Association, NetworkParams, SchemeSpec
from skipcomp.montecarlo import (
    COOP_BLOCK,
    K_COND,
    SimulationSpec,
    binomial_ci,
    coherent_coverage,
    conditional_batches,
    conditional_coverage,
    coverage_from_result,
    default_window_radius,
    empirical_coverage,
    simulate,
    spectral_efficiency_from_result,
    trial_coverage,
)

NET = NetworkParams(lambda_bs=70.0, eta=4.0)
COOP, COOP_IC = ANALYTIC_VARIANTS[3:]  # skip-comp, skip-comp+ic
COHERENT = (SchemeSpec(Association.SKIP_COOP, coherent=True),
            SchemeSpec(Association.SKIP_COOP, ic=True, coherent=True))


def rng(seed=0, batch=0, block=0):
    return np.random.Generator(np.random.Philox(key=[seed, batch],
                                                counter=[0, 0, block, 0]))


# --------------------------------------------------------------------------
# PPP sampling
# --------------------------------------------------------------------------

def test_ppp_squared_distance_gaps_are_exponential():
    """Squared distances of a planar PPP form a 1-D PPP of rate pi*lambda, so
    v = pi*lambda*r^2 has Exp(1) gaps."""
    v = sample_ordered_v(rng(11), 200, 50)
    gaps = np.diff(v, axis=1, prepend=0.0).ravel()
    stat = stats.kstest(gaps, stats.expon().cdf).statistic
    assert stat < 0.015


def test_ppp_nearest_distance_matches_rayleigh():
    lam = 50.0
    v = sample_ordered_v(montecarlo._batch_rng(12, 0), 20_000, K_COND)
    nearest = np.sqrt(v[:, 0] / (math.pi * lam))
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


def every_estimate(spec):
    """The raw SINRs and the conditional curves of one run."""
    raw = simulate(NET, spec)
    curves = [empirical_coverage(s, NET, spec, [-10.0, 0.0, 10.0, 20.0])
              for s in ANALYTIC_VARIANTS + COHERENT]
    return raw, [(c.values, c.ci_halfwidths) for c in curves]


@pytest.mark.parametrize("workers", [None, 3], ids=["default", "3"])
def test_threaded_batches_equal_serial_bit_for_bit(workers, monkeypatch):
    """trials=5000 in batches of 2000: three batches, the last one ragged."""
    spec = SimulationSpec(trials=5000, seed=123, batch_size=2000)
    if workers is not None:
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
    threaded_raw, threaded_curves = every_estimate(spec)

    def no_pool(*args):
        raise AssertionError("a one-CPU run opened a thread pool")

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    serial_raw, serial_curves = every_estimate(spec)
    assert threaded_raw.sinr.keys() == serial_raw.sinr.keys()
    for key, sinr in serial_raw.sinr.items():
        assert np.array_equal(threaded_raw.sinr[key], sinr), key
    assert threaded_curves == serial_curves


def test_batch_sinrs_hold_one_n_by_k_array():
    n, k = 2000, 500
    g = rng(1)
    tracemalloc.start()
    try:
        montecarlo._batch_sinrs(NetworkParams(), k, n, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * k * 8


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
        rx = sample_ordered_v(g, trials, 2 * k) ** (-eta / 2) \
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
    """The draws of batch `batch`, in the order the module docstring states,
    with the squared distances in km^2."""
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


# --------------------------------------------------------------------------
# Conditional estimator (every non-coherent variant)
# --------------------------------------------------------------------------

def test_conditional_best_connected_is_unbiased_at_eta_2_5():
    """The raw K = 500 window leaves out enough far interference at eta = 2.5
    to read ~0.06 high; the conditional estimator's tail includes all of it."""
    net = NetworkParams(lambda_bs=10.0, eta=2.5)
    grid = list(range(-10, 21))
    best = SchemeSpec(Association.BEST_CONNECTED)
    mc = empirical_coverage(best, net, SimulationSpec(trials=20_000, seed=2025),
                            grid)
    analytic = coverage_curve(best, net, grid).values
    for a, m, ci in zip(analytic, mc.values, mc.ci_halfwidths):
        assert abs(a - m) <= 3.0 * ci


@pytest.mark.parametrize("eta", [4.0, 6.0])
def test_conditional_agrees_with_raw_indicator(eta):
    """Independent of agg_exponent: the raw estimator simulates fading and
    ignores the BSs beyond the 500th, which at eta >= 4 cost under 3e-4.
    The grid keeps every variant above ~200 covered raw trials, where the
    raw binomial CI is not degenerate."""
    net = NetworkParams(lambda_bs=70.0, eta=eta)
    grid = [-10, -5, 0, 5]
    sim = SimulationSpec(trials=20_000, seed=8)
    raw = simulate(net, sim)
    for scheme in ANALYTIC_VARIANTS:
        cond = conditional_coverage(scheme, net, sim, grid)
        ind = coverage_from_result(raw, scheme, grid)
        for c, cc, i, ci in zip(cond.values, cond.ci_halfwidths, ind.values,
                                ind.ci_halfwidths):
            assert abs(c - i) <= cc + ci, (scheme.scheme_id, c, i)


def test_conditional_ic_dominates_and_curves_fall_per_trial():
    net = NetworkParams(lambda_bs=70.0, eta=3.5, noise_power=1e3)
    v = sample_ordered_v(rng(3), 2000, K_COND)
    t = 10.0 ** (np.arange(-10.0, 41.0) / 10.0)
    best, skip, skip_ic, coop, coop_ic = (trial_coverage(net, s, v, t)
                                          for s in ANALYTIC_VARIANTS)
    assert (skip_ic >= skip).all()
    assert (coop_ic >= coop).all()
    # Joint transmission adds BS 3 to the signal and removes it as interferer.
    assert (coop >= skip).all()
    assert (coop_ic >= skip_ic).all()
    for p in (best, skip, skip_ic, coop, coop_ic):
        assert ((p >= 0.0) & (p <= 1.0)).all()
        assert (np.diff(p, axis=0) <= 0.0).all()
        assert (np.diff(p.mean(axis=1)) <= 0.0).all()


def test_conditional_probability_underflows_to_zero_without_raising():
    net = NetworkParams(lambda_bs=70.0, eta=4.0, noise_power=1e3)
    v = sample_ordered_v(rng(4), 100, K_COND)
    for scheme in ANALYTIC_VARIANTS:
        assert (trial_coverage(net, scheme, v, np.array([1e300])) == 0.0).all()


def test_conditional_ci_is_at_least_one_trial():
    """Each per-trial probability lies in [0, 1], so a run of n trials cannot
    resolve a mean below ~1/n: the CI is floored at the one-trial binomial
    CI 1.96/n, also where every probability is 0 (noise nu = inf at lambda
    1e-100) or heavy-tailed (eta 2.5 at 40 dB)."""
    sim = SimulationSpec(trials=500, seed=3, batch_size=200)
    floor = binomial_ci(0.0, sim.trials)
    assert floor == pytest.approx(1.96 / sim.trials, rel=1e-15)
    for net in (NetworkParams(lambda_bs=1e-100, noise_power=1e3),
                NetworkParams(eta=2.5)):
        for scheme in ANALYTIC_VARIANTS:
            curve = conditional_coverage(scheme, net, sim, [-10.0, 10.0, 40.0])
            assert min(curve.ci_halfwidths) >= floor, scheme.scheme_id


def reference_trial_coverage(params, scheme, d2, t):
    """One trial's conditional coverage at linear threshold t, given its
    squared distances d2 in km^2, from the formula: a log1p sum over the
    interferers among the K nearest BSs, the noise and the PPP tail beyond
    the K-th, with scipy's 2F1.  Non-coherent
    joint transmission from BSs 2 and 3 is received with gain g2 + g3."""
    eta, p = params.eta, params.tx_power
    gain = [p * x ** (-eta / 2.0) for x in d2]
    serving = {Association.BEST_CONNECTED: {0}, Association.SKIP_NO_COOP: {1},
               Association.SKIP_COOP: {1, 2}}[scheme.association]
    cancelled = {0} if scheme.ic else set()
    s = t / math.fsum(gain[i] for i in serving)
    x = s * gain[-1]
    tail = 2.0 * x / (eta - 2.0) * special.hyp2f1(
        1.0, 1.0 - 2.0 / eta, 2.0 - 2.0 / eta, -x)
    return math.exp(-math.fsum(math.log1p(s * g) for i, g in enumerate(gain)
                               if i not in serving and i not in cancelled)
                    - s * params.noise_power
                    - math.pi * params.lambda_bs * d2[-1] * tail)


@pytest.mark.parametrize("scheme", ANALYTIC_VARIANTS, ids=lambda s: s.scheme_id)
def test_conditional_batches_draw_only_the_nearest_distances(scheme, monkeypatch):
    net = NetworkParams(lambda_bs=70.0, eta=3.5, noise_power=1e3)
    sim = SimulationSpec(trials=250, seed=17, batch_size=100)
    t = np.array([0.1, 1.0, 10.0])
    block = COOP_BLOCK if scheme.association is Association.SKIP_COOP else 0

    def no_raw_run(*args):
        raise AssertionError("the conditional path ran simulate")

    streams = []

    def recorded(seed, b, block=0):
        g = rng(seed, b, block)
        streams.append((b, g))
        return g

    monkeypatch.setattr(montecarlo, "simulate", no_raw_run)
    monkeypatch.setattr(montecarlo, "_batch_rng", recorded)
    batches = list(conditional_batches(scheme, net, sim, t))
    assert [p.shape for p in batches] == [(3, 100), (3, 100), (3, 50)]
    for (b, used), p in zip(streams, batches):
        replay = rng(sim.seed, b, block)
        d2 = np.cumsum(replay.standard_exponential((p.shape[1], K_COND)), axis=1) \
            / (math.pi * net.lambda_bs)
        # The batch consumed exactly these draws and nothing more.
        assert np.array_equal(used.random(4), replay.random(4))
        for j in range(p.shape[1]):
            for i, ti in enumerate(t):
                assert p[i, j] == pytest.approx(
                    reference_trial_coverage(net, scheme, d2[j], ti), rel=1e-10)

    first_two = list(conditional_batches(
        scheme, net, SimulationSpec(trials=200, seed=17, batch_size=100), t))
    for a, b in zip(first_two, batches):
        assert np.array_equal(a, b)
    curve = empirical_coverage(scheme, net, sim, [-10.0, 0.0, 10.0])
    assert curve == empirical_coverage(scheme, net, sim, [-10.0, 0.0, 10.0])
    assert curve.values == pytest.approx(
        np.concatenate(batches, axis=1).mean(axis=1), rel=1e-12)


@pytest.mark.parametrize("scheme", [COOP, COOP_IC], ids=lambda s: s.scheme_id)
def test_conditional_cooperative_is_unbiased_at_eta_2_5(scheme):
    """At eta = 2.5 the raw K = 500 skip-comp reads ~0.06 high at -10 dB; the
    conditional estimate keeps every BS beyond the 20th in its tail.

    Above ~15 dB the per-trial probabilities are heavy-tailed and the printed
    1.96*sd/sqrt(n) understates the error, so the CI is floored at the
    binomial one of the larger of the two values, as the benchmark's checks
    do.  At -10 dB three such CIs are ~0.02, a third of the raw bias.
    """
    net = NetworkParams(lambda_bs=70.0, eta=2.5)
    grid = list(range(-10, 21, 2))
    sim = SimulationSpec(trials=20_000, seed=2026)
    mc = empirical_coverage(scheme, net, sim, grid)
    analytic = coverage_curve(scheme, net, grid).values
    for a, m, ci in zip(analytic, mc.values, mc.ci_halfwidths):
        ci = max(ci, binomial_ci(max(a, m), sim.trials))
        assert abs(a - m) <= 3.0 * ci, (a, m, ci)


# --------------------------------------------------------------------------
# Paired coherent estimate
# --------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", COHERENT, ids=lambda s: s.scheme_id)
def test_coherent_is_least_conditional_plus_raw_excess(scheme):
    """Each value is the least of C(x) + E(x) over every x <= T, by brute
    force: at T, and just below each rise of the excess E, a raw trial's
    non-coherent SINR where coherent is higher."""
    net = NetworkParams(lambda_bs=70.0, eta=3.5, noise_power=1e3)
    sim = SimulationSpec(trials=600, seed=31, batch_size=250)
    grid = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 40.0]
    base = SchemeSpec(Association.SKIP_COOP, ic=scheme.ic)
    coh = empirical_coverage(scheme, net, sim, grid)
    cond = empirical_coverage(base, net, sim, grid)
    raw = simulate(net, sim)
    nc, co = raw.sinr[base.scheme_id], raw.sinr[scheme.scheme_id]
    rises = np.unique(nc[nc < co])
    just_below = np.concatenate(list(conditional_batches(base, net, sim, rises)),
                                axis=1).mean(axis=1) \
        + [float(((nc < b) & (co >= b)).mean()) for b in rises]
    lowered = 0
    for i, t_db in enumerate(grid):
        t = 10.0 ** (t_db / 10.0)
        excess = float(((co > t) & (nc <= t)).mean())
        at_t = cond.values[i] + excess
        least = min(at_t, just_below[rises <= t].min(initial=np.inf))
        assert coh.values[i] == pytest.approx(min(least, 1.0), rel=1e-12)
        assert coh.values[i] >= cond.values[i]
        lowered += least < at_t
        assert coh.ci_halfwidths[i] == pytest.approx(math.hypot(
            cond.ci_halfwidths[i], binomial_ci(excess, sim.trials)), rel=1e-12)
    assert lowered > 0
    # No raw trial is covered at 40 dB: the excess still gets a CI.
    assert coh.ci_halfwidths[-1] >= 1.96 / sim.trials


def test_coherent_cell_does_not_depend_on_the_grid():
    """A cell's value and CI are the same in every grid that holds its
    threshold: a 0.5 dB grid, coarse ones, single thresholds, any order."""
    sim = SimulationSpec(trials=2000, seed=9)
    grids = ([-10.0, 0.0, 10.0], [5.0], [15.0, -7.5, 2.5], [-0.5],
             list(np.arange(-10.0, 20.5, 5.0)))
    for eta in (2.5, 4.0):
        net = NetworkParams(lambda_bs=70.0, eta=eta)
        for scheme in COHERENT:
            fine = empirical_coverage(scheme, net, sim,
                                      list(np.arange(-20.0, 20.5, 0.5)))
            cells = dict(zip(fine.thresholds_db,
                             zip(fine.values, fine.ci_halfwidths)))
            for grid in grids:
                curve = empirical_coverage(scheme, net, sim, grid)
                assert list(zip(curve.values, curve.ci_halfwidths)) == \
                    [cells[t] for t in grid], (eta, scheme.scheme_id, grid)


def test_coherent_parts_read_disjoint_stream_words(monkeypatch):
    """The raw excess reads counter block 0 of each batch's Philox stream and
    the conditional part starts 2^128 words later, so no word is shared."""
    sim = SimulationSpec(trials=2500, seed=5, batch_size=1000)
    used = []

    def recorded(seed, b, block=0):
        g = rng(seed, b, block)
        used.append((b, block, g))
        return g

    monkeypatch.setattr(montecarlo, "_batch_rng", recorded)
    coherent_coverage(COHERENT[0], NET, sim, [0.0])
    assert sorted((b, block) for b, block, _ in used) == \
        [(b, block) for b in range(3) for block in (0, COOP_BLOCK)]
    for b, block, g in used:
        counter = [int(c) for c in g.bit_generator.state["state"]["counter"]]
        # Each stream read fewer than 2^64 blocks past its start.
        assert counter[1:] == [0, block, 0], (b, block, counter)
        assert counter[0] > 0


def test_coherent_never_below_non_coherent_and_never_rising():
    """The excess rises by 1/n steps where the conditional part falls by
    less; here the sums rise between neighbouring thresholds, the printed
    curve does not, in any threshold order."""
    sim = SimulationSpec(trials=2000, seed=9)
    grid = list(np.arange(-40.0, 41.0, 0.5))
    rising = 0
    for eta in (2.5, 4.0):
        net = NetworkParams(lambda_bs=70.0, eta=eta)
        raw = simulate(net, sim)
        for scheme in COHERENT:
            base = SchemeSpec(Association.SKIP_COOP, ic=scheme.ic)
            coh = empirical_coverage(scheme, net, sim, grid).values
            nc = empirical_coverage(base, net, sim, grid).values
            assert all(c >= b for c, b in zip(coh, nc)), (eta, scheme.scheme_id)
            assert all(0.0 <= c <= 1.0 for c in coh)
            assert all(b <= a for a, b in zip(coh, coh[1:]))
            sums = [b + float(((raw.sinr[scheme.scheme_id] > x)
                               & (raw.sinr[base.scheme_id] <= x)).mean())
                    for b, x in zip(nc, 10.0 ** (np.array(grid) / 10.0))]
            rising += sum(b > a for a, b in zip(sums, sums[1:]))
            shuffled = grid[::-1]
            assert empirical_coverage(scheme, net, sim, shuffled).values \
                == pytest.approx(coh[::-1], rel=1e-15)
    assert rising > 0
