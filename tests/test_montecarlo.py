import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from skipcomp import montecarlo
from skipcomp.checks import ETA4_REFERENCE, MC_K_CI
from skipcomp.coverage import best_connected_closed_form, coverage_curve
from skipcomp.distances import sample_ordered_v
from skipcomp.model import (ANALYTIC_VARIANTS, VARIANTS, Association, NetworkParams,
                            SchemeSpec)
from skipcomp.numerics import agg_exponent
from skipcomp.montecarlo import (
    K_COND,
    SimulationSpec,
    binomial_ci,
    conditional_batches,
    coverage_from_result,
    empirical_coverage,
    empirical_spectral_efficiencies,
    simulate,
    spectral_efficiency_from_result,
    trial_coverage,
)

NET = NetworkParams(lambda_bs=70.0, eta=4.0)
COOP, COOP_IC = ANALYTIC_VARIANTS[3:]  # skip-comp, skip-comp+ic
COHERENT = (SchemeSpec(Association.SKIP_COOP, coherent=True),
            SchemeSpec(Association.SKIP_COOP, ic=True, coherent=True))


def rng(seed=0, batch=0):
    return np.random.Generator(np.random.Philox(key=[seed, batch]))


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


def test_window_bs_is_500_by_default_at_any_intensity(monkeypatch):
    """K does not go through a radius, so a raw trial draws the 500 nearest
    BSs even where sqrt(500/(pi*lambda)) underflows to 0."""
    drawn = []

    def recorded(g, n, k):
        drawn.append(k)
        return sample_ordered_v(g, n, k)

    monkeypatch.setattr(montecarlo, "sample_ordered_v", recorded)
    for lam in (1e-160, 70.0, 1e308):
        simulate(NetworkParams(lambda_bs=lam), SimulationSpec(trials=10))
    assert drawn == [500] * 3


# --------------------------------------------------------------------------
# Determinism and reproducibility
# --------------------------------------------------------------------------

def test_simulate_deterministic_given_seed():
    spec = SimulationSpec(trials=4000, seed=99, batch_size=1000)
    a = simulate(NET, spec)
    b = simulate(NET, spec)
    for k in a.sinr:
        assert (a.sinr[k] == b.sinr[k]).all()


#: trials=5000 in batches of 2000: three batches, the last one ragged.
THREE_BATCHES = SimulationSpec(trials=5000, seed=123, batch_size=2000)


# --------------------------------------------------------------------------
# Conditional draws kept across runs
# --------------------------------------------------------------------------

def count_draws(monkeypatch):
    """The batch indices whose streams are opened from now on."""
    drawn = []

    def recorded(seed, b):
        drawn.append(b)
        return rng(seed, b)

    monkeypatch.setattr(montecarlo, "_batch_rng", recorded)
    return drawn


def forget_runs():
    """Empty both memos a process keeps: the draws and the results."""
    montecarlo._DRAW_MEMO.clear()
    montecarlo._conditional_coverage.cache_clear()


def fresh(fn, *args):
    """fn(*args) from empty memos, as the first run of a process."""
    forget_runs()
    return fn(*args)


def memo_bytes():
    return sum(a.nbytes for draws in montecarlo._DRAW_MEMO.values() for a in draws)


#: Every conditional estimate of one run, keyed, coherent variants last; a
#: noisy eta 3.5 network shares the draws of the paper's point.
NOISY = NetworkParams(lambda_bs=10.0, eta=3.5, noise_power=1e3)
ESTIMATES = (
    [("table1", empirical_spectral_efficiencies, (NET,))]
    + [(s.scheme_id, empirical_coverage, (s, NET))
       for s in ANALYTIC_VARIANTS + COHERENT]
    + [("noisy-skip-comp", empirical_coverage, (COOP, NOISY))]
)


#: A run of one ragged batch and one of three, the last ragged, on one seed.
BATCHED_RUNS = {1: SimulationSpec(trials=1500, seed=123, batch_size=2000),
                3: THREE_BATCHES}


@pytest.mark.parametrize("coherent_first", [False, True], ids=["last", "first"])
@pytest.mark.parametrize("batches", [1, 3])
def test_kept_draws_give_every_estimate_of_a_fresh_run(batches, coherent_first,
                                                       monkeypatch):
    """table1's MC, the seven coverage variants and a noisy regime, run one
    after another on one seed in 1 or 3 batches, equal each one run from an
    empty memo bit for bit, and only the first run draws."""
    sim = BATCHED_RUNS[batches]
    estimates = ESTIMATES[::-1] if coherent_first else ESTIMATES
    grid = [-10.0, 0.0, 10.0, 20.0]

    def run(fn, args):
        return fn(*args, sim, *([grid] if fn is empirical_coverage else []))

    alone = {key: fresh(run, fn, args) for key, fn, args in estimates}
    forget_runs()
    drawn = count_draws(monkeypatch)
    assert {key: run(fn, args) for key, fn, args in estimates} == alone
    assert drawn == list(range(batches))


def test_run_longer_than_the_budget_keeps_only_its_first_batches(monkeypatch):
    """Batches past DRAW_MEMO_BYTES are drawn and not kept: a second run draws
    just those, and both equal a fresh run."""
    fit = montecarlo.DRAW_MEMO_BYTES // ((K_COND + 1) * 8 * 2000)  # full batches
    batches = fit + 4  # the last one of 1,000 trials
    sim = SimulationSpec(trials=batches * 2000 - 1000, seed=8, batch_size=2000)
    alone = fresh(empirical_coverage, COOP, NET, sim, [0.0, 10.0])
    forget_runs()
    drawn = count_draws(monkeypatch)
    for _ in range(2):
        montecarlo._conditional_coverage.cache_clear()  # the draws, not the result
        assert empirical_coverage(COOP, NET, sim, [0.0, 10.0]) == alone
        assert memo_bytes() <= montecarlo.DRAW_MEMO_BYTES
    assert len(montecarlo._DRAW_MEMO) == fit
    assert drawn == list(range(batches)) + list(range(fit, batches))


def test_shorter_run_reads_the_batches_it_shares(monkeypatch):
    """After a 3-batch run with a partial last batch, a 2-batch run reuses its
    full batches only: a partial batch is a batch of its own, whose U follows
    its own gaps."""
    long_run = SimulationSpec(trials=5000, seed=21, batch_size=2000)
    short = {n: SimulationSpec(trials=n, seed=21, batch_size=2000)
             for n in (3000, 4000)}
    alone = {n: fresh(empirical_coverage, COHERENT[0], NET, sim, [0.0, 10.0])
             for n, sim in short.items()}
    forget_runs()
    empirical_coverage(COHERENT[0], NET, long_run, [0.0, 10.0])
    drawn = count_draws(monkeypatch)
    for n, sim in short.items():
        assert empirical_coverage(COHERENT[0], NET, sim, [0.0, 10.0]) == alone[n]
    assert drawn == [1]  # batch 1 of 1,000 trials, for the 3,000-trial run


def test_interleaved_runs_on_two_seeds_equal_fresh_runs():
    """Two runs whose batches alternate, each on its own seed, drop each
    other's draws and still read only their own."""
    sims = [SimulationSpec(trials=5000, seed=s, batch_size=2000) for s in (1, 2)]
    t = np.array([1.0, 10.0])
    alone = [fresh(lambda sim: list(conditional_batches(COOP_IC, NET, sim, t)), sim)
             for sim in sims]
    montecarlo._DRAW_MEMO.clear()
    runs = [conditional_batches(COOP_IC, NET, sim, t) for sim in sims]
    together = [[], []]
    for _ in range(3):
        for out, run in zip(together, runs):
            out.append(next(run))
    for a, b in zip(together, alone):
        assert len(a) == len(b) and all(
            np.array_equal(x, y) for part, kept in zip(a, b)
            for x, y in zip(part, kept))
    assert {key[:2] for key in montecarlo._DRAW_MEMO} == {(2, 2000)}


def test_kept_draws_are_read_only():
    sim = SimulationSpec(trials=300, seed=4, batch_size=200)
    for v, u in montecarlo._conditional_draws(sim):
        for a in (v, u):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
    assert len(montecarlo._DRAW_MEMO) == 2
    for v, u in montecarlo._DRAW_MEMO.values():
        assert not (v.flags.writeable or u.flags.writeable)


# --------------------------------------------------------------------------
# Conditional results kept across runs
# --------------------------------------------------------------------------

def count_evaluations(monkeypatch):
    """The scheme ids the coverage kernel, ``_coverage_blocks``, is called
    for from now on: once per slice of trials."""
    evaluated = []
    unpatched = montecarlo._coverage_blocks

    def recorded(params, scheme, *args):
        evaluated.append(scheme.scheme_id)
        return unpatched(params, scheme, *args)

    monkeypatch.setattr(montecarlo, "_coverage_blocks", recorded)
    return evaluated


GRID = [-10.0, 0.0, 10.0, 20.0]


#: A run and, per field of the memo's key, a run that differs in it alone.
KEPT = (COOP, NetworkParams(lambda_bs=70.0, eta=3.5, noise_power=1e3),
        THREE_BATCHES, GRID)
ONE_FIELD_OFF = {
    "variant": (COOP_IC, *KEPT[1:]),
    "lambda": (COOP, replace(KEPT[1], lambda_bs=10.0), *KEPT[2:]),
    "eta": (COOP, replace(KEPT[1], eta=4.0), *KEPT[2:]),
    "noise": (COOP, replace(KEPT[1], noise_power=1e6), *KEPT[2:]),
    "seed": (*KEPT[:2], replace(THREE_BATCHES, seed=124), GRID),
    "trials": (*KEPT[:2], replace(THREE_BATCHES, trials=4000), GRID),
    "batch_size": (*KEPT[:2], replace(THREE_BATCHES, batch_size=2500), GRID),
    "thresholds": (*KEPT[:3], GRID[:-1] + [19.0]),
}


@pytest.mark.parametrize("field", ONE_FIELD_OFF)
def test_run_that_differs_in_one_key_field_is_computed(field, monkeypatch):
    """A run that differs from a kept one in one field evaluates its batches
    and equals its run from empty memos; the kept run itself is read."""
    args = ONE_FIELD_OFF[field]
    alone = fresh(empirical_coverage, *args)
    forget_runs()
    kept = empirical_coverage(*KEPT)
    evaluated = count_evaluations(monkeypatch)
    assert empirical_coverage(*KEPT) == kept
    assert evaluated == []
    assert empirical_coverage(*args) == alone
    assert evaluated == [args[0].scheme_id] * len(list(montecarlo._batches(args[2])))


def test_kept_results_are_read_only():
    mean, ci = montecarlo._conditional_coverage(COOP, NET, THREE_BATCHES,
                                                tuple(GRID))
    for a in (mean, ci):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


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


def test_spectral_efficiencies_match_table(table1_mc):
    """The estimator table1 prints, over big_mc's trials, seed and batches."""
    targets = {"best": 1.49, "skip": 0.21, "skip+ic": 0.66,
               "skip-comp": 0.31, "skip-comp+ic": 1.01}
    for scheme in ANALYTIC_VARIANTS:
        se, ci = table1_mc[scheme.scheme_id]
        assert se == pytest.approx(targets[scheme.scheme_id], abs=0.02)
        assert ci < 0.02


def test_mc_spectral_efficiency_agrees_with_raw_oracle(big_mc, table1_mc):
    """At eta 4 the raw K = 500 window's truncation is negligible, so its mean
    ln(1 + SINR) over simulated fading checks table1's estimator within 3
    combined CIs."""
    for scheme in ANALYTIC_VARIANTS:
        se, ci = table1_mc[scheme.scheme_id]
        raw, raw_ci = spectral_efficiency_from_result(big_mc, scheme)
        assert abs(se - raw) <= MC_K_CI * math.hypot(ci, raw_ci), scheme.scheme_id


@pytest.mark.parametrize("eta", [2.05, 2.5, 3.5, 4.0, 6.0])
def test_mc_spectral_efficiency_resolved_on_its_nodes(eta, monkeypatch):
    """On the same draws, MC_SE_NODES nodes per half of ln t agree with four
    times as many to 4e-4 relative, under 0.1 of the CI at 1e5 trials."""
    net = NetworkParams(lambda_bs=70.0, eta=eta)
    sim = SimulationSpec(trials=2000, seed=19)
    ses = empirical_spectral_efficiencies(net, sim)
    monkeypatch.setattr(montecarlo, "MC_SE_NODES", 4 * montecarlo.MC_SE_NODES)
    for scheme, (fine, _) in empirical_spectral_efficiencies(net, sim).items():
        assert ses[scheme][0] == pytest.approx(fine, rel=4e-4), scheme.scheme_id


@pytest.mark.parametrize("eta,noise", [(3.5, 1e3), (2.1, 0.0), (2.1, 1e3),
                                       (4.0, 0.0)])
def test_mc_spectral_efficiency_is_the_mean_of_per_trial_integrals(
        eta, noise, monkeypatch):
    """table1's MC SE is the mean over the conditional draws of each trial's
    int_0^inf P(SINR > t | geometry)/(1 + t) dt, with CI 1.96*sd/sqrt(n):
    against the same integrals on 512 nodes per half of ln t, each variant's
    from its own ``trial_coverage``.  No raw simulation runs."""
    def no_raw_run(*args):
        raise AssertionError("table1's estimator ran simulate")

    monkeypatch.setattr(montecarlo, "simulate", no_raw_run)
    net = NetworkParams(lambda_bs=70.0, eta=eta, noise_power=noise)
    sim = SimulationSpec(trials=300, seed=23, batch_size=200)
    x, w = np.polynomial.legendre.leggauss(512)
    halves = [(-40.0, 0.0), (0.0, 20.0 * net.eta)]
    t = np.exp(np.concatenate([lo + 0.5 * (hi - lo) * (x + 1.0)
                               for lo, hi in halves]))
    weights = np.concatenate([0.5 * (hi - lo) * w for lo, hi in halves]) \
        * t / (1.0 + t)
    for scheme, (se, ci) in empirical_spectral_efficiencies(net, sim).items():
        values = np.concatenate([weights @ trial_coverage(
            net, scheme, sample_ordered_v(rng(sim.seed, b), n, K_COND), t)
            for b, n in enumerate((200, 100))])
        assert se == pytest.approx(values.mean(), rel=1e-3), scheme.scheme_id
        assert ci == pytest.approx(
            1.96 * values.std(ddof=1) / math.sqrt(sim.trials), rel=0.05)


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
    k = montecarlo.K_RAW
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
    sinr = montecarlo._batch_sinrs(params, k, n, montecarlo._batch_rng(seed, 0))
    d2, p1, tail, h = replay_batch(params, seed, 0, n, k)
    for i in range(n):
        want = reference_sinrs(params, d2[i], p1[i], tail[i], h[i])
        for key, value in want.items():
            assert sinr[key][i] == pytest.approx(value, rel=1e-12), (key, i)


#: Per variant, from the paper's definitions (BSs numbered from 1, nearest
#: first): the first BS that interferes whatever the flags, every one after
#: it interfering too, and the skipped or second BS that interferes unless
#: IC cancels it (None when it is cancelled).  Best-connected is served by
#: BS 1, skipping by BS 2 and cooperative skipping by BSs 2 and 3 jointly,
#: coherently or not.
INTERFERERS = {
    "best": (3, 2),
    "skip": (3, 1),
    "skip+ic": (3, None),
    "skip-comp": (4, 1),
    "skip-comp+ic": (4, None),
    "skip-comp+coh": (4, 1),
    "skip-comp+ic+coh": (4, None),
}


@pytest.mark.parametrize("k", [3, K_COND])
@pytest.mark.parametrize("scheme", VARIANTS, ids=lambda s: s.scheme_id)
def test_interferers_follow_the_paper_definitions(scheme, k):
    """The one interferer rule: the BSs past the serving and near ones, in
    order, then the near BS unless cancelled; e.g. best BSs 3..k then 2,
    skip+ic BSs 3..k, skip-comp BSs 4..k then 1."""
    first, near = INTERFERERS[scheme.scheme_id]
    want = [*range(first, k + 1)] + ([] if near is None else [near])
    assert montecarlo._interferers(scheme, k) == [b - 1 for b in want]


def test_no_cancellation_when_nearest_bs_dominates():
    """With a tiny r1 the skip-comp+ic interference is still the tail beyond
    BS 3 to full precision: it is never formed as total - t1 - t2 - t3."""
    batches, n = 10, 2000
    result = simulate(NET, SimulationSpec(trials=batches * n, seed=7, batch_size=n))
    k = montecarlo.K_RAW
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
        assert abs(a - m) <= MC_K_CI * ci


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
        cond = empirical_coverage(scheme, net, sim, grid)
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


@pytest.mark.parametrize("scheme", VARIANTS, ids=lambda s: s.scheme_id)
@pytest.mark.parametrize("eta", [2.5, 4.0])
def test_noise_free_coverage_leaves_out_the_noise_term_bit_for_bit(eta, scheme):
    """Without noise ``trial_coverage`` skips the noise products; at 1e-200 W
    it computes them, nu nonzero but below the last bit of every term it
    meets, so both give the same bits."""
    v = sample_ordered_v(rng(6), 2000, K_COND)
    u = rng(7).random(2000) if scheme.coherent else None
    t = 10.0 ** (np.arange(-10.0, 31.0) / 10.0)
    quiet, faint = (NetworkParams(lambda_bs=70.0, eta=eta, noise_power=noise)
                    for noise in (0.0, 1e-200))
    assert montecarlo._gains(quiet, v)[1] == 0.0 < montecarlo._gains(faint, v)[1]
    assert np.array_equal(trial_coverage(quiet, scheme, v, t, u),
                          trial_coverage(faint, scheme, v, t, u))


@pytest.mark.parametrize("t_db", [-4000.0, 4000.0])
def test_estimators_refuse_a_db_threshold_without_a_linear_value(t_db):
    """10^-400 underflows to 0 and 10^400 overflows: both estimators, and the
    raw one, refuse such a threshold alike, through model.db_to_linear."""
    sim = SimulationSpec(trials=10, seed=1)
    with pytest.raises(ValueError, match="no positive finite linear value"):
        coverage_curve(ANALYTIC_VARIANTS[0], NET, [t_db])
    with pytest.raises(ValueError, match="no positive finite linear value"):
        empirical_coverage(ANALYTIC_VARIANTS[0], NET, sim, [t_db])
    with pytest.raises(ValueError, match="no positive finite linear value"):
        coverage_from_result(simulate(NET, sim), ANALYTIC_VARIANTS[0], [t_db])


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
            curve = empirical_coverage(scheme, net, sim, [-10.0, 10.0, 40.0])
            assert min(curve.ci_halfwidths) >= floor, scheme.scheme_id


def per_trial(scheme, net, sim, t):
    """Each batch's ``trial_coverage`` (thresholds, trials) on the run's
    conditional draws, in order."""
    return [trial_coverage(net, scheme, v, t, u)
            for v, u in montecarlo._conditional_draws(sim)]


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

    def no_raw_run(*args):
        raise AssertionError("the conditional path ran simulate")

    streams = []

    def recorded(seed, b):
        g = rng(seed, b)
        streams.append((b, g))
        return g

    monkeypatch.setattr(montecarlo, "simulate", no_raw_run)
    monkeypatch.setattr(montecarlo, "_batch_rng", recorded)
    parts = list(conditional_batches(scheme, net, sim, t))
    batches = per_trial(scheme, net, sim, t)  # on the kept draws
    assert [p.shape for p in batches] == [(3, 100), (3, 100), (3, 50)]
    # Each batch fits one slice: its moments are its whole array's, bit for bit.
    assert len(parts) == len(batches)
    for (total, m2, n), p in zip(parts, batches):
        assert n == p.shape[1]
        assert np.array_equal(total, p.sum(axis=1))
        assert np.array_equal(m2, p.var(axis=1) * n)
    assert [b for b, _ in streams] == [0, 1, 2]
    for (b, used), p in zip(streams, batches):
        replay = rng(sim.seed, b)
        d2 = np.cumsum(replay.standard_exponential((p.shape[1], K_COND)), axis=1) \
            / (math.pi * net.lambda_bs)
        replay.random(p.shape[1])  # the shares U, read by every batch
        # The batch consumed exactly these draws and nothing more.
        assert np.array_equal(used.random(4), replay.random(4))
        for j in range(p.shape[1]):
            for i, ti in enumerate(t):
                assert p[i, j] == pytest.approx(
                    reference_trial_coverage(net, scheme, d2[j], ti), rel=1e-10)

    montecarlo._DRAW_MEMO.clear()  # the prefix property, not the memo
    first_two = per_trial(
        scheme, net, SimulationSpec(trials=200, seed=17, batch_size=100), t)
    for a, b in zip(first_two, batches):
        assert np.array_equal(a, b)
    curve = empirical_coverage(scheme, net, sim, [-10.0, 0.0, 10.0])
    assert curve == fresh(empirical_coverage, scheme, net, sim, [-10.0, 0.0, 10.0])
    assert curve.values == pytest.approx(
        np.concatenate(batches, axis=1).mean(axis=1), rel=1e-12)


@pytest.mark.parametrize("scheme", [COOP, COOP_IC], ids=lambda s: s.scheme_id)
def test_conditional_cooperative_is_unbiased_at_eta_2_5(scheme):
    """At eta = 2.5 the raw K = 500 skip-comp reads ~0.06 high at -10 dB; the
    conditional estimate keeps every BS beyond the 4th in its tail.

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
        assert abs(a - m) <= MC_K_CI * ci, (a, m, ci)


@pytest.mark.parametrize("scheme", VARIANTS, ids=lambda s: s.scheme_id)
def test_tail_beyond_the_conditioned_bss_is_exact(scheme):
    """The PPP tail beyond the K-th BS is the mean over the BSs it stands
    for.  For one geometry of the K_COND = 4 nearest BSs (and one U), the
    mean ``trial_coverage`` of 20,000 continuations to BS 20, each v_4 plus
    cumulative Exp(1) gaps, equals ``trial_coverage`` of BSs 1-4 alone within
    5 SE, at eta 2.5, 4 and 6, noise-free and at 1e3 W, from -10 to 30 dB.
    BSs 1-3 lie well inside BS 4, so no cell rests on rare continuations,
    whose mean 20,000 draws cannot resolve."""
    near = np.array([[0.01, 0.03, 0.05, 0.2]])
    far = near[0, -1] + np.cumsum(rng(5).standard_exponential((20_000, 16)), axis=1)
    v = np.hstack([np.repeat(near, len(far), axis=0), far])
    t = 10.0 ** (np.arange(-10.0, 31.0, 5.0) / 10.0)
    u = np.full(len(v), 0.3) if scheme.coherent else None
    for eta in (2.5, 4.0, 6.0):
        for noise in (0.0, 1e3):
            net = NetworkParams(lambda_bs=70.0, eta=eta, noise_power=noise)
            exact = trial_coverage(net, scheme, near, t,
                                   None if u is None else u[:1])[:, 0]
            p = trial_coverage(net, scheme, v, t, u)
            se = p.std(axis=1, ddof=1) / math.sqrt(p.shape[1])
            # 1e-12 relative: the rounding of a cell near 1, whose SE is ~0.
            assert np.all(np.abs(p.mean(axis=1) - exact)
                          <= 5.0 * se + 1e-12 * exact), (eta, noise, exact)


# --------------------------------------------------------------------------
# Coherent estimate
# --------------------------------------------------------------------------

def test_tail_slope_identity():
    """x*c'(x) = (2/eta)(c(x) + x/(1 + x)) for c = agg_exponent, which the
    coherent factor uses for the PPP tail, against a central difference of
    the general 2F1 form."""
    x = np.logspace(-6.0, 4.0, 41)
    for eta in (2.05, 2.2, 2.5, 3.0, ETA4_REFERENCE, 6.0):
        def c(z):
            return agg_exponent(eta, z)

        h = 1e-5 * x
        slope = x * (c(x + h) - c(x - h)) / (2.0 * h)
        assert (2.0 / eta) * (c(x) + x / (1.0 + x)) == pytest.approx(
            slope, rel=1e-6), eta


@pytest.mark.parametrize("scheme", COHERENT, ids=lambda s: s.scheme_id)
def test_coherent_trial_coverage_matches_brute_force_fading(scheme):
    """One geometry of 20 BSs, the 20th so far (v_20 = 1e12) that it and the
    PPP beyond it shift the coverage by < 1e-8, so BSs 4-19 interfere under
    either IC: the mean of ``trial_coverage``, which takes any number of
    nearest BSs, over U on 4,000 midpoints against the share of 1e6 fading
    draws whose coherent SINR (|h_2| + |h_3|)^2 / (I + nu) exceeds T,
    within 5 SE."""
    net = NetworkParams(lambda_bs=70.0, eta=3.5, noise_power=1e3)
    v = sample_ordered_v(rng(21), 1, 20)[0]
    v[-1] = 1e12
    t = np.array([0.1, 0.3, 1.0])
    u = (np.arange(4000) + 0.5) / 4000
    exact = trial_coverage(net, scheme, np.tile(v, (len(u), 1)), t, u).mean(axis=1)

    gain, nu = montecarlo._gains(net, v)
    interferers = np.r_[gain[3:], gain[:1]] if not scheme.ic else gain[3:]
    g, n, covered = rng(22), 100_000, np.zeros(len(t))
    for _ in range(10):
        power = g.standard_exponential((n, 2 + len(interferers)))
        signal = (np.sqrt(gain[1] * power[:, 0])
                  + np.sqrt(gain[2] * power[:, 1])) ** 2
        noise = power[:, 2:] @ interferers + nu
        covered += [(signal > ti * noise).sum() for ti in t]
    share = covered / (10 * n)
    se = np.sqrt(share * (1.0 - share) / (10 * n))
    assert 0.01 < share.min() and share.max() < 0.99  # every T resolved
    assert np.all(np.abs(exact - share) <= 5.0 * se), (exact, share, se)


@pytest.mark.parametrize("scheme", COHERENT, ids=lambda s: s.scheme_id)
def test_coherent_matches_raw_reference_at_eta_4(scheme):
    """At eta 4 the raw K = 500 window misses under 3e-4 of the far
    interference, so its coherent share is a reference from simulated
    fading: within 3 combined CIs from -10 to 20 dB, noise-free and at
    1e3 W."""
    grid = list(range(-10, 21, 5))
    for noise in (0.0, 1e3):
        net = NetworkParams(lambda_bs=70.0, eta=4.0, noise_power=noise)
        coh = empirical_coverage(scheme, net, SimulationSpec(trials=20_000, seed=3),
                                 grid)
        raw = coverage_from_result(
            simulate(net, SimulationSpec(trials=20_000, seed=4)), scheme, grid)
        for c, cc, r, rc in zip(coh.values, coh.ci_halfwidths, raw.values,
                                raw.ci_halfwidths):
            assert abs(c - r) <= MC_K_CI * math.hypot(cc, rc), (noise, c, r)


@pytest.mark.parametrize("scheme", COHERENT, ids=lambda s: s.scheme_id)
def test_coherent_is_max_of_conditional_and_raw_share(scheme, monkeypatch):
    """Each value is the greater of the coherent and the non-coherent
    conditional mean at its threshold, by brute force over the per-trial
    probabilities, and the CI is the coherent per-trial CI.  Both parts read
    the same geometry, and no raw simulation runs."""
    def no_raw_run(*args):
        raise AssertionError("coverage ran simulate")

    monkeypatch.setattr(montecarlo, "simulate", no_raw_run)
    net = NetworkParams(lambda_bs=70.0, eta=3.5, noise_power=1e3)
    sim = SimulationSpec(trials=600, seed=31, batch_size=250)
    grid = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 40.0]
    t = 10.0 ** (np.array(grid) / 10.0)
    base = SchemeSpec(Association.SKIP_COOP, ic=scheme.ic)
    curve = empirical_coverage(scheme, net, sim, grid)
    coh = np.concatenate(per_trial(scheme, net, sim, t), axis=1)
    nc = np.concatenate(per_trial(base, net, sim, t), axis=1)
    for b, start in enumerate(range(0, sim.trials, sim.batch_size)):
        g = rng(sim.seed, b)
        n = min(sim.batch_size, sim.trials - start)
        v = sample_ordered_v(g, n, K_COND)
        cols = slice(start, start + n)
        assert np.array_equal(trial_coverage(net, base, v, t), nc[:, cols])
        assert np.array_equal(trial_coverage(net, scheme, v, t, g.random(n)),
                              coh[:, cols])
    assert ((coh >= 0.0) & (coh <= 1.0)).all()
    for i in range(len(grid)):
        p = coh[i]
        ci = 1.96 * math.sqrt(max(p.var(ddof=1), 1.0 / sim.trials) / sim.trials)
        assert curve.values[i] == pytest.approx(max(p.mean(), nc[i].mean()),
                                                rel=1e-12)
        assert curve.ci_halfwidths[i] == pytest.approx(ci, rel=1e-9)
    assert curve.ci_halfwidths[-1] >= 1.96 / sim.trials


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


def test_coherent_never_below_non_coherent_and_never_rising():
    """On a 0.5 dB grid the printed curve never rises and is never below
    non-coherent, in any threshold order."""
    sim = SimulationSpec(trials=2000, seed=9)
    grid = list(np.arange(-40.0, 41.0, 0.5))
    for eta in (2.5, 4.0):
        net = NetworkParams(lambda_bs=70.0, eta=eta)
        for scheme in COHERENT:
            base = SchemeSpec(Association.SKIP_COOP, ic=scheme.ic)
            coh = empirical_coverage(scheme, net, sim, grid).values
            nc = empirical_coverage(base, net, sim, grid).values
            assert all(c >= b for c, b in zip(coh, nc)), (eta, scheme.scheme_id)
            assert all(0.0 <= c <= 1.0 for c in coh)
            assert all(b <= a for a, b in zip(coh, coh[1:]))
            shuffled = grid[::-1]
            assert empirical_coverage(scheme, net, sim, shuffled).values \
                == pytest.approx(coh[::-1], rel=1e-15)
