"""The kernels' working set is bounded by numerics.BLOCK_VALUES, and the trial
slices that bound it merge into the estimate of the unsliced trials."""

import tracemalloc

import pytest

from skipcomp import montecarlo, numerics, throughput
from skipcomp.model import ANALYTIC_VARIANTS, VARIANTS, NetworkParams
from skipcomp.montecarlo import (K_COND, MC_SE_NODES, SimulationSpec,
                                 empirical_coverage,
                                 empirical_spectral_efficiencies)

NET = NetworkParams(eta=3.5, noise_power=1e3)
GRID = [float(t) for t in range(-10, 21)]
COHERENT = VARIANTS[5]  # skip-comp+coh
MiB = 1 << 20

#: Most a run at batch_size 20,000 may trace above the same run at 2,000.
#: Unsliced batches traced +21 MiB (SE) and +7 MiB (coherent).
BATCH_MARGIN = 1 * MiB
#: Most the skip-comp analytic SE may trace: 24 blocks of BLOCK_VALUES
#: doubles.  With blocks of 2^16 values it traced 4.0-9.5 MiB.
ANALYTIC_SE_PEAK = 24 * 8 * numerics.BLOCK_VALUES


def forget_runs():
    montecarlo._DRAW_MEMO.clear()
    montecarlo._conditional_coverage.cache_clear()


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call from empty memos."""
    forget_runs()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


ESTIMATORS = {
    "se": lambda sim: empirical_spectral_efficiencies(NET, sim),
    "coherent": lambda sim: empirical_coverage(COHERENT, NET, sim, GRID),
    "coverage": lambda sim: empirical_coverage(ANALYTIC_VARIANTS[0], NET, sim, GRID),
}


@pytest.mark.parametrize("estimator", ["se", "coherent"])
def test_mc_peak_does_not_grow_with_batch_size(estimator):
    run = ESTIMATORS[estimator]
    run(SimulationSpec(trials=2000, seed=1))  # node and 2F1 caches
    peaks = [traced_peak(run, SimulationSpec(trials=20_000, seed=1,
                                             batch_size=size))
             for size in (2000, 20_000)]
    assert peaks[1] <= peaks[0] + BATCH_MARGIN, [p / MiB for p in peaks]


@pytest.mark.parametrize("eta,noise", [(4.0, 0.0), (4.0, 1e3), (3.5, 0.0),
                                       (3.5, 1e3)])
def test_analytic_se_peak_is_a_few_blocks(eta, noise):
    params = NetworkParams(eta=eta, noise_power=noise)
    scheme = ANALYTIC_VARIANTS[3]  # skip-comp: nodes over ln t, u and w
    throughput.spectral_efficiency(scheme, params)  # node caches
    peak = traced_peak(throughput.spectral_efficiency, scheme, params)
    assert peak <= ANALYTIC_SE_PEAK, peak / MiB


def unsliced(run, sim, monkeypatch):
    """run(sim) with every batch in one slice and one threshold block."""
    with monkeypatch.context() as m:
        m.setattr(numerics, "BLOCK_VALUES", 1 << 40)
        forget_runs()
        return run(sim)


def values(result):
    """The (value, CI) pairs of an estimator's result, flat."""
    if isinstance(result, dict):
        return [x for pair in result.values() for x in pair]
    return list(result.values) + list(result.ci_halfwidths)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_a_batch_longer_than_a_slice_merges_its_slices(estimator, monkeypatch):
    """Slices of 4,096 coverage trials or 682 SE trials, merged by the exact
    pairwise update, give the mean and CI of the batch's unsliced per-trial
    values to within rounding."""
    run = ESTIMATORS[estimator]
    sim = SimulationSpec(trials=10_000, seed=9, batch_size=9000)
    assert sim.batch_size > numerics.BLOCK_VALUES // K_COND
    whole = values(unsliced(run, sim, monkeypatch))
    forget_runs()
    sliced = values(run(sim))
    assert sliced == pytest.approx(whole, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_a_batch_no_longer_than_a_slice_keeps_its_bits(estimator, monkeypatch):
    run = ESTIMATORS[estimator]
    size = numerics.BLOCK_VALUES // (MC_SE_NODES if estimator == "se" else K_COND)
    sim = SimulationSpec(trials=2 * size + 7, seed=9, batch_size=size)
    whole = values(unsliced(run, sim, monkeypatch))
    forget_runs()
    assert values(run(sim)) == whole
