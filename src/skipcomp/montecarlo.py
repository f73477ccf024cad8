"""Monte Carlo oracle: the nearest BSs of a PPP, Rayleigh fading, per-scheme SINR.

Geometry.  Squared distances from the origin to a planar PPP of intensity
lambda form a 1-D PPP of rate pi*lambda, so each trial draws v = pi*lambda*r^2
of its nearest BSs exactly, already sorted, as cumulative sums of Exp(1) gaps
(``distances.sample_ordered_v``).  A BS's gain is v^(-eta/2) and the noise
nu = sigma^2/(P*(pi*lambda)^(eta/2)) (``_gains``), which leaves every SINR
as it is in km and watts: lambda enters only through nu, so noise-free output
is the same at every lambda.

Two estimators share that generator.

* Conditional (every printed coverage cell, ``empirical_coverage``): a trial
  draws only the K_COND = 4 nearest BSs and no fading, the fewest that leave
  every variant a BS beyond its serving and near BSs.  Under Rayleigh
  fading the coverage given the geometry is a product of Laplace transforms
  (Andrews, Baccelli and Ganti, 2011): L(s) = prod 1/(1 + s*g_i) over the
  interferers among BSs 1..K_COND, times exp(-v_K * agg_exponent(eta, s*g_K)),
  the PPP Laplace functional of every BS beyond the K-th (Haenggi, 2012), with
  g_i = v_i^(-eta/2) and s = T/S; the coverage is exp(-s*nu)*L(s).  The
  serving gain S is g_1 (best), g_2 (skip) or g_2 + g_3 (skip-comp: the
  non-coherent joint signal |h_2 + h_3|^2 is exponential with that mean;
  Tanbourgi et al., 2014).  The interferers, in both estimators, are those of
  ``_interferers``: the BSs past the serving and near ones, then the near BS
  (BS 2 for best, else BS 1) unless IC cancels it.  The coherent joint signal
  (|h_2| + |h_3|)^2 is W*c(U) with W ~ Gamma(2) and U ~ U(0, 1) independent,
  c(U) = (sqrt(g_2*U) + sqrt(g_3*(1-U)))^2, so a coherent trial also draws U
  and takes S = c(U); as P(W > w) = (1 + w)e^-w,
  its coverage is exp(-s*nu)*L(s) times 1 + s*nu + sum y_i/(1 + y_i)
  + v_K*y_K*c'(y_K), y_i = s*g_i (``trial_coverage``).  The estimate is the
  trial mean of these probabilities and its CI half-width 1.96*sd/sqrt(n), the
  variance floored at one trial as in ``binomial_ci``; it has no truncation
  bias at any eta > 2.  A coherent cell is the greater of the coherent and the
  non-coherent mean on the same draws, with the coherent CI: coherent covers
  whatever non-coherent covers, so the max drops only a coherent mean that
  reads below the non-coherent one.  ``table1`` prints the trial mean of
  E[ln(1 + SINR)] = int_0^inf S/(1 + zS) L(z) dz, L the transform of the
  interference plus noise (Hamdi, IEEE Trans. Commun. 58(2), 2010), with its
  sample CI: a spectral efficiency is not a probability.  Past BS 2, L is
  skip+ic's coverage at t = z*g_2 for all five variants.
* Raw (the tests' brute-force oracle, run by no CLI command; the benchmark's
  tracer wraps ``simulate`` and the two ``*_from_result`` by name): a trial
  draws the K_RAW = 500 nearest BSs and their fading, and the estimate is the
  share of trials whose SINR exceeds T.  BSs beyond the K-th are ignored, a
  bias without bound as eta -> 2.  BSs 2 and 3 get complex Gaussian gains,
  which the coherent and non-coherent CoMP numerators need; every other BS
  gets an Exp(1) power.  ``SERVING`` names each variant's signal; its
  interference is a sum of non-negative terms (its ``_interferers`` among BSs
  1-3, then the tail beyond BS 3), never a difference, so a dominant nearest
  BS cannot cancel the tail.  One realization serves every variant.

Randomness contract: trials are processed in fixed-size batches; batch b of a
run with seed s (0 <= s < 2^63) uses an independent Philox counter-based
stream keyed by (s, b), read from counter 0.  A raw batch reads, in order, the
(n, K) distance gaps, the n powers of BS 1, the (n, K-3) tail powers and the
(n, 2) real then imaginary parts of the gains of BSs 2 and 3.  A conditional
batch reads the (n, K_COND) distance gaps, then the n shares U, which only
the coherent variants use, so both coherent parts see the same geometry.
Identical (seed, trials, batch_size, params) therefore reproduce results
bit-exactly, the first k batches of a run equal a k-batch run, and batches
are independent by construction.

A conditional batch's draws depend on (seed, b, n) alone, not on lambda, eta,
noise or the variant, so every run on a seed shares them, and by the prefix
property above a shorter run on the same (seed, batch_size) reads the first
batches of a longer one.  ``_conditional_draws`` keys them by (seed,
batch_size, b, n), n because a run's last batch may be partial and its U
follows its own n gaps, and keeps the batches of the last (seed, batch_size)
as read-only arrays up to DRAW_MEMO_BYTES (4 MiB: 40 B a trial, 52 batches
of 2,000); later batches are drawn and not kept, and a new (seed,
batch_size) drops the old ones.  The budget bounds the memory a process
keeps: a default 100k-trial run's draws take 4.0e6 B and fit it, and a lone
non-coherent run draws each batch once whatever the budget.
``_conditional_coverage`` keeps the read-only (mean, CI) of the process's
last 32 conditional runs, keyed by (scheme, params, sim, thresholds in dB),
so a coherent run takes its non-coherent floor from the non-coherent run
before it instead of evaluating it again.

Every estimator runs its batches on the calling thread and reduces them in
order: two threads gained nothing on 2 vCPUs (table1's MC at 5k trials: 23
ms on one, 24 ms on two; the seven coverage variants: 51 ms, 71 ms) and
their interleaved temporaries lifted the heap's top.  A gain that overflows
or turns subnormal, as at eta in the hundreds, raises FloatingPointError in
the batch that meets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import throughput
from .coverage import CoverageCurve
from .distances import sample_ordered_v
from .model import (ANALYTIC_VARIANTS, VARIANTS, Association, NetworkParams,
                    SchemeSpec, db_to_linear)
from .numerics import agg_exponent, legendre_chunks

K_COND = 4  # nearest BSs a conditional trial draws; the rest is the exact tail
K_RAW = 500  # nearest BSs a raw trial draws; the rest is ignored
MC_SE_NODES = 24  # Gauss-Legendre nodes per half of a trial's SE integral
BLOCK_VALUES = 1 << 14  # (threshold, trial) values per trial_coverage block


@dataclass(frozen=True)
class SimulationSpec:
    trials: int = 100_000
    seed: int = 12345
    batch_size: int = 2000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be in [0, 2^63), got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class SimulationResult:
    """Per-variant SINR arrays from a shared set of realizations."""

    sinr: Dict[str, np.ndarray]
    spec: SimulationSpec


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Batch ``batch_index``'s stream."""
    return np.random.Generator(np.random.Philox(key=[seed, batch_index]))


def _batches(spec: SimulationSpec) -> Iterator[Tuple[int, int]]:
    """(index, trial count) of each batch of a run, in order."""
    for b, start in enumerate(range(0, spec.trials, spec.batch_size)):
        yield b, min(spec.batch_size, spec.trials - start)


#: Bytes of conditional draws kept for later runs: 52 batches of 2,000.
DRAW_MEMO_BYTES = 4 << 20
#: (seed, batch_size, b, n) -> the read-only (v, U) of that batch, all of one
#: (seed, batch_size); filled and emptied by ``_conditional_draws`` alone.
_DRAW_MEMO: Dict[Tuple[int, int, int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _conditional_draws(sim: SimulationSpec
                       ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Each batch's read-only (v, U) of the conditional estimator, in order:
    v of its K_COND nearest BSs, shape (n, K_COND), and its n shares U.  A
    batch not in ``_DRAW_MEMO`` is drawn and kept while the memo holds at most
    DRAW_MEMO_BYTES; a batch of another (seed, batch_size) first empties it."""
    for b, n in _batches(sim):
        key = (sim.seed, sim.batch_size, b, n)
        draws = _DRAW_MEMO.get(key)
        if draws is None:
            rng = _batch_rng(sim.seed, b)
            draws = sample_ordered_v(rng, n, K_COND), rng.random(n)
            for a in draws:
                a.flags.writeable = False
            if any(k[:2] != key[:2] for k in _DRAW_MEMO):
                _DRAW_MEMO.clear()
            held = sum(a.nbytes for kept in _DRAW_MEMO.values() for a in kept)
            if held + sum(a.nbytes for a in draws) <= DRAW_MEMO_BYTES:
                _DRAW_MEMO[key] = draws
        yield draws


#: Per association: the serving BSs (0-based, among the nearest) and the BS
#: that interferes unless cancelled by IC; every BS after these interferes.
SERVING = {
    Association.BEST_CONNECTED: ((0,), 1),
    Association.SKIP_NO_COOP: ((1,), 0),
    Association.SKIP_COOP: ((1, 2), 0),
}


def _interferers(scheme: SchemeSpec, k: int) -> List[int]:
    """The interfering BSs among the k nearest (0-based), the one interferer
    rule of both estimators: those past the serving and near BSs, then the
    near BS unless IC cancels it."""
    serving, near = SERVING[scheme.association]
    far = list(range(max(*serving, near) + 1, k))
    return far if scheme.ic else far + [near]


def _gains(params: NetworkParams, v: np.ndarray) -> Tuple[np.ndarray, float]:
    """Gains v^(-eta/2) of the BSs at v = pi*lambda*r^2, and the noise in the
    same unit, nu = sigma^2/(P*(pi*lambda)^(eta/2)), formed in log space: 0
    exactly without noise, inf (coverage 0) where it overflows.  A gain that
    overflows or turns subnormal raises FloatingPointError."""
    with np.errstate(over="raise", under="raise", invalid="raise"):
        gain = np.power(v, -0.5 * params.eta)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):  # log 0
        nu = np.exp(np.log(params.noise_power) - np.log(params.tx_power)
                    - 0.5 * params.eta * np.log(math.pi * params.lambda_bs))
    return gain, float(nu)


def _batch_sinrs(params: NetworkParams, k: int, n: int,
                 rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """SINRs of all variants for n independent realizations of the K nearest
    BSs.  A received power that overflows raises FloatingPointError; an SINR
    that overflows is inf, which is covered at every threshold."""
    gain, nu = _gains(params, sample_ordered_v(rng, n, k))
    with np.errstate(over="raise"):
        t1 = gain[:, 0] * rng.standard_exponential(n)
        tail = np.einsum("ij,ij->i", gain[:, 3:], rng.standard_exponential((n, k - 3)))
        h = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) \
            * np.sqrt(0.5 * gain[:, 1:3])  # received amplitudes of BSs 2 and 3
        rx = (t1, *(np.abs(h) ** 2).T)  # received powers of BSs 1-3
        # Joint transmission from BSs 2 and 3, non-coherent and coherent.
        joint = {False: np.abs(h.sum(axis=1)) ** 2, True: np.abs(h).sum(axis=1) ** 2}
        parts = {}
        for s in VARIANTS:
            serving, _ = SERVING[s.association]
            signal = rx[serving[0]] if len(serving) == 1 else joint[s.coherent]
            parts[s.scheme_id] = signal, sum(
                [rx[i] for i in _interferers(s, 3)] + [tail, nu])
    with np.errstate(over="ignore"):
        return {key: signal / den for key, (signal, den) in parts.items()}


def simulate(params: NetworkParams, spec: SimulationSpec) -> SimulationResult:
    """Run the full raw simulation; one shared pass covers every scheme variant."""
    batches = [_batch_sinrs(params, K_RAW, n, _batch_rng(spec.seed, b))
               for b, n in _batches(spec)]
    return SimulationResult(
        sinr={s.scheme_id: np.concatenate([sinr[s.scheme_id] for sinr in batches])
              for s in VARIANTS},
        spec=spec,
    )


def coverage_from_result(result: SimulationResult, scheme: SchemeSpec,
                         thresholds_db: Sequence[float]) -> CoverageCurve:
    """Raw coverage curve with 95% CI half-widths (``binomial_ci``: the
    variance floored at one trial, so a share of 0 or 1 gets a nonzero CI)."""
    sinr = result.sinr[scheme.scheme_id]
    values = [float((sinr > db_to_linear(t_db)).mean()) for t_db in thresholds_db]
    return CoverageCurve(
        thresholds_db=tuple(thresholds_db), values=tuple(values),
        ci_halfwidths=tuple(binomial_ci(p, len(sinr)) for p in values),
    )


def binomial_ci(phat: float, n: int) -> float:
    """95% CI half-width of a share phat of n trials, its variance floored at
    one trial."""
    return 1.96 * math.sqrt(max(phat * (1.0 - phat), 1.0 / n) / n)


def trial_coverage(params: NetworkParams, scheme: SchemeSpec, v: np.ndarray,
                   thresholds: np.ndarray,
                   u: Optional[np.ndarray] = None) -> np.ndarray:
    """Each trial's coverage probability given v = pi*lambda*r^2 of its K
    nearest BSs (shape (n, K), ascending), at each linear threshold, shared
    (shape (m,)) or a column per trial (m, n): shape (m, n).  A coherent variant
    also takes each trial's U = X/(X + Y) ~ U(0, 1), X and Y the Exp(1) fading
    powers of BSs 2 and 3 (``u``, shape (n,)).  The thresholds run in blocks
    of max(1, BLOCK_VALUES // n), each as (block, interferers, n) array
    operations that keep every cell's order of operations, so a cell's bits do
    not depend on the block it is in."""
    n, k = v.shape
    rows = _interferers(scheme, k)
    last = rows.index(k - 1)  # the row of the K-th BS
    mass = v[:, -1]  # mean BS count within r_K
    neg_mass = -mass
    gain, nu = _gains(params, v)
    out = np.empty((len(thresholds), n))
    # A probability that underflows to 0 is exact.
    with np.errstate(over="ignore", under="ignore", invalid="raise"):
        if scheme.coherent:  # c(U); the signal is W*c(U), W ~ Gamma(2)
            serving = (np.sqrt(gain[:, 1] * u) + np.sqrt(gain[:, 2] * (1.0 - u))) ** 2
        else:
            serving = sum(gain[:, i] for i in SERVING[scheme.association][0])
        # Interference-to-signal gain ratios, one row per interferer so that
        # the product over them runs along contiguous rows.
        ratio = gain.T[rows]
        ratio /= serving
        noise = nu / serving if nu else None  # None: no noise terms at nu = 0
        # One (threshold, trial) column per row of thresholds: (m, 1) or (m, n).
        columns = np.reshape(thresholds, (len(thresholds), -1))
        step = max(1, BLOCK_VALUES // n)  # thresholds per block
        for i in range(0, len(thresholds), step):
            t, o = columns[i:i + step], out[i:i + step]
            tail = agg_exponent(params.eta, t * ratio[last])
            x = t[:, None, :] * ratio  # (block, rows, n)
            x += 1.0
            den = np.multiply.reduce(x, axis=1)
            # exp(-t*nu/S - mass*tail)/den, written in place
            np.multiply(neg_mass, tail, out=o)
            if noise is not None:
                o -= t * noise
            np.exp(o, out=o)
            o /= den
            if scheme.coherent:
                # P(W > sJ) = E[(1 + sJ)e^(-sJ)], J = I + nu: the factor is
                # 1 - s*dlnE[e^(-sJ)]/ds, y/(1 + y) = 1 - 1/x of each
                # interferer and y*c'(y) = (2/eta)(c(y) + y/(1 + y)) of the
                # tail, c = agg_exponent.  A zero probability stays 0.
                x = np.reciprocal(x, out=x)
                lead = (1.0 if noise is None else 1.0 + t * noise) \
                    + (len(rows) - x.sum(axis=1)) \
                    + (2.0 / params.eta) * mass * (tail + 1.0 - x[:, last])
                np.multiply(o, lead, out=o, where=o > 0.0)
    return out


def conditional_batches(scheme: SchemeSpec, params: NetworkParams,
                        sim: SimulationSpec,
                        thresholds: np.ndarray) -> Iterator[np.ndarray]:
    """``trial_coverage`` of each batch of the run, in order; only a coherent
    variant reads the batch's U."""
    return (trial_coverage(params, scheme, v, thresholds, u)
            for v, u in _conditional_draws(sim))


def _mean_and_ci(batches: Iterator[np.ndarray], n: int,
                 probabilities: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Per row (a threshold or, for spectral efficiencies, a variant), the mean
    of the per-trial values of ``batches`` (n trials in all) and its 95% CI
    half-width 1.96*sd/sqrt(n).  For probabilities the variance is floored at
    one trial as in ``binomial_ci``: n per-trial coverages cannot resolve a
    mean below ~1/n.  Other values, as spectral efficiencies in nats, have no
    such scale and take their sample variance."""
    # Per batch: the sum of its values, their squared deviations from
    # its mean and its trial count, merged exactly, so a run holds one batch.
    parts = [(p.sum(axis=1), p.var(axis=1) * p.shape[1], p.shape[1])
             for p in batches]
    mean = sum(s for s, _, _ in parts) / n
    m2 = sum(dev + nb * (s / nb - mean) ** 2 for s, dev, nb in parts)
    var = m2 / max(n - 1, 1)
    if probabilities:
        var = np.maximum(var, 1.0 / n)
    return mean, 1.96 * np.sqrt(var / n)


@lru_cache(maxsize=32)
def _conditional_coverage(scheme: SchemeSpec, params: NetworkParams,
                          sim: SimulationSpec, thresholds_db: Tuple[float, ...]
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only (mean, CI) of ``_mean_and_ci`` over the run's
    ``conditional_batches``, kept for the process's last 32 runs, so that a
    coherent run reads the non-coherent run before it on the same draws."""
    t = np.array([db_to_linear(t_db) for t_db in thresholds_db])
    out = _mean_and_ci(conditional_batches(scheme, params, sim, t),
                       sim.trials, probabilities=True)
    for a in out:
        a.flags.writeable = False
    return out


def empirical_coverage(scheme: SchemeSpec, params: NetworkParams,
                       sim: SimulationSpec,
                       thresholds_db: Sequence[float]) -> CoverageCurve:
    """The MC coverage curve ``coverage --mode mc`` prints: the mean
    conditional coverage with 95% CI half-widths (``_conditional_coverage``).
    A coherent value is the greater of it and the non-coherent mean on the
    same geometry, which coherent joint transmission never covers less than."""
    key = tuple(thresholds_db)
    mean, ci = _conditional_coverage(scheme, params, sim, key)
    if scheme.coherent:
        base = replace(scheme, coherent=False)
        mean = np.maximum(mean, _conditional_coverage(base, params, sim, key)[0])
    return CoverageCurve(thresholds_db=key, values=tuple(mean.tolist()),
                         ci_halfwidths=tuple(ci.tolist()))


def empirical_spectral_efficiencies(params: NetworkParams, sim: SimulationSpec
                                    ) -> Dict[SchemeSpec, Tuple[float, float]]:
    """Each analytic variant's MC spectral efficiency and 95% CI, as ``table1``
    prints them, on the draws of ``conditional_batches``: skip+ic's coverage
    over ln t in [ln(g_2/g_1) - 40, 0] and [0, se_upper(eta)], MC_SE_NODES
    nodes each, times a factor per variant; with r_1 = 1/(1 + t*g_1/g_2) and
    c = t(1 + g_3/g_2): best (1 - r_1)/(1 + t), skip+ic t/(1 + t), skip-comp+ic
    c/(1 + c)*(1 + t*g_3/g_2), and skip and skip-comp their IC forms' * r_1."""
    upper = throughput.se_upper(params.eta)

    def batch(v: np.ndarray) -> np.ndarray:
        gain, _ = _gains(params, v)
        lower = np.log(gain[:, 1]) - np.log(gain[:, 0])  # ln(g_2/g_1)
        g32 = (gain[:, 2] / gain[:, 1])[:, None]

        def contracted(x: np.ndarray, w: np.ndarray) -> np.ndarray:
            # x = ln t, (n or 1, nodes): each variant's factor @ w, as formed
            se = np.empty((len(ANALYTIC_VARIANTS), len(v)))
            with np.errstate(over="ignore"):  # t*g_1/g_2 or c inf: 1/(1 + inf) = 0
                t = np.exp(x)
                p = trial_coverage(params, ANALYTIC_VARIANTS[2], v, t.T).T
                # C order, as p is not: @ takes another BLAS kernel on a
                # Fortran-ordered factor, which sums in another order.
                q = np.divide(p, 1.0 + t, order="C")
                r1 = 1.0 / (1.0 + np.exp(x - lower[:, None]))
                se[0] = q * (1.0 - r1) @ w
                f = q * t
                se[2] = f @ w
                se[1] = f * r1 @ w
                f = p * (1.0 - 1.0 / (1.0 + t * (1.0 + g32))) * (1.0 + t * g32)
                se[4] = f @ w
                se[3] = f * r1 @ w
            return se

        def integral(lo, hi) -> np.ndarray:
            half, chunks = legendre_chunks(lo, hi, MC_SE_NODES)
            return half * sum(contracted(x, w) for x, w in chunks)
        return sum(integral(lo, hi) for lo, hi in ((lower - 40.0, 0.0), (0.0, upper)))

    mean, ci = _mean_and_ci((batch(v) for v, _ in _conditional_draws(sim)),
                            sim.trials, probabilities=False)
    return {s: (float(m), float(c)) for s, m, c in zip(ANALYTIC_VARIANTS, mean, ci)}


def spectral_efficiency_from_result(result: SimulationResult,
                                    scheme: SchemeSpec) -> Tuple[float, float]:
    """Mean ln(1 + SINR) in nats/s/Hz plus a 95% CI half-width."""
    logs = np.log1p(result.sinr[scheme.scheme_id])
    n = len(logs)
    return float(logs.mean()), float(1.96 * logs.std(ddof=1) / math.sqrt(n))

