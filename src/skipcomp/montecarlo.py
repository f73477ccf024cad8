"""Monte Carlo oracle: the nearest BSs of a PPP, Rayleigh fading, per-scheme SINR.

Geometry.  Squared distances from the origin to a planar PPP of intensity
lambda form a 1-D PPP of rate pi*lambda, so each trial draws v = pi*lambda*r^2
of its nearest BSs exactly, already sorted, as cumulative sums of Exp(1) gaps
(``distances.sample_ordered_v``).  A BS's gain is v^(-eta/2) and the noise
nu = sigma^2/(P*(pi*lambda)^(eta/2)) (``_gains``), which leaves every SINR
as it is in km and watts: lambda enters only through nu and the raw window's
K, so noise-free output is the same at every lambda.

Two estimators share that generator; ``empirical_coverage`` picks one by
variant, and ``coverage --mode mc`` and ``validate`` both go through it.

* Conditional (every non-coherent variant): a trial draws only the K_COND = 20
  nearest BSs and no fading.  Under Rayleigh fading the coverage given the
  geometry is a product of Laplace transforms (Andrews, Baccelli and Ganti,
  2011): prod 1/(1 + s*g_i) over the interferers among BSs 1..K_COND, times
  exp(-s*nu), times exp(-v_K * agg_exponent(eta, s*g_K)), the PPP Laplace
  functional of every BS beyond the K-th (Haenggi, 2012), with g_i =
  v_i^(-eta/2) and s = T/S.  The serving gain S is g_1 (best), g_2 (skip)
  or g_2 + g_3 (skip-comp: the non-coherent joint signal |h_2 + h_3|^2 is
  exponential with that mean; Tanbourgi et al., 2014); the interferers are the
  other BSs, less BS 1 under IC.  The estimate is the trial mean of these
  probabilities and its CI half-width 1.96*sd/sqrt(n), the variance floored
  at one trial as in ``binomial_ci``; it has no truncation bias at any eta > 2.
* Raw (the spectral efficiency, and the coherent excess below): a trial draws
  the K nearest BSs and their fading, and the estimate is the share of trials
  whose SINR exceeds T.  BSs beyond the K-th are ignored.  K =
  round(lambda*pi*R^2) is the expected BS count of a disc of radius R, where R
  is the configured ``window_radius_km`` or, by default, the radius holding
  500 BSs on average (so K = 500).  BSs 2 and 3 get complex Gaussian gains,
  which the coherent and non-coherent CoMP numerators need; every other BS
  gets an Exp(1) power.  ``SERVING`` names each variant's signal; its
  interference is a sum of non-negative terms (BSs 1-3 that neither serve
  nor are cancelled, then the tail beyond BS 3), never a difference, so a
  dominant nearest BS cannot cancel the tail.  One realization yields the
  SINR of every variant.

Coherent joint transmission has no product form.  Its estimate is paired: the
conditional non-coherent value (the same bits the non-coherent variant
prints) plus the raw excess, the share of raw trials that coherent covers and
non-coherent does not.  The excess is >= 0 on every trial, so coherent
coverage is never below non-coherent, at any threshold and after rounding.
The excess rises in steps of 1/n, so the sum can rise with the threshold;
each value is therefore the least sum at its threshold or any lower one (not
only those of the grid, so a value does not depend on the other thresholds
asked for), capped at 1.  The two parts read disjoint stream words and are
independent, so the CI half-width is sqrt(ci_cond^2 + ci_excess^2), the
excess taking the raw binomial CI.

Randomness contract: trials are processed in fixed-size batches; batch b of a
run with seed s (0 <= s < 2^63) uses an independent Philox counter-based
stream keyed by (s, b).  Each stream is read from one of two counter blocks:
block 0 starts at counter 0, block 1 at 2^128 (``Philox.jumped()``), so no
two estimators share a word.  A raw batch reads block 0: in order, the (n, K) distance gaps,
the n powers of BS 1, the (n, K-3) tail powers and the (n, 2) real then
imaginary parts of the gains of BSs 2 and 3.  A conditional batch draws only
the (n, K_COND) distance gaps, from block 0 for best, skip and skip+ic and
from block 1 (``COOP_BLOCK``) for skip-comp and skip-comp+ic, which the
coherent pair's conditional part reuses.  Identical (seed, trials,
batch_size, params) therefore reproduce results bit-exactly, the first k
batches of a run equal a k-batch run, and batches are independent by
construction.  So batches may run concurrently, on up to one thread per
usable CPU; their results are reduced in batch order, so the thread count
changes no output.  A gain that overflows or turns subnormal, as at eta in
the hundreds, raises FloatingPointError in the batch that meets it.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice, starmap
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .coverage import CoverageCurve, CurveSource
from .distances import sample_ordered_v
from .model import VARIANTS, Association, NetworkParams, SchemeSpec, db_to_linear
from .numerics import agg_exponent

K_COND = 20  # nearest BSs a conditional trial draws; the rest is the exact tail
COOP_BLOCK = 1  # Philox counter block of the cooperative conditional draws
TAIL_BLOCK = 2**15  # tail powers drawn per block: a 256 KB buffer, reused


def default_window_radius(lam: float, min_expected: float = 500.0) -> float:
    """Radius (km) such that the expected in-window BS count is min_expected."""
    return math.sqrt(min_expected / (math.pi * lam))


@dataclass(frozen=True)
class SimulationSpec:
    trials: int = 100_000
    seed: int = 12345
    batch_size: int = 2000
    window_radius: Optional[float] = None  # None: sized from the intensity

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be in [0, 2^63), got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window_radius is not None and not (self.window_radius > 0):
            raise ValueError(f"window_radius must be > 0, got {self.window_radius}")

    def radius_for(self, lam: float) -> float:
        r = self.window_radius if self.window_radius is not None \
            else default_window_radius(lam)
        if lam * math.pi * r * r < 100.0:
            raise ValueError(
                "window too small: expected BS count "
                f"{lam * math.pi * r * r:.1f} < 100"
            )
        return r


@dataclass(frozen=True)
class SimulationResult:
    """Per-variant SINR arrays from a shared set of realizations."""

    sinr: Dict[str, np.ndarray]
    redraws: int  # always 0: the K-nearest generator never redraws
    spec: SimulationSpec
    params: NetworkParams


def _batch_rng(seed: int, batch_index: int, block: int = 0) -> np.random.Generator:
    """Batch ``batch_index``'s stream, from counter ``block`` * 2^128 on."""
    return np.random.Generator(np.random.Philox(
        key=[seed, batch_index], counter=[0, 0, block, 0]))


def _batches(spec: SimulationSpec,
             block: int = 0) -> Iterator[Tuple[np.random.Generator, int]]:
    """(stream, trial count) of each batch of a run, in order."""
    for b, start in enumerate(range(0, spec.trials, spec.batch_size)):
        yield (_batch_rng(spec.seed, b, block),
               min(spec.batch_size, spec.trials - start))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _map_batches(fn: Callable, batches: Iterator[tuple]) -> Iterator:
    """fn(*args) for each args of ``batches``, in order.

    ``batches`` is read on the calling thread; the calls run on up to one
    thread per usable CPU, at most that many in flight, so a long run holds
    O(workers) batch results at once.  numpy keeps its error state per
    thread, so ``fn`` sets any it needs itself.
    """
    head = list(islice(batches, _usable_cpus()))  # also bounds the workers
    if len(head) <= 1:  # one batch or one CPU: the calling thread runs them
        if head:
            yield fn(*head.pop())
        yield from starmap(fn, batches)
        return
    with ThreadPoolExecutor(len(head)) as pool:
        pending = deque(pool.submit(fn, *args) for args in head)
        del head  # the pending calls hold their arguments until they return
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, *args) for args in islice(batches, 1))
            yield result


#: Per association: the serving BSs (0-based, among the nearest) and the BS
#: that interferes unless cancelled by IC; every BS after these interferes.
SERVING = {
    Association.BEST_CONNECTED: ((0,), 1),
    Association.SKIP_NO_COOP: ((1,), 0),
    Association.SKIP_COOP: ((1, 2), 0),
}


def _gains(params: NetworkParams, v: np.ndarray,
           out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, float]:
    """Gains v^(-eta/2) of the BSs at v = pi*lambda*r^2 (into ``out``, if
    given), and the noise in the same unit, nu = sigma^2/(P*(pi*lambda)^(eta/2)),
    formed in log space: 0 exactly without noise, inf (coverage 0) where it
    overflows.  A gain that overflows or turns subnormal raises
    FloatingPointError."""
    with np.errstate(over="raise", under="raise", invalid="raise"):
        gain = np.power(v, -0.5 * params.eta, out=out)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):  # log 0
        nu = np.exp(np.log(params.noise_power) - np.log(params.tx_power)
                    - 0.5 * params.eta * np.log(math.pi * params.lambda_bs))
    return gain, float(nu)


def _batch_sinrs(params: NetworkParams, k: int, n: int, rng: np.random.Generator,
                 work: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
    """SINRs of all variants for n independent realizations of the K nearest BSs;
    ``work``, if given, is the (n, K) array the batch overwrites.  A received
    power or SINR that overflows raises FloatingPointError: its mean would be
    inf."""
    v = sample_ordered_v(rng, n, k, out=work)
    gain, nu = _gains(params, v, out=v)  # the one (n, K) array of the batch
    with np.errstate(over="raise"):
        t1 = gain[:, 0] * rng.standard_exponential(n)
        # The (n, K-3) tail powers, drawn in row blocks: the stream is read in
        # the same order as one (n, K-3) draw, so the values are the same.
        rows = min(n, max(1, TAIL_BLOCK // (k - 3)))
        buf, tail = np.empty((rows, k - 3)), np.empty(n)
        for i in range(0, n, rows):
            block = buf[:n - i]
            rng.standard_exponential(out=block)
            np.einsum("ij,ij->i", gain[i:i + rows, 3:], block, out=tail[i:i + rows])
        h = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) \
            * np.sqrt(0.5 * gain[:, 1:3])  # received amplitudes of BSs 2 and 3
        rx = (t1, *(np.abs(h) ** 2).T)  # received powers of BSs 1-3
        # Joint transmission from BSs 2 and 3, non-coherent and coherent.
        joint = {False: np.abs(h.sum(axis=1)) ** 2, True: np.abs(h).sum(axis=1) ** 2}
        sinr = {}
        for s in VARIANTS:
            serving, near = SERVING[s.association]
            signal = rx[serving[0]] if len(serving) == 1 else joint[s.coherent]
            interferers = [rx[i] for i in range(3)
                           if i not in serving and not (s.ic and i == near)]
            sinr[s.scheme_id] = signal / sum(interferers + [tail, nu])
    return sinr


def simulate(params: NetworkParams, spec: SimulationSpec) -> SimulationResult:
    """Run the full simulation; one shared pass covers every scheme variant."""
    radius = spec.radius_for(params.lambda_bs)
    k = round(params.lambda_bs * math.pi * radius * radius)
    # Each batch's (n, K) array is allocated on the calling thread: freed, it
    # returns to that thread's heap, not to a worker's malloc arena, which
    # glibc would keep resident.
    batches = list(_map_batches(
        lambda rng, n, work: _batch_sinrs(params, k, n, rng, work),
        ((rng, n, np.empty((n, k))) for rng, n in _batches(spec))))
    return SimulationResult(
        sinr={s.scheme_id: np.concatenate([sinr[s.scheme_id] for sinr in batches])
              for s in VARIANTS},
        redraws=0,
        spec=spec,
        params=params,
    )


def coverage_from_result(result: SimulationResult, scheme: SchemeSpec,
                         thresholds_db: Sequence[float]) -> CoverageCurve:
    """Empirical coverage curve with 95% CI half-widths.

    The binomial variance is floored at one trial, 1/n, so a share of 0 or 1
    (no trial or every trial covered) does not get a zero-width interval.
    """
    sinr = result.sinr[scheme.scheme_id]
    values = [float((sinr > db_to_linear(t_db)).mean()) for t_db in thresholds_db]
    return CoverageCurve(
        thresholds_db=tuple(thresholds_db), values=tuple(values),
        scheme=scheme, params=result.params, source=CurveSource.MONTE_CARLO,
        ci_halfwidths=tuple(binomial_ci(p, len(sinr)) for p in values),
    )


def binomial_ci(phat: float, n: int) -> float:
    """95% CI half-width of a share phat of n trials, its variance floored at
    one trial."""
    return 1.96 * math.sqrt(max(phat * (1.0 - phat), 1.0 / n) / n)


def trial_coverage(params: NetworkParams, scheme: SchemeSpec, v: np.ndarray,
                   thresholds: np.ndarray) -> np.ndarray:
    """Each trial's coverage probability given v = pi*lambda*r^2 of its K
    nearest BSs (shape (n, K), ascending), at each linear threshold: shape
    (len(thresholds), n).  Non-coherent variants only."""
    return _trial_coverage_at(params, scheme, v)(thresholds)


def _trial_coverage_at(params: NetworkParams, scheme: SchemeSpec,
                       v: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``trial_coverage`` of v as a function of the thresholds, its
    threshold-free terms computed once."""
    serving_bs, near_bs = SERVING[scheme.association]
    far = max(*serving_bs, near_bs) + 1  # the first BS that always interferes
    n, k = v.shape
    mass = v[:, -1].copy()  # mean BS count within r_K; ``at`` keeps no view of v
    gain, nu = _gains(params, v)
    # A probability that underflows to 0 is exact.
    with np.errstate(over="ignore", under="ignore", invalid="raise"):
        serving = sum(gain[:, i] for i in serving_bs)
        # Interference-to-signal gain ratios of the far BSs, one row per BS
        # so that the product over them runs along contiguous rows.
        ratio = np.divide(gain[:, far:].T, serving, out=np.empty((k - far, n)))
        near = None if scheme.ic else gain[:, near_bs] / serving
        noise = nu / serving

    def at(thresholds: np.ndarray) -> np.ndarray:
        out = np.empty((len(thresholds), n))
        x = np.empty_like(ratio)
        with np.errstate(over="ignore", under="ignore", invalid="raise"):
            for i, t in enumerate(thresholds):
                np.multiply(ratio, t, out=x)
                x += 1.0
                den = np.multiply.reduce(x, axis=0)
                if near is not None:  # the near BS is not cancelled
                    den *= 1.0 + t * near
                out[i] = np.exp(-t * noise - mass
                                * agg_exponent(params.eta, t * ratio[-1])) / den
        return out

    return at


def _block(scheme: SchemeSpec) -> int:
    return COOP_BLOCK if scheme.association is Association.SKIP_COOP else 0


def conditional_batches(scheme: SchemeSpec, params: NetworkParams,
                        sim: SimulationSpec,
                        thresholds: np.ndarray) -> Iterator[np.ndarray]:
    """``trial_coverage`` of each batch of the run, in order; the cooperative
    variants draw from ``COOP_BLOCK``."""
    def batch(rng: np.random.Generator, n: int) -> np.ndarray:
        return trial_coverage(params, scheme, sample_ordered_v(rng, n, K_COND),
                              thresholds)

    return _map_batches(batch, _batches(sim, _block(scheme)))


def _mean_and_ci(batches: Iterator[np.ndarray],
                 n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Mean of the per-trial probabilities of ``batches`` (n trials in all) at
    each threshold, and its 95% CI half-widths 1.96*sd/sqrt(n), the variance
    floored at one trial as in ``binomial_ci``: each probability lies in
    [0, 1], so a run of n trials cannot resolve a mean below ~1/n."""
    # Per batch: the sum of its probabilities, their squared deviations from
    # its mean and its trial count, merged exactly, so a run holds one batch.
    parts = [(p.sum(axis=1), p.var(axis=1) * p.shape[1], p.shape[1])
             for p in batches]
    mean = sum(s for s, _, _ in parts) / n
    m2 = sum(dev + nb * (s / nb - mean) ** 2 for s, dev, nb in parts)
    return mean, 1.96 * np.sqrt(np.maximum(m2 / max(n - 1, 1), 1.0 / n) / n)


def conditional_coverage(scheme: SchemeSpec, params: NetworkParams,
                         sim: SimulationSpec,
                         thresholds_db: Sequence[float]) -> CoverageCurve:
    """Mean conditional coverage with 95% CI half-widths (``_mean_and_ci``)."""
    t = np.array([db_to_linear(t_db) for t_db in thresholds_db])
    mean, ci = _mean_and_ci(conditional_batches(scheme, params, sim, t), sim.trials)
    return CoverageCurve(
        thresholds_db=tuple(thresholds_db), values=tuple(mean.tolist()),
        scheme=scheme, params=params, source=CurveSource.MONTE_CARLO,
        ci_halfwidths=tuple(ci.tolist()),
    )


BOUND_SLACK = 1e-8  # relative slack of the convexity bounds, against rounding


def _convex_lower_bound(kx: np.ndarray, kc: np.ndarray,
                        x: np.ndarray) -> np.ndarray:
    """A lower bound on C(x), for a non-increasing convex C known at the
    ascending knots kx (values kc), at each x <= kx[-1].

    The greater of two chord extensions: that of the first knot >= x and the
    next, extended left to x (over at most 100 chord lengths), and that of
    the two knots below x, extended right (if x is within 100 chord
    lengths).  Each is lowered by BOUND_SLACK times the sum of the
    magnitudes it is made of, so rounding in C cannot lift it above C(x).
    """
    k = np.searchsorted(kx, x, "left")
    r = np.minimum(k + 1, len(kx) - 1)  # r = k at the last knot: no chord
    i, j = np.maximum(k - 2, 0), np.maximum(k - 1, 0)
    with np.errstate(all="ignore"):  # a far chord may overflow: dropped
        d = np.minimum((kx[k] - x) / np.where(r > k, kx[r] - kx[k], np.inf),
                       100.0)
        right = kc[k] + (kc[k] - kc[r]) * d \
            - BOUND_SLACK * (kc[k] + (kc[k] + kc[r]) * d)
        d = (x - kx[j]) / np.where(k >= 2, kx[j] - kx[i], np.inf)
        left = kc[j] - (kc[i] - kc[j]) * d \
            - BOUND_SLACK * (kc[j] + (kc[i] + kc[j]) * d)
        return np.where((k >= 2) & (d <= 100.0), np.maximum(right, left), right)


def coherent_envelope(cond_mean: Callable[[np.ndarray], np.ndarray],
                      t: np.ndarray, c_t: np.ndarray, nc: np.ndarray,
                      coh: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """min over every linear threshold x <= T of C(x) + E(x), for each T of
    t, and E(t).

    C is the conditional coverage that ``cond_mean`` evaluates at an array of
    thresholds (c_t: C(t)); E(x) is the share of the raw trials, with SINRs
    nc and coh, for which nc <= x < coh.  E is a step function that rises by
    1/n at such a trial's nc and falls at its coh, while C falls smoothly: it
    is continuous and, as the mean of Laplace transforms in x (one per
    trial), non-increasing and convex.  So over x <= T the least sum is the
    least of C(T) + E(T) and, at each rise b <= T of E, the limit
    C(b) + E(b-) just below it.  C is evaluated in rounds, only at rises
    whose convexity bound on that limit is below the least sums found so far;
    the others cannot be the least, so every value depends on its own T and
    the draws alone.
    """
    n = len(nc)
    boxed = nc < coh
    lo, hi = np.sort(nc[boxed]), np.sort(coh[boxed])

    def excess(x: np.ndarray, side: str) -> np.ndarray:
        return (np.searchsorted(lo, x, side) - np.searchsorted(hi, x, side)) / n

    order = np.argsort(t, kind="stable")
    ts = t[order]
    sums = c_t[order] + excess(ts, "right")
    rises = np.unique(lo[lo <= ts[-1]])
    below = excess(rises, "left")  # E(b-) at each rise b
    limit = np.full(len(rises), np.inf)  # C(b) + E(b-), once evaluated
    first = np.searchsorted(ts, rises, "left")  # the first T >= each rise
    upto = np.searchsorted(rises, ts, "right")  # the rises <= each T
    kx, knots = np.unique(ts, return_index=True)
    kc = c_t[order][knots]
    alive = np.arange(len(rises))  # rises neither evaluated nor ruled out
    while True:
        least = np.minimum(sums, np.concatenate(
            ([np.inf], np.minimum.accumulate(limit)))[upto])
        # A rise can only lower the least sums of the T above it.
        room = np.maximum.accumulate(least[::-1])[::-1]
        gap = _convex_lower_bound(kx, kc, rises[alive]) + below[alive] \
            - room[first[alive]]
        alive, gap = alive[gap < 0], gap[gap < 0]
        if not alive.size:
            values = np.empty_like(least)
            values[order] = least
            return values, excess(t, "right")
        # Per round, the rise of least bound below each T: its sum, once
        # known, mostly rules out the others.
        by_t = np.lexsort((gap, first[alive]))
        head = first[alive][by_t]
        todo = alive[by_t[np.concatenate(([True], head[1:] != head[:-1]))]]
        c = cond_mean(rises[todo])
        limit[todo] = c + below[todo]
        alive = np.setdiff1d(alive, todo, assume_unique=True)
        kx, knots = np.unique(np.concatenate((kx, rises[todo])),
                              return_index=True)
        kc = np.concatenate((kc, c))[knots]


def coherent_coverage(scheme: SchemeSpec, params: NetworkParams,
                      sim: SimulationSpec,
                      thresholds_db: Sequence[float]) -> CoverageCurve:
    """Paired coherent estimate: the conditional non-coherent coverage plus
    the share of raw trials that coherent covers and non-coherent does not,
    each value the least such sum at its threshold or any lower one
    (``coherent_envelope``), capped at 1; CI half-width
    sqrt(ci_cond^2 + ci_excess^2), the excess taken at the threshold itself.

    The least sum keeps the curve non-increasing; as the conditional part is
    non-increasing, never below it.  It lowers a cell by about the excess's
    local fluctuation below the threshold, O(1/n), against a CI of
    O(1/sqrt(n))."""
    base = replace(scheme, coherent=False)
    t = np.array([db_to_linear(t_db) for t_db in thresholds_db])
    batches = list(_map_batches(
        lambda rng, n: _trial_coverage_at(params, base,
                                          sample_ordered_v(rng, n, K_COND)),
        _batches(sim, _block(base))))

    def cond(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return _mean_and_ci(_map_batches(lambda at: at(x), ((at,) for at in batches)),
                            sim.trials)

    mean, ci = cond(t)
    result = simulate(params, sim)
    least, excess = coherent_envelope(
        lambda x: cond(x)[0], t, mean,
        result.sinr[base.scheme_id], result.sinr[scheme.scheme_id])
    return CoverageCurve(
        thresholds_db=tuple(thresholds_db),
        values=tuple(np.maximum(np.minimum(least, 1.0), mean).tolist()),
        scheme=scheme, params=params, source=CurveSource.MONTE_CARLO,
        ci_halfwidths=tuple(np.hypot(
            ci, [binomial_ci(e, sim.trials) for e in excess]).tolist()),
    )


def empirical_coverage(scheme: SchemeSpec, params: NetworkParams,
                       sim: SimulationSpec,
                       thresholds_db: Sequence[float]) -> CoverageCurve:
    """The MC coverage curve ``coverage --mode mc`` prints: conditional for
    the non-coherent variants, paired for the coherent ones."""
    if scheme.coherent:
        return coherent_coverage(scheme, params, sim, thresholds_db)
    return conditional_coverage(scheme, params, sim, thresholds_db)


def spectral_efficiency_from_result(result: SimulationResult,
                                    scheme: SchemeSpec) -> Tuple[float, float]:
    """Mean ln(1 + SINR) in nats/s/Hz plus a 95% CI half-width."""
    logs = np.log1p(result.sinr[scheme.scheme_id])
    n = len(logs)
    return float(logs.mean()), float(1.96 * logs.std(ddof=1) / math.sqrt(n))

