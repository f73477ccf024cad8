"""Monte Carlo oracle: the K nearest BSs of a PPP, Rayleigh fading, per-scheme SINR.

Geometry.  Squared distances from the origin to a planar PPP of intensity
lambda form a 1-D PPP of rate pi*lambda, so each trial draws the K nearest BSs
exactly, already sorted, as cumulative sums of Exp(pi*lambda) gaps
(``distances.sample_ordered_squared_distances``).  BSs beyond the K-th are
ignored.  K = round(lambda*pi*R^2) is the expected BS count of a disc of
radius R, where R is the configured ``window_radius_km`` or, by default, the
radius holding 500 BSs on average (so K = 500).

Fading.  BSs 2 and 3 get complex Gaussian gains, which the coherent and
non-coherent CoMP numerators need; every other BS gets an Exp(1) power.  Each
variant's interference is a sum of non-negative terms (t1, t2, t3 and the
tail beyond BS 3), never a difference, so a dominant nearest BS cannot cancel
the tail.

Randomness contract: trials are processed in fixed-size batches; batch b of a
run with seed s uses an independent Philox counter-based stream keyed by
(s, b), and draws, in order, the (n, K) distance gaps, the n powers of BS 1,
the (n, K-3) tail powers and the (n, 2) real then imaginary parts of the
gains of BSs 2 and 3.  Identical (seed, trials, batch_size, params) therefore
reproduce results bit-exactly, the first k batches of a run equal a k-batch
run, and batches are independent by construction.

One realization yields the SINR of every scheme variant simultaneously (same
fading and geometry), which keeps paired comparisons (coherent vs
non-coherent, IC vs non-IC) noise-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .coverage import CoverageCurve, CurveSource
from .distances import sample_ordered_squared_distances
from .model import VARIANTS, NetworkParams, SchemeSpec, db_to_linear, validate_scheme


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
    distances: np.ndarray  # (trials, 3)
    redraws: int  # always 0: the K-nearest generator never redraws
    spec: SimulationSpec
    params: NetworkParams


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), batch_index]))


def _batch_sinrs(params: NetworkParams, k: int, n: int,
                 rng: np.random.Generator) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """SINRs of all variants for n independent realizations of the K nearest BSs."""
    eta, p, s2 = params.eta, params.tx_power, params.noise_power
    d2 = sample_ordered_squared_distances(params.lambda_bs, rng, n, k)
    nearest = np.sqrt(d2[:, :3])

    gain = p * np.power(d2, -0.5 * eta, out=d2)
    t1 = gain[:, 0] * rng.standard_exponential(n)
    tail = np.einsum("ij,ij->i", gain[:, 3:], rng.standard_exponential((n, k - 3)))
    h = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) \
        * np.sqrt(0.5 * gain[:, 1:3])  # received amplitudes of BSs 2 and 3
    t2, t3 = (np.abs(h) ** 2).T
    num_coop = np.abs(h[:, 0] + h[:, 1]) ** 2
    num_coh = (np.abs(h[:, 0]) + np.abs(h[:, 1])) ** 2

    sinr = {
        "best": t1 / (t2 + t3 + tail + s2),
        "skip": t2 / (t1 + t3 + tail + s2),
        "skip+ic": t2 / (t3 + tail + s2),
        "skip-comp": num_coop / (t1 + tail + s2),
        "skip-comp+ic": num_coop / (tail + s2),
        "skip-comp+coh": num_coh / (t1 + tail + s2),
        "skip-comp+ic+coh": num_coh / (tail + s2),
    }
    return sinr, nearest


def simulate(params: NetworkParams, spec: SimulationSpec) -> SimulationResult:
    """Run the full simulation; one shared pass covers every scheme variant."""
    radius = spec.radius_for(params.lambda_bs)
    k = round(params.lambda_bs * math.pi * radius * radius)
    # An overflowing gain (inf, then inf/inf = nan) raises FloatingPointError.
    with np.errstate(over="raise", invalid="raise"):
        batches = [
            _batch_sinrs(params, k, min(spec.batch_size, spec.trials - start),
                         _batch_rng(spec.seed, b))
            for b, start in enumerate(range(0, spec.trials, spec.batch_size))
        ]
    return SimulationResult(
        sinr={s.scheme_id: np.concatenate([sinr[s.scheme_id] for sinr, _ in batches])
              for s in VARIANTS},
        distances=np.concatenate([dists for _, dists in batches]),
        redraws=0,
        spec=spec,
        params=params,
    )


def coverage_from_result(result: SimulationResult, scheme: SchemeSpec,
                         thresholds_db: Sequence[float]) -> CoverageCurve:
    """Empirical coverage curve with 95% CI half-widths."""
    validate_scheme(scheme)
    sinr = result.sinr[scheme.scheme_id]
    n = len(sinr)
    values, cis = [], []
    for t_db in thresholds_db:
        phat = float((sinr > db_to_linear(t_db)).mean())
        values.append(phat)
        cis.append(1.96 * math.sqrt(phat * (1.0 - phat) / n))
    return CoverageCurve(
        thresholds_db=tuple(thresholds_db), values=tuple(values),
        scheme=scheme, params=result.params, source=CurveSource.MONTE_CARLO,
        ci_halfwidths=tuple(cis),
    )


def empirical_coverage(scheme: SchemeSpec, params: NetworkParams,
                       sim: SimulationSpec,
                       thresholds_db: Sequence[float]) -> CoverageCurve:
    return coverage_from_result(simulate(params, sim), scheme, thresholds_db)


def spectral_efficiency_from_result(result: SimulationResult,
                                    scheme: SchemeSpec) -> Tuple[float, float]:
    """Mean ln(1 + SINR) in nats/s/Hz plus a 95% CI half-width."""
    validate_scheme(scheme)
    logs = np.log1p(result.sinr[scheme.scheme_id])
    n = len(logs)
    return float(logs.mean()), float(1.96 * logs.std(ddof=1) / math.sqrt(n))

