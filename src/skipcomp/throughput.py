"""Mobility-aware throughput: spectral efficiency, handover rate and cost.

A skipping user alternates between best-connected and blackout phases, so its
long-run spectral efficiency is the arithmetic mean of the two, and it
executes one handover per two cell-boundary crossings (half the conventional
rate).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from . import coverage as cov
from .model import (
    KMH_TO_KMS,
    Association,
    MobilityParams,
    NetworkParams,
    OverheadParams,
    SchemeSpec,
)
from .numerics import QuadratureError, fixed_rule, gauss_legendre

LN2 = math.log(2.0)
#: Gauss-Legendre nodes on each half of the analytic SE integral at eta = 4;
#: its upper half of ln t grows with eta, and the count with it.
T_NODES = 256


@dataclass(frozen=True)
class ThroughputPoint:
    velocity: float            # km/h
    scheme: SchemeSpec
    ho_rate: float             # HO/s
    ho_cost: float             # fraction of time in [0, 1]
    spectral_efficiency: float  # nats/s/Hz (phase-averaged for skipping)
    throughput_nats: float     # nats/s
    ho_delay: float = 0.0      # s

    def __post_init__(self):
        if not (0.0 <= self.ho_cost <= 1.0):
            raise ValueError(f"ho_cost must be in [0,1], got {self.ho_cost}")

    @property
    def throughput_bits(self) -> float:
        return self.throughput_nats / LN2


def se_upper(eta: float) -> float:
    """20*eta, the upper end of the SE integrals' ln t; QuadratureError where
    t = e^(20*eta) overflows (eta > 35.49), before any node is built."""
    upper = 20.0 * eta
    if not upper < math.log(sys.float_info.max):
        raise QuadratureError(f"SE range t <= e^{upper:g} overflows at eta = {eta}")
    return upper


def spectral_efficiency(scheme: SchemeSpec, params: NetworkParams) -> float:
    """nats/s/Hz, int_0^inf P(SINR > t)/(1+t) dt over x = ln t in [-40, 0] and
    [0, ``se_upper(eta)``]: the integrand falls off like e^x below and no slower
    than e^(-2x/eta) above, so both tails are below e^-40.  Skip-comp's
    coverage takes half of ``cov.U_NODES`` over ln(r2/r3): the SE, an average
    over t, moves by at most ~1e-13 relative from its value on all of them.
    cov.analytic_coverage rejects a coherent scheme."""
    upper = se_upper(params.eta)
    nodes = round(T_NODES * max(upper, 40.0) / 80.0)

    def integrand(x, coarse: bool):
        t = np.exp(x)
        return cov.analytic_coverage(scheme, params, t, coarse,
                                     cov.U_NODES // 2) * t / (1.0 + t)
    return float(fixed_rule(lambda coarse: gauss_legendre(
        lambda x: integrand(x, coarse), np.array([-40.0, 0.0]),
        np.array([0.0, upper]), nodes, coarse).sum()))


def skipping_avg_se(se_best: float, se_blackout: float) -> float:
    """Phase-averaged spectral efficiency of a skipping user (50/50 split)."""
    if not (se_best >= 0) or not (se_blackout >= 0):
        raise ValueError("spectral efficiencies must be >= 0")
    return 0.5 * (se_best + se_blackout)


def scheme_spectral_efficiencies(schemes: Sequence[SchemeSpec],
                                 params: NetworkParams) -> Dict[SchemeSpec, float]:
    """Long-run spectral efficiency each scheme delivers to a mobile user."""
    se_best = spectral_efficiency(SchemeSpec(Association.BEST_CONNECTED), params)
    return {
        s: se_best if s.association is Association.BEST_CONNECTED
        else skipping_avg_se(se_best, spectral_efficiency(s, params))
        for s in schemes
    }


def ho_rate(velocity_kmh: float, lam: float) -> float:
    """Cell-boundary crossing rate (HO/s) for a user at the given velocity."""
    if not (velocity_kmh >= 0):
        raise ValueError(f"velocity must be >= 0, got {velocity_kmh}")
    return 4.0 * (velocity_kmh * KMH_TO_KMS) * math.sqrt(lam) / math.pi


def ho_cost(scheme: SchemeSpec, rate: float, delay: float) -> float:
    """Fraction of wall-clock time lost to HO signaling, clamped to [0, 1].

    Skipping schemes execute every other handover, so they pay half the rate.
    """
    if not (rate >= 0) or not (delay >= 0):
        raise ValueError("rate and delay must be >= 0")
    if scheme.association is not Association.BEST_CONNECTED:
        rate = rate / 2.0
    return min(1.0, rate * delay)


def average_throughput(scheme: SchemeSpec, params: NetworkParams,
                       mobility: MobilityParams, overhead: OverheadParams,
                       se: float) -> ThroughputPoint:
    """W * R * (1 - u_c) * (1 - D_HO), with zero throughput at saturation."""
    rate = ho_rate(mobility.velocity, params.lambda_bs)
    cost = ho_cost(scheme, rate, mobility.ho_delay)
    u = (overhead.u_conventional
         if scheme.association is Association.BEST_CONNECTED
         else overhead.u_skipping)
    nats = 0.0 if cost >= 1.0 else params.bandwidth * se * (1.0 - u) * (1.0 - cost)
    return ThroughputPoint(
        velocity=mobility.velocity, scheme=scheme, ho_rate=rate, ho_cost=cost,
        spectral_efficiency=se, throughput_nats=nats, ho_delay=mobility.ho_delay,
    )


def throughput_sweep(params: NetworkParams, schemes: Sequence[SchemeSpec],
                     velocities: Iterable[float], d_values: Iterable[float],
                     overhead: OverheadParams = OverheadParams(),
                     ) -> List[ThroughputPoint]:
    """Cartesian sweep over velocities and HO delays for the given schemes."""
    ses = scheme_spectral_efficiencies(schemes, params)
    points = []
    for d in d_values:
        for v in velocities:
            mob = MobilityParams(velocity=v, ho_delay=d)
            for s in schemes:
                points.append(average_throughput(s, params, mob, overhead, ses[s]))
    return points
