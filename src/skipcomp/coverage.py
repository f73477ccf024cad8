"""Analytic coverage probabilities for the three association schemes.

Every interference Laplace transform (LT) is one of the two scale-free kernels
in ``numerics``: ``nearest_lt`` for the skipped nearest BS, uniform in the disc
of the serving distance, and ``agg_exponent`` for all BSs beyond it.  Each
kernel takes its eta = 4 arctan closed form by default; ``closed_form=False``
selects the general form everywhere (the reference of the eta = 4 check).

In the interference-limited case (noise_power = 0) the SIR distribution is
invariant to the BS intensity, so the radial integrals collapse in closed form
and each coverage probability becomes a single 1-D integral:

  best connected:   1 / (1 + rho(T))       with rho the standard SIR kernel
  blackout no-coop: L1(T) / (1 + c(T))^2   with L1 = nearest_lt, c = agg_exponent
  blackout coop:    integral over u = r2/r3 in [0, 1] of
                    4 u^3 L1(u) / (1 + A(u))^3

With noise, the radial integral is kept and evaluated numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import integrate

from .model import Association, NetworkParams, SchemeSpec, SinrThreshold, validate_scheme
from .numerics import DEFAULT_QUAD, agg_exponent, integrate_1d, nearest_lt


class CoherentNotAnalytic(ValueError):
    """The coherent-precoding benchmark has no analytic coverage expression."""


class CurveSource(enum.Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class CoverageCurve:
    thresholds_db: tuple
    values: tuple
    scheme: SchemeSpec
    params: NetworkParams
    source: CurveSource
    ci_halfwidths: Optional[tuple] = field(default=None)

    def __post_init__(self):
        if len(self.thresholds_db) != len(self.values):
            raise ValueError("thresholds and values must have equal length")
        for v in self.values:
            if not (-1e-12 <= v <= 1 + 1e-12):
                raise ValueError(f"coverage value out of [0,1]: {v}")


# ---------------------------------------------------------------------------
# Laplace transforms (blackout with cooperation, Lemma/Corollary forms)
# ---------------------------------------------------------------------------

def lt_i1_coop(s: float, r2: float, eta: float, p: float,
               closed_form: bool = True) -> float:
    """Laplace transform of the skipped nearest-BS interference, given r2.

    Averages 1/(1 + s*P*r1^-eta) over the conditional density 2*r1/r2^2 on
    [0, r2].
    """
    if not (r2 > 0):
        raise ValueError(f"r2 must be > 0, got {r2}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return nearest_lt(eta, s * p * r2 ** (-eta), closed_form)


def lt_ir2_coop(s: float, r3: float, lam: float, eta: float, p: float,
                closed_form: bool = True) -> float:
    """Laplace transform of the aggregate interference from BSs beyond r3."""
    if not (r3 > 0):
        raise ValueError(f"r3 must be > 0, got {r3}")
    if not (eta > 2):
        raise ValueError(f"eta must be > 2, got {eta}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    x = s * p * r3 ** (-eta)
    if x == 0:
        return 1.0  # also where r3 * r3 overflows
    return math.exp(-math.pi * lam * r3 * r3 * agg_exponent(eta, x, closed_form))


# ---------------------------------------------------------------------------
# Coverage probabilities
# ---------------------------------------------------------------------------

def _sir_kernel_best(t: float, eta: float) -> float:
    """rho(T) = T^(2/eta) * int_{T^(-2/eta)}^inf dw / (1 + w^(eta/2))."""
    res = integrate_1d(
        lambda w: 1.0 / (1.0 + w ** (eta / 2.0)), t ** (-2.0 / eta), np.inf)
    return t ** (2.0 / eta) * res.require()


def coverage_best(t: SinrThreshold | float, params: NetworkParams) -> float:
    """Coverage probability of the always-best-connected user."""
    t = _as_linear(t)
    if t == 0.0:
        return 1.0
    eta, lam, p, s2 = params.eta, params.lambda_bs, params.tx_power, params.noise_power
    rho = _sir_kernel_best(t, eta)
    if s2 == 0.0:
        return 1.0 / (1.0 + rho)
    res = integrate_1d(
        lambda x: 2.0 * math.pi * lam * x * math.exp(
            -t * s2 * x ** eta / p - math.pi * lam * x * x * (1.0 + rho)
        ),
        0.0, np.inf,
    )
    return min(1.0, res.require())


def coverage_blackout_nocoop(t: SinrThreshold | float, params: NetworkParams,
                             ic: bool = False, closed_form: bool = True) -> float:
    """Coverage of a blackout user served by the second-nearest BS alone.

    With ic=True the skipped nearest BS is removed from the interference.
    """
    t = _as_linear(t)
    if t == 0.0:
        return 1.0
    eta, lam, p, s2 = params.eta, params.lambda_bs, params.tx_power, params.noise_power
    c = agg_exponent(eta, t, closed_form)
    lt1 = 1.0 if ic else nearest_lt(eta, t, closed_form)
    if s2 == 0.0:
        return lt1 / (1.0 + c) ** 2
    res = integrate_1d(
        lambda y: 2.0 * (math.pi * lam) ** 2 * y ** 3 * math.exp(
            -t * s2 * y ** eta / p - math.pi * lam * y * y * (1.0 + c)
        ),
        0.0, np.inf,
    )
    return min(1.0, lt1 * res.require())


def coverage_blackout_coop(t: SinrThreshold | float, params: NetworkParams,
                           ic: bool = False, closed_form: bool = True) -> float:
    """Coverage of a blackout user jointly served by BSs 2 and 3.

    Non-coherent joint transmission: the conditional SINR is exponential with
    mean P*(r2^-eta + r3^-eta), so coverage is the product of the two
    interference LTs at s = T / (P*(r2^-eta + r3^-eta)), averaged over the
    joint (r2, r3) law.  Interference-limited case: substituting u = r2/r3
    makes the r3 integral Gaussian, leaving a single integral over [0, 1].
    """
    t = _as_linear(t)
    if t == 0.0:
        return 1.0
    eta, lam, p, s2 = params.eta, params.lambda_bs, params.tx_power, params.noise_power

    if s2 == 0.0:
        def integrand(u: float) -> float:
            if u <= 0.0:
                return 0.0
            ue = u ** eta
            # s*P*r3^-eta and s*P*r2^-eta, scale-free
            a_exp = agg_exponent(eta, t * ue / (1.0 + ue), closed_form)
            l1 = 1.0 if ic else nearest_lt(eta, t / (1.0 + ue), closed_form)
            return 4.0 * u ** 3 * l1 / (1.0 + a_exp) ** 3

        return min(1.0, integrate_1d(integrand, 0.0, 1.0).require())

    # Noise-aware path: 2-D integral over (r2, r3) with the LT factors.
    def inner_r3(r3: float, r2: float) -> float:
        s = t / (p * (r2 ** (-eta) + r3 ** (-eta)))
        l1 = 1.0 if ic else lt_i1_coop(s, r2, eta, p, closed_form)
        lr = lt_ir2_coop(s, r3, lam, eta, p, closed_form)
        joint = 4.0 * (math.pi * lam) ** 3 * r2 ** 3 * r3 * math.exp(
            -math.pi * lam * r3 * r3
        )
        return joint * math.exp(-s * s2) * l1 * lr

    def outer(r2: float) -> float:
        out = integrate.quad(
            inner_r3, r2, np.inf, args=(r2,), epsabs=DEFAULT_QUAD.abs_tol,
            epsrel=1e-6, limit=DEFAULT_QUAD.max_subdivisions,
        )
        return out[0]

    return min(1.0, integrate_1d(outer, 0.0, np.inf).require())


def coverage(scheme: SchemeSpec, params: NetworkParams,
             t: SinrThreshold | float) -> float:
    """Analytic blackout/serving coverage for one scheme at one threshold."""
    validate_scheme(scheme)
    if scheme.coherent:
        raise CoherentNotAnalytic("coherent scheme is simulation-only")
    t = _as_linear(t)
    if scheme.association is Association.BEST_CONNECTED:
        return coverage_best(t, params)
    if scheme.association is Association.SKIP_NO_COOP:
        return coverage_blackout_nocoop(t, params, ic=scheme.ic)
    return coverage_blackout_coop(t, params, ic=scheme.ic)


def coverage_curve(scheme: SchemeSpec, params: NetworkParams,
                   thresholds_db: Sequence[float]) -> CoverageCurve:
    """Evaluate the analytic coverage over a dB threshold grid."""
    values = tuple(
        coverage(scheme, params, SinrThreshold.from_db(t_db))
        for t_db in thresholds_db
    )
    return CoverageCurve(
        thresholds_db=tuple(thresholds_db), values=values, scheme=scheme,
        params=params, source=CurveSource.ANALYTIC,
    )


def best_connected_closed_form(t: float) -> float:
    """Independent closed form for best-connected SIR coverage at eta = 4."""
    st = math.sqrt(t)
    return 1.0 / (1.0 + st * (math.pi / 2.0 - math.atan(1.0 / st)))


def _as_linear(t: SinrThreshold | float) -> float:
    if isinstance(t, SinrThreshold):
        return t.value
    if t < 0:
        raise ValueError(f"threshold must be >= 0, got {t}")
    return float(t)
