"""Analytic coverage probabilities for the three association schemes.

Every interference Laplace transform (LT) is one of the two scale-free kernels
in ``numerics``: ``nearest_lt`` (L1) for the skipped nearest BS, uniform in the
disc of the serving distance, and ``agg_exponent`` (c) for all BSs beyond it;
each takes its arctan closed form at eta = 4.

With v = pi*lambda*r^2 for the k-th nearest serving BS, every coverage, noisy
or not, is one radial integral, ``_radial`` (weight / (1+a)^k without noise):

  weight * int_0^inf v^(k-1)/(k-1)! * exp(-v*(1+a) - (b*v)^(eta/2)) dv,

with noise rate b = (T*sigma^2/P)^(2/eta) / (pi*lambda) and, per scheme,
  best connected:   k = 1, a = c(T), weight 1
  blackout no-coop: k = 2, a = c(T), weight L1(T)
  blackout coop:    k = 3 under an integral over u = r2/r3 in [0, 1], with
                    a = c(T u^eta/(1+u^eta)), weight 4 u^3 L1(T/(1+u^eta))
                    and b scaled by u^2/(1+u^eta)^(2/eta)

``analytic_coverage`` evaluates them over an array of thresholds on fixed
nodes; the public functions check it with ``numerics.fixed_rule``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import Association, NetworkParams, SchemeSpec, db_to_linear
from .numerics import agg_exponent, fixed_rule, gauss_legendre, nearest_lt

U_NODES = 256  # Gauss-Legendre nodes over ln(r2/r3), for skip-comp,
W_NODES = 64   # and over sqrt(w), for the noisy radial integral


class CoherentNotAnalytic(ValueError):
    """The coherent-precoding benchmark has no analytic coverage expression."""


@dataclass(frozen=True)
class CoverageCurve:
    thresholds_db: tuple
    values: tuple
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

def lt_i1_coop(s: float, r2: float, eta: float, p: float) -> float:
    """Laplace transform of the skipped nearest-BS interference, given r2.

    Averages 1/(1 + s*P*r1^-eta) over the conditional density 2*r1/r2^2 on
    [0, r2].
    """
    if not (r2 > 0):
        raise ValueError(f"r2 must be > 0, got {r2}")
    if not (s >= 0):
        raise ValueError(f"s must be >= 0, got {s}")
    return nearest_lt(eta, s * p * r2 ** (-eta))


def lt_ir2_coop(s: float, r3: float, lam: float, eta: float, p: float) -> float:
    """Laplace transform of the aggregate interference from BSs beyond r3."""
    if not (r3 > 0):
        raise ValueError(f"r3 must be > 0, got {r3}")
    if not (eta > 2):
        raise ValueError(f"eta must be > 2, got {eta}")
    if not (s >= 0):
        raise ValueError(f"s must be >= 0, got {s}")
    x = s * p * r3 ** (-eta)
    if x == 0:
        return 1.0  # also where r3 * r3 overflows
    return math.exp(-math.pi * lam * r3 * r3 * agg_exponent(eta, x))


# ---------------------------------------------------------------------------
# Coverage probabilities
# ---------------------------------------------------------------------------

def _noise_rate(t, params: NetworkParams):
    """b with noise factor exp(-T*sigma^2*r^eta/P) = exp(-(b*v)^(eta/2))."""
    # a power below 1 cannot raise OverflowError; b = inf gives coverage 0
    return ((t * params.noise_power / params.tx_power) ** (2.0 / params.eta)
            / (math.pi * params.lambda_bs))


def _radial(k: int, a, b, eta: float, weight, coarse: bool):
    """weight * int_0^inf v^(k-1)/(k-1)! * exp(-v*(1+a) - (b*v)^(eta/2)) dv.

    v = pi*lambda*r^2 of the k-th nearest BS; weight/(1+a)^k when b = 0.
    With v = w/d, d = 1+a+b, the integrand decays on w ~ 1 for any a and b;
    it is taken over z = sqrt(w), smooth at 0 for any eta, up to where the
    exponent reaches 40.
    """
    if not np.any(b):
        return weight / (1.0 + a) ** k
    d = 1.0 + a + b
    share = (1.0 + a) / d  # interference's share of the decay rate
    with np.errstate(divide="ignore"):
        top = np.minimum(40.0 / share, 40.0 ** (2.0 / eta) / (1.0 - share))
    share, rest = share[..., None], np.sqrt(1.0 - share)[..., None]
    return weight * gauss_legendre(
        lambda z: 2.0 / math.factorial(k - 1) * z ** (2 * k - 1)
        * np.exp(-share * z * z - (rest * z) ** eta),
        0.0, np.sqrt(top), W_NODES, coarse) * (1.0 / d) ** k


def analytic_coverage(scheme: SchemeSpec, params: NetworkParams, t, coarse: bool,
                      u_nodes: Optional[int] = None):
    """Coverage at an array of linear thresholds t >= 0, before the check of
    ``numerics.fixed_rule``, which sets coarse to halve every node count.
    Skip-comp integrates over ln(r2/r3) on u_nodes nodes, U_NODES (read at
    call time) if None."""
    if scheme.coherent:
        raise CoherentNotAnalytic("coherent scheme is simulation-only")
    t, eta = np.asarray(t, dtype=float), params.eta
    b = _noise_rate(t, params)
    if scheme.association is not Association.SKIP_COOP:
        k = 1 if scheme.association is Association.BEST_CONNECTED else 2
        lt1 = 1.0 if k == 1 or scheme.ic else nearest_lt(eta, t)
        p = _radial(k, agg_exponent(eta, t), b, eta, lt1, coarse)
        return np.where(t == 0.0, 1.0, np.minimum(1.0, p))
    # Over x = ln u: the integrand rises like u^4 until interference or noise
    # take over, within 2 of x = ln(1 + T^(2/eta) + b)/-2, and falls like u^-2
    # above, so x runs from 12 below that point to 20 above it, or to 0.
    peak = -0.5 * np.log1p(t ** (2.0 / eta) + b)
    tu, bu = t[..., None], b[..., None]

    def integrand(x):
        ue = np.exp(eta * x)
        q = 1.0 / (1.0 + ue)
        a = agg_exponent(eta, tu * ue * q)
        l1 = 1.0 if scheme.ic else nearest_lt(eta, tu * q)
        noise = bu * np.exp(2.0 * x) * q ** (2.0 / eta) if params.noise_power else 0.0
        return _radial(3, a, noise, eta, 4.0 * np.exp(4.0 * x) * l1, coarse)

    p = gauss_legendre(integrand, peak - 12.0, np.minimum(0.0, peak + 20.0),
                       U_NODES if u_nodes is None else u_nodes, coarse)
    return np.where(t == 0.0, 1.0, np.minimum(1.0, p))


def _checked(scheme: SchemeSpec, params: NetworkParams, t: float) -> float:
    t = _as_linear(t)
    return float(fixed_rule(lambda coarse: analytic_coverage(
        scheme, params, t, coarse)))


def coverage_best(t: float, params: NetworkParams) -> float:
    """Coverage probability of the always-best-connected user."""
    return _checked(SchemeSpec(Association.BEST_CONNECTED), params, t)


def coverage_blackout_nocoop(t: float, params: NetworkParams,
                             ic: bool = False) -> float:
    """Coverage of a blackout user served by the second-nearest BS alone.

    With ic=True the skipped nearest BS is removed from the interference.
    """
    return _checked(SchemeSpec(Association.SKIP_NO_COOP, ic), params, t)


def coverage_blackout_coop(t: float, params: NetworkParams,
                           ic: bool = False) -> float:
    """Coverage of a blackout user jointly served by BSs 2 and 3.

    Non-coherent joint transmission: the conditional SINR is exponential with
    mean P*(r2^-eta + r3^-eta), so coverage is the product of the two
    interference LTs and the noise factor at s = T / (P*(r2^-eta + r3^-eta)),
    averaged over the joint (r2, r3) law.  With u = r2/r3 and v = pi*lambda*r3^2
    the LTs depend on u alone, leaving the radial integral over v inside a
    single integral over u in [0, 1].
    """
    return _checked(SchemeSpec(Association.SKIP_COOP, ic), params, t)


def coverage(scheme: SchemeSpec, params: NetworkParams, t: float) -> float:
    """Analytic blackout/serving coverage for one scheme at one threshold."""
    return _checked(scheme, params, t)


def coverage_curve(scheme: SchemeSpec, params: NetworkParams,
                   thresholds_db: Sequence[float]) -> CoverageCurve:
    """Evaluate the analytic coverage over a dB threshold grid."""
    t = np.array([db_to_linear(t_db) for t_db in thresholds_db])
    values = fixed_rule(lambda coarse: analytic_coverage(scheme, params, t, coarse))
    return CoverageCurve(tuple(thresholds_db), tuple(values.tolist()))


def best_connected_closed_form(t: float) -> float:
    """Independent closed form for best-connected SIR coverage at eta = 4."""
    st = math.sqrt(t)
    return 1.0 / (1.0 + st * (math.pi / 2.0 - math.atan(1.0 / st)))


def _as_linear(t: float) -> float:
    if not (t >= 0):
        raise ValueError(f"threshold must be >= 0, got {t}")
    return float(t)
