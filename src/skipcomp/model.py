"""Shared domain types for the PPP downlink model.

Units discipline: distances in km, BS intensity in BS/km^2, powers in watts,
bandwidth in Hz.  Velocities enter in km/h and are converted to km/s exactly
once, at the throughput-module boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class SchemeError(ValueError):
    """A SchemeSpec violates one of its structural rules."""


class CoherentWithoutCoop(SchemeError):
    """coherent=True is only meaningful for the two-BS cooperative scheme."""


class IcOnBestConnected(SchemeError):
    """Best-connected serves from the nearest BS; there is nothing to cancel."""


class Association(enum.Enum):
    BEST_CONNECTED = "best"
    SKIP_NO_COOP = "skip"
    SKIP_COOP = "skip-comp"


@dataclass(frozen=True)
class NetworkParams:
    """Deployment and physical-layer parameters.

    lambda_bs : BS intensity in BS/km^2
    tx_power  : per-BS transmit power in watts (all BSs equal)
    eta       : path-loss exponent, must exceed 2
    noise_power : noise power in watts; 0 means interference-limited
    bandwidth : system bandwidth in Hz
    """

    lambda_bs: float = 70.0
    tx_power: float = 1.0
    eta: float = 4.0
    noise_power: float = 0.0
    bandwidth: float = 1e7

    def __post_init__(self):
        if not (self.lambda_bs > 0):
            raise ValueError(f"lambda_bs must be > 0, got {self.lambda_bs}")
        if not (self.tx_power > 0):
            raise ValueError(f"tx_power must be > 0, got {self.tx_power}")
        if not (self.eta > 2):
            raise ValueError(f"eta must be > 2, got {self.eta}")
        if not (self.noise_power >= 0):
            raise ValueError(f"noise_power must be >= 0, got {self.noise_power}")
        if not (self.bandwidth > 0):
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")


@dataclass(frozen=True)
class MobilityParams:
    """User velocity (km/h) and per-handover signaling delay (s)."""

    velocity: float = 100.0
    ho_delay: float = 0.7

    def __post_init__(self):
        if not (self.velocity >= 0):
            raise ValueError(f"velocity must be >= 0, got {self.velocity}")
        if not (self.ho_delay >= 0):
            raise ValueError(f"ho_delay must be >= 0, got {self.ho_delay}")


@dataclass(frozen=True)
class OverheadParams:
    """Fraction of capacity consumed by control signaling, per scheme family."""

    u_conventional: float = 0.3
    u_skipping: float = 0.15

    def __post_init__(self):
        for name in ("u_conventional", "u_skipping"):
            u = getattr(self, name)
            if not (0 <= u < 1):
                raise ValueError(f"{name} must be in [0, 1), got {u}")


@dataclass(frozen=True)
class SchemeSpec:
    """Association scheme plus interference-cancellation / precoding flags.

    ic       : cancel the nearest (skipped) BS from the interference
    coherent : phase-aligned precoding benchmark; simulation-only and valid
               only for the cooperative scheme
    """

    association: Association = Association.BEST_CONNECTED
    ic: bool = False
    coherent: bool = False

    def __post_init__(self):
        if self.coherent and self.association is not Association.SKIP_COOP:
            raise CoherentWithoutCoop(
                f"coherent=True requires the cooperative scheme, got {self.association}")
        if self.ic and self.association is Association.BEST_CONNECTED:
            raise IcOnBestConnected("IC is undefined for best-connected association")

    @property
    def scheme_id(self) -> str:
        tags = [self.association.value]
        if self.ic:
            tags.append("ic")
        if self.coherent:
            tags.append("coh")
        return "+".join(tags)


#: The five variants with an analytic coverage, in Table 1 order: best
#: connected, then skip and skip-comp, each without and with IC.
ANALYTIC_VARIANTS = (SchemeSpec(Association.BEST_CONNECTED),) + tuple(
    SchemeSpec(assoc, ic=ic)
    for assoc in (Association.SKIP_NO_COOP, Association.SKIP_COOP)
    for ic in (False, True)
)

#: Every variant the Monte Carlo oracle simulates: the analytic five plus the
#: coherent-precoding benchmark, without and with IC.
VARIANTS = ANALYTIC_VARIANTS + tuple(
    SchemeSpec(Association.SKIP_COOP, ic=ic, coherent=True) for ic in (False, True)
)


def db_to_linear(t_db: float) -> float:
    """Convert a dB value to a linear power ratio; ValueError unless the ratio
    is positive and finite (a finite dB value may over- or underflow)."""
    try:
        x = 10.0 ** (t_db / 10.0)
    except OverflowError:
        x = math.inf
    if not (0.0 < x < math.inf):
        raise ValueError(f"{t_db:g} dB: no positive finite linear value")
    return x


KMH_TO_KMS = 1.0 / 3600.0
