"""Special functions and quadrature backing the analytic coverage integrals.

The only hypergeometric family needed is 2F1(1, 1-2/eta; 2-2/eta; -x), the
kernel of the Rayleigh-fading interference Laplace transforms.  Semi-infinite
integrals are delegated to adaptive Gauss-Kronrod quadrature (scipy), which
maps infinite intervals internally; the integrands of interest decay like
Gaussian tails, so convergence is fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, special


class QuadratureError(RuntimeError):
    """An integral failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    converged: bool

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")

    def require(self) -> float:
        if not self.converged:
            raise QuadratureError(
                f"integral did not converge (value={self.value}, "
                f"err={self.error_estimate})"
            )
        return self.value


def hyp2f1_lt(eta: float, x: float) -> float:
    """2F1(1, 1-2/eta; 2-2/eta; -x) for eta > 2 and x >= 0.

    This is the exact parameter family in the interference Laplace
    transforms.  For eta = 4 the closed form arctan(sqrt(x))/sqrt(x) is used.
    """
    if not (eta > 2):
        raise ValueError(f"eta must be > 2, got {eta}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 1.0
    if abs(eta - 4.0) < 1e-9:
        sx = math.sqrt(x)
        return math.atan(sx) / sx
    return float(special.hyp2f1(1.0, 1.0 - 2.0 / eta, 2.0 - 2.0 / eta, -x))


def integrate_1d(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> IntegrationResult:
    """Adaptive integral of f over [lower, upper]; upper may be +inf."""
    out = integrate.quad(
        f,
        lower,
        upper,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    value, err = out[0], out[1]
    ok = len(out) < 4  # quad appends a message on trouble
    converged = ok and err <= max(spec.abs_tol, spec.rel_tol * abs(value)) * 10
    return IntegrationResult(value=value, error_estimate=err, converged=converged)


def integrate_ordered_2d(
    f: Callable[[float, float], float],
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> IntegrationResult:
    """Integral of f(y, z) over the ordered wedge 0 <= y <= z < inf."""

    def outer(z: float) -> float:
        inner = integrate.quad(
            f, 0.0, z, args=(z,), epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
        )
        return inner[0]

    return integrate_1d(outer, 0.0, np.inf, spec)


def integrate_ordered_3d(
    f: Callable[[float, float, float], float],
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> IntegrationResult:
    """Integral of f(x, y, z) over the cone 0 <= x <= y <= z < inf."""

    def middle(y: float, z: float) -> float:
        inner = integrate.quad(
            lambda x: f(x, y, z), 0.0, y, epsabs=spec.abs_tol,
            epsrel=spec.rel_tol, limit=spec.max_subdivisions,
        )
        return inner[0]

    return integrate_ordered_2d(middle, spec)
