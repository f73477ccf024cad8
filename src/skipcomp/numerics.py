"""Special functions and quadrature backing the analytic coverage integrals.

Every Rayleigh-fading interference Laplace transform in the model is built
from two scale-free kernels:

  agg_exponent(eta, x) = 2x/(eta-2) * 2F1(1, 1-2/eta; 2-2/eta; -x), the
      exponent of the transform of all BSs beyond a distance r, divided by
      pi*lambda*r^2, at x = s*P*r^-eta;
  nearest_lt(eta, b)   = 2 * int_0^1 w / (1 + b*w^-eta) dw, the transform of
      one BS uniform in the disc of radius r, at b = s*P*r^-eta.

Both have arctan closed forms at eta = 4; ``eta4_closed_form`` is the one
place that decides when they apply.  Semi-infinite integrals are delegated to
adaptive Gauss-Kronrod quadrature (scipy), which maps infinite intervals
internally; the integrands of interest decay like Gaussian tails, so
convergence is fast.
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

    def quad(self, f: Callable, lower: float, upper: float, args: tuple = (),
             full_output: int = 0):
        """scipy's adaptive Gauss-Kronrod quadrature at these tolerances."""
        return integrate.quad(f, lower, upper, args=args, full_output=full_output,
                              epsabs=self.abs_tol, epsrel=self.rel_tol,
                              limit=self.max_subdivisions)

    def accepts(self, value: float, err: float) -> bool:
        """Whether an error estimate is within ten times the tolerance."""
        return err <= self.abs_tol * 10 or err <= self.rel_tol * abs(value) * 10


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


def eta4_closed_form(eta: float) -> bool:
    """Whether the kernels' eta = 4 arctan closed forms apply at this eta."""
    return abs(eta - 4.0) < 1e-9


def hyp2f1_lt(eta: float, x: float) -> float:
    """2F1(1, 1-2/eta; 2-2/eta; -x) for eta > 2 and x >= 0."""
    if not (eta > 2):
        raise ValueError(f"eta must be > 2, got {eta}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 1.0
    return float(special.hyp2f1(1.0, 1.0 - 2.0 / eta, 2.0 - 2.0 / eta, -x))


def agg_exponent(eta: float, x: float, closed_form: bool = True) -> float:
    """c(x) = 2x/(eta-2) * 2F1(1, 1-2/eta; 2-2/eta; -x); sqrt(x)*arctan(sqrt(x)) at eta = 4.

    closed_form=False evaluates the general form at every eta.
    """
    if closed_form and eta4_closed_form(eta):
        g = math.sqrt(x)
        return g * math.atan(g)
    return 2.0 * x / (eta - 2.0) * hyp2f1_lt(eta, x)


def nearest_lt(eta: float, b: float, closed_form: bool = True) -> float:
    """2 * int_0^1 w / (1 + b*w^-eta) dw; 1 - sqrt(b)*arctan(1/sqrt(b)) at eta = 4.

    closed_form=False evaluates the integral by quadrature at every eta.  It
    runs once per node of an outer integral, so it skips ``integrate_1d``,
    whose ``full_output`` and result object make such a call ~1.4x as costly.
    """
    if b == 0:
        return 1.0
    if closed_form and eta4_closed_form(eta):
        sb = math.sqrt(b)
        return 1.0 - sb * math.atan(1.0 / sb)
    value, err = DEFAULT_QUAD.quad(
        lambda w: 2.0 * w / (1.0 + b * w ** (-eta)), 0.0, 1.0)
    if not DEFAULT_QUAD.accepts(value, err):
        raise QuadratureError(f"nearest_lt(eta={eta}, b={b}) did not converge "
                              f"(value={value}, err={err})")
    return value


def integrate_1d(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> IntegrationResult:
    """Adaptive integral of f over [lower, upper]; upper may be +inf."""
    out = spec.quad(f, lower, upper, full_output=1)
    value, err = out[0], out[1]
    ok = len(out) < 4  # quad appends a message on trouble
    return IntegrationResult(value=value, error_estimate=err,
                             converged=ok and spec.accepts(value, err))


def integrate_ordered_2d(
    f: Callable[[float, float], float],
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> IntegrationResult:
    """Integral of f(y, z) over the ordered wedge 0 <= y <= z < inf."""

    def outer(z: float) -> float:
        return spec.quad(f, 0.0, z, args=(z,))[0]

    return integrate_1d(outer, 0.0, np.inf, spec)


def integrate_ordered_3d(
    f: Callable[[float, float, float], float],
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> IntegrationResult:
    """Integral of f(x, y, z) over the cone 0 <= x <= y <= z < inf."""

    def middle(y: float, z: float) -> float:
        return spec.quad(lambda x: f(x, y, z), 0.0, y)[0]

    return integrate_ordered_2d(middle, spec)
