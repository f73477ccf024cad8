"""Special functions and quadrature backing the analytic coverage integrals.

Every Rayleigh-fading interference Laplace transform in the model is built
from two scale-free kernels, both numpy array expressions:

  agg_exponent(eta, x) = 2x/(eta-2) * 2F1(1, 1-2/eta; 2-2/eta; -x), the
      exponent of the transform of all BSs beyond a distance r, divided by
      pi*lambda*r^2, at x = s*P*r^-eta;
  nearest_lt(eta, b)   = 2 * int_0^1 w / (1 + b*w^-eta) dw
                       = 2/(b(eta+2)) * 2F1(1, 1+2/eta; 2+2/eta; -1/b), the
      transform of one BS uniform in the disc of radius r, at b = s*P*r^-eta
      (Gradshteyn and Ryzhik 3.194).

Both have arctan closed forms at eta = 4; ``eta4_closed_form`` is the one
place that decides when they apply.  The analytic integrals run on fixed
Gauss-Legendre nodes (``gauss_legendre``) over whole arrays of thresholds,
and ``fixed_rule`` checks each result against the same integral on half the
nodes.  Adaptive quadrature (scipy) remains for the distance-PDF checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special


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
        # imported here: it costs ~0.5 s at start-up and only validate uses it
        from scipy import integrate
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


def hyp2f1_lt(eta: float, x):
    """2F1(1, 1-2/eta; 2-2/eta; -x) for eta > 2 and x >= 0 (an array)."""
    if not (eta > 2):
        raise ValueError(f"eta must be > 2, got {eta}")
    if np.any(np.asarray(x) < 0):
        raise ValueError(f"x must be >= 0, got {x}")
    return special.hyp2f1(1.0, 1.0 - 2.0 / eta, 2.0 - 2.0 / eta, -x)


def agg_exponent(eta: float, x, closed_form: bool = True):
    """c(x) = 2x/(eta-2) * 2F1(1, 1-2/eta; 2-2/eta; -x); sqrt(x)*arctan(sqrt(x)) at eta = 4.

    closed_form=False evaluates the general form at every eta.
    """
    if closed_form and eta4_closed_form(eta):
        g = np.sqrt(x)
        return g * np.arctan(g)
    return 2.0 * x / (eta - 2.0) * hyp2f1_lt(eta, x)


def nearest_lt(eta: float, b, closed_form: bool = True):
    """2 * int_0^1 w / (1 + b*w^-eta) dw; 1 - sqrt(b)*arctan(1/sqrt(b)) at eta = 4.

    Elsewhere, and at eta = 4 with closed_form=False, the 2F1 form; 1 at b = 0.
    """
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if closed_form and eta4_closed_form(eta):
            sb = np.sqrt(b)
            return 1.0 - sb * np.arctan(1.0 / sb)  # arctan(inf) makes b = 0 exact
        lt = 2.0 / (b * (eta + 2.0)) * special.hyp2f1(
            1.0, 1.0 + 2.0 / eta, 2.0 + 2.0 / eta, -1.0 / b)
    return np.where(b == 0, 1.0, lt)[()]


CHUNK_VALUES = 1 << 16  # most values one gauss_legendre integrand call holds
_legendre = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def gauss_legendre(f: Callable, lower, upper, n: int, coarse: bool = False):
    """int_lower^upper f(x) dx on n Gauss-Legendre nodes (n // 2 if coarse),
    elementwise over the bounds' broadcast shape; f gets the nodes along a new
    last axis, at most CHUNK_VALUES values at a time."""
    x, w = _legendre(n // 2 if coarse else n)
    lower = np.asarray(lower, dtype=float)
    half = 0.5 * (np.asarray(upper, dtype=float) - lower)
    step = max(1, CHUNK_VALUES // max(1, half.size))
    return half * sum(f(lower[..., None] + half[..., None] * (x[i:i + step] + 1.0))
                      @ w[i:i + step] for i in range(0, len(x), step))


def fixed_rule(integral: Callable[[bool], np.ndarray]) -> np.ndarray:
    """integral(False), checked against integral(True), which passes coarse
    to every ``gauss_legendre`` it nests.  Their difference, the error estimate
    of the half-node value and so a bound on the returned one's, may not
    exceed DEFAULT_QUAD.rel_tol relative, or QuadratureError is raised."""
    value, coarse = integral(False), integral(True)
    bad = ~(np.abs(value - coarse) <= DEFAULT_QUAD.rel_tol * np.abs(value))
    if np.any(bad):
        raise QuadratureError(f"fixed-node integral did not converge: {value[bad]} "
                              f"on all nodes, {coarse[bad]} on half of them")
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
    """Integral of f(y, z) over the ordered wedge 0 <= y <= z < inf.

    Inner error estimates add to the outer one; each must converge too.
    """
    inner = []

    def outer(z: float) -> float:
        inner.append(integrate_1d(lambda y: f(y, z), 0.0, z, spec))
        return inner[-1].value

    res = integrate_1d(outer, 0.0, np.inf, spec)
    return IntegrationResult(
        res.value, res.error_estimate + sum(r.error_estimate for r in inner),
        res.converged and all(r.converged for r in inner))


def integrate_ordered_3d(
    f: Callable[[float, float, float], float],
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> IntegrationResult:
    """Integral of f(x, y, z) over the cone 0 <= x <= y <= z < inf."""

    def middle(y: float, z: float) -> float:
        return spec.quad(lambda x: f(x, y, z), 0.0, y)[0]

    return integrate_ordered_2d(middle, spec)
