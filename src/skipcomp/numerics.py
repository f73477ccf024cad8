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
nodes; ``integrate_1d`` is that pair for a single integral.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special


class QuadratureError(RuntimeError):
    """A fixed-node integral disagreed with itself on half the nodes."""


FIXED_RULE_REL_TOL = 1e-8  # most |all nodes - half the nodes| / |all nodes|


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


_ETA4_SERIES = [(-1.0) ** k / (2 * k + 3) for k in range(9)]  # 1/3, -1/5, ...


def nearest_lt(eta: float, b, closed_form: bool = True):
    """2 * int_0^1 w / (1 + b*w^-eta) dw; 1 - sqrt(b)*arctan(1/sqrt(b)) at eta = 4.

    Elsewhere, and at eta = 4 with closed_form=False, the 2F1 form; 1 at b = 0.
    """
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if closed_form and eta4_closed_form(eta):
            sb = np.sqrt(b)
            lt = np.asarray(1.0 - sb * np.arctan(1.0 / sb))  # arctan(inf): b = 0 exact
            # The difference cancels, to 3e-16*b relative; above b = 100 take
            # its series x/3 - x^2/5 + x^3/7 - ..., x = 1/b, to 9 terms instead.
            far = b > 100.0
            if np.any(far):
                x = 1.0 / b[far]
                series = _ETA4_SERIES[-1] * x
                for c in _ETA4_SERIES[-2::-1]:  # Horner, in place
                    series += c
                    series *= x
                lt[far] = series
            return lt[()]
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
    exceed FIXED_RULE_REL_TOL relative, or QuadratureError is raised."""
    value, coarse = integral(False), integral(True)
    bad = ~(np.abs(value - coarse) <= FIXED_RULE_REL_TOL * np.abs(value))
    if np.any(bad):
        raise QuadratureError(f"fixed-node integral did not converge: {value[bad]} "
                              f"on all nodes, {coarse[bad]} on half of them")
    return value


def integrate_1d(f: Callable, lower: float, upper: float, n: int) -> float:
    """int_lower^upper f(x) dx on n Gauss-Legendre nodes, checked by
    ``fixed_rule``; f takes an array of nodes."""
    return float(fixed_rule(lambda coarse: gauss_legendre(f, lower, upper, n, coarse)))
