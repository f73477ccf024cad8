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

Both hypergeometric functions are F(beta, x) = 2F1(1, beta; 1+beta; -x) =
beta * int_0^1 t^(beta-1)/(1+xt) dt, at beta = 1 -+ 2/eta in (0, 2), and
``hyp2f1_beta`` is the one numpy kernel of both: for x <= 1 a fixed convergent
of Gauss's continued fraction (DLMF 15.7), a ratio of two degree-10
polynomials with positive coefficients; for x > 1 the 1/x connection formula
(DLMF 15.8.2), its poles at integer beta cancelled in closed form and its
remaining series the same continued fraction at 1/x.  No value depends on any
other, only on its own x.

Both kernels have arctan closed forms at eta = 4; ``eta4_closed_form`` is the
one place that picks them, at eta == 4.0 exactly, so every other eta takes the
2F1 forms, however near 4 it is.  The analytic integrals run on fixed
Gauss-Legendre nodes (``gauss_legendre``) over whole arrays of thresholds,
and ``fixed_rule`` checks each result against the same integral on half the
nodes; ``integrate_1d`` is that pair for a single integral.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, Tuple

import numpy as np


class QuadratureError(RuntimeError):
    """A fixed-node integral disagreed with itself on half the nodes."""


FIXED_RULE_REL_TOL = 1e-8  # most |all nodes - half the nodes| / |all nodes|


def eta4_closed_form(eta: float) -> bool:
    """Whether the kernels' arctan closed forms apply: at eta = 4 exactly."""
    return eta == 4.0


CF_MAX_X = 1.0  # hyp2f1_beta's branch edge: both branches run _gauss on [0, 1]
GAUSS_CF_LEVELS = 20  # the convergent F = A/B: A and B of degree 10


@lru_cache(maxsize=256)
def _gauss_cf(beta: float) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The coefficients of A and B, highest degree first, where A/B is the
    GAUSS_CF_LEVELS-th convergent of Gauss's continued fraction
    F(beta, y) = 1/(1 + a1 y/(1 + a2 y/(1 + ...))), with
    a_(2i+1) = (beta+i)^2/((beta+2i)(beta+2i+1)) and
    a_(2i+2) = (i+1)^2/((beta+2i+1)(beta+2i+2)) (DLMF 15.7).  Every a_n is
    positive, so every coefficient of A and B is a sum of positive products."""
    # 1 + a1 y/(1 + a2 y/(1 + ...)) = B/A; both by P_n = P_(n-1) + a_n y P_(n-2).
    deg = GAUSS_CF_LEVELS // 2
    prev_num, num = [0.0] * (deg + 1), [1.0] + [0.0] * deg
    prev_den, den = num, num
    for n in range(1, GAUSS_CF_LEVELS + 1):
        i = (n - 1) // 2
        c = beta + n - 1
        an = ((beta + i) ** 2 if n % 2 else (i + 1) ** 2) / (c * (c + 1.0))
        prev_num, num = num, [p + an * q for p, q in zip(num, [0.0] + prev_num)]
        prev_den, den = den, [p + an * q for p, q in zip(den, [0.0] + prev_den)]
    return tuple(reversed(num)), tuple(reversed(den))


def _horner(coef: Tuple[float, ...], w: np.ndarray) -> np.ndarray:
    total = np.full_like(w, coef[0])
    for c in coef[1:]:
        total *= w
        total += c
    return total


def _pole_factors(d: float) -> Tuple[float, float]:
    """g = pi*d/sin(pi*d) and (g - 1)/d, for |d| <= 1/2; y - sin(y), y = pi*d,
    is summed as its series, which does not cancel."""
    if d == 0.0:
        return 1.0, 0.0
    y = math.pi * d
    # y^3/3! - y^5/5! + ... - y^21/21!; at |y| <= pi/2 the first term left
    # out is below 2e-18 of the sum.
    term, y_minus_sin = y, 0.0
    for k in range(1, 11):
        term *= -y * y / ((2 * k) * (2 * k + 1))
        y_minus_sin -= term
    sin = math.sin(y)
    return y / sin, math.pi * y_minus_sin / (y * sin)


def _gauss(beta: float, y: np.ndarray) -> np.ndarray:
    """F(beta, y) for y in [0, 1]: A(y)/B(y) (``_gauss_cf``), within 6.4e-16
    relative of mpmath."""
    num, den = _gauss_cf(beta)
    out = _horner(num, y)
    out /= _horner(den, y)
    return out


def hyp2f1_beta(beta: float, x) -> np.ndarray:
    """F(beta, x) = 2F1(1, beta; 1+beta; -x) for 0 < beta <= 2 and finite x >= 0
    (an array), to ~1e-15 relative; each value depends on beta and its x alone.

    x <= CF_MAX_X: F = A(x)/B(x), Gauss's continued fraction (``_gauss``).
    x > CF_MAX_X, by the 1/x connection formula:
    F = beta * (pi/sin(pi*beta) x^-beta - sum_n (-1)^n x^-(n+1)/(n+1-beta)).
    With m the integer nearest beta and d = beta - m, the n = m-1 term's pole
    at integer beta cancels the sine's: together they are (-1)^m x^-m times
    core = (g*expm1(-d ln x) + g - 1)/d, g = pi*d/sin(pi*d), which holds
    accuracy as beta -> 1 (eta -> inf) and beta -> 2 (eta -> 2).  The terms
    from n = m on are (-1)^m x^-m times
    tail = sum_k (-1)^k x^-(k+1)/(k+a) = F(a, 1/x)/(a x), a = 1 - d in
    [1/2, 3/2], so the same continued fraction serves both branches.
    """
    if not 0.0 < beta <= 2.0:
        raise ValueError(f"beta must be in (0, 2], got {beta}")
    x = np.asarray(x, dtype=float)
    # The continued fraction over every value, clipped to its branch, then
    # the values beyond the edge replaced.
    out = _gauss(beta, np.minimum(x, CF_MAX_X))
    far = x > CF_MAX_X
    xf = x[far]
    m = math.floor(beta + 0.5)
    d = beta - m
    # Over a, then over x: a*x may overflow.
    tail = _gauss(1.0 - d, 1.0 / xf) / (1.0 - d) / xf
    if m == 0:
        core = math.pi / math.sin(math.pi * beta) * np.power(xf, -beta)
    else:
        g, g_minus_1 = _pole_factors(d)
        lnx = np.log(xf)
        core = g * (np.expm1(-d * lnx) / d if d else -lnx) + g_minus_1
    value = (-1.0) ** m * beta * (core - tail) / xf ** min(m, 1)
    if m == 2:  # the n = 0 term; x^-2 in two steps, as x^2 may overflow
        value = (value - beta / (1.0 - beta)) / xf
    out[far] = value
    return out[()]


def hyp2f1_lt(eta: float, x):
    """2F1(1, 1-2/eta; 2-2/eta; -x) for eta > 2 and x >= 0 (an array)."""
    if not (eta > 2):
        raise ValueError(f"eta must be > 2, got {eta}")
    if np.any(np.asarray(x) < 0):
        raise ValueError(f"x must be >= 0, got {x}")
    return hyp2f1_beta(1.0 - 2.0 / eta, x)


def agg_exponent(eta: float, x):
    """c(x) = 2x/(eta-2) * 2F1(1, 1-2/eta; 2-2/eta; -x); sqrt(x)*arctan(sqrt(x)) at eta = 4."""
    if eta4_closed_form(eta):
        g = np.sqrt(x)
        return g * np.arctan(g)
    return x / (0.5 * (eta - 2.0)) * hyp2f1_lt(eta, x)  # 2x may overflow


_ETA4_SERIES = [(-1.0) ** k / (2 * k + 3) for k in range(9)]  # 1/3, -1/5, ...


def nearest_lt(eta: float, b):
    """2 * int_0^1 w / (1 + b*w^-eta) dw; 1 - sqrt(b)*arctan(1/sqrt(b)) at eta = 4.

    Elsewhere the 2F1 form; where 1/b overflows (b = 0 or subnormal),
    1 - b^(2/eta)/sinc(2/eta) + O(b) instead.
    """
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        if eta4_closed_form(eta):
            sb = np.sqrt(b)
            lt = np.asarray(1.0 - sb * np.arctan(1.0 / sb))  # arctan(inf): b = 0 exact
            # The difference cancels, to 3e-16*b relative; above b = 100 take
            # its series x/3 - x^2/5 + x^3/7 - ..., x = 1/b, to 9 terms instead.
            far = b > 100.0
            x = 1.0 / b[far]
            series = _ETA4_SERIES[-1] * x
            for c in _ETA4_SERIES[-2::-1]:  # Horner, in place
                series += c
                series *= x
            lt[far] = series
            return lt[()]
        x = 1.0 / b
    tiny = np.isinf(x)
    lt = np.asarray(2.0 / (eta + 2.0) * x
                    * hyp2f1_beta(1.0 + 2.0 / eta, np.where(tiny, 0.0, x)))
    lt[tiny] = 1.0 - b[tiny] ** (2.0 / eta) / np.sinc(2.0 / eta)
    return lt[()]


CHUNK_VALUES = 1 << 16  # most values one gauss_legendre integrand call holds
_legendre = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def legendre_chunks(lower, upper, n: int, coarse: bool = False
                    ) -> Tuple[np.ndarray, Iterator[Tuple[np.ndarray, np.ndarray]]]:
    """(half, chunks) of n Gauss-Legendre nodes (n // 2 if coarse) on
    [lower, upper], elementwise over the bounds' broadcast shape: chunks yields
    (x, w), the nodes along a new last axis, at most CHUNK_VALUES values at a
    time, and their weights, so int f = half * sum(f(x) @ w)."""
    x, w = _legendre(n // 2 if coarse else n)
    lower = np.asarray(lower, dtype=float)
    half = 0.5 * (np.asarray(upper, dtype=float) - lower)
    step = max(1, CHUNK_VALUES // max(1, half.size))
    return half, ((lower[..., None] + half[..., None] * (x[i:i + step] + 1.0),
                   w[i:i + step]) for i in range(0, len(x), step))


def gauss_legendre(f: Callable, lower, upper, n: int, coarse: bool = False):
    """int_lower^upper f(x) dx on the nodes of ``legendre_chunks``."""
    half, chunks = legendre_chunks(lower, upper, n, coarse)
    return half * sum(f(x) @ w for x, w in chunks)


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
