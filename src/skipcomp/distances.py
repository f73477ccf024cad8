"""Ordered nearest-BS distance distributions for a homogeneous PPP.

For a test user at the origin, the squared distances to the BSs of a planar
PPP of intensity lambda form a 1-D PPP of rate pi*lambda (mapping theorem), so
v = pi*lambda*r^2 of the k-th nearest BS is the sum of k iid Exp(1) gaps.
Cumulative sums of such gaps give the k nearest BSs exactly and already
sorted, in units that do not depend on lambda; the Monte Carlo oracle draws
them so, and the (r1, r2, r3) sampler scales them to km.

The densities accept floats or numpy arrays (evaluated elementwise); a scalar
call returns a numpy float.
"""

from __future__ import annotations

import math
import numpy as np


def _check_lambda(lam: float) -> None:
    if not (lam > 0):
        raise ValueError(f"intensity must be > 0, got {lam}")


def _check_nonneg(*values) -> None:
    for v in values:
        if (np.asarray(v) < 0).any():
            raise ValueError(f"distances must be >= 0, got {np.min(v)}")


def _finite_scale(scale: float, what: str, lam: float) -> float:
    if not math.isfinite(scale):
        raise FloatingPointError(f"{what} overflows at intensity {lam}")
    return scale


def joint_pdf_r123(x, y, z, lam: float):
    """Joint density of the three ordered nearest-BS distances, km^-3:
    (2a)^3 xyz e^(-a z^2) = 8 a^(3/2) (v1 v2 v3)^(1/2) e^(-v3), v = a r^2.
    FloatingPointError where a^(3/2) overflows (lambda above ~1e204)."""
    _check_lambda(lam)
    _check_nonneg(x, y, z)
    a = math.pi * lam
    scale = _finite_scale(8.0 * a * math.sqrt(a), "joint density of r1-r3",
                          lam)
    v3 = a * z * z
    return np.where((x <= y) & (y <= z), scale * (
        np.sqrt(a * x * x * (a * y * y) * v3) * np.exp(-v3)), 0.0)[()]


def marginal_pdf_r1(r, lam: float):
    """Rayleigh density of the nearest-BS distance."""
    _check_lambda(lam)
    _check_nonneg(r)
    a = math.pi * lam
    return 2.0 * a * r * np.exp(-a * r * r)


def marginal_pdf_r2(y, lam: float):
    """Density of the second-nearest-BS distance: 2a^2 y^3 e^(-a y^2) =
    2 a^(1/2) v^(3/2) e^(-v), v = a y^2."""
    _check_lambda(lam)
    _check_nonneg(y)
    a = math.pi * lam
    v = a * y * y
    return 2.0 * math.sqrt(a) * (v * np.sqrt(v) * np.exp(-v))


def joint_pdf_r2_r3(y, z, lam: float):
    """Joint density of the second and third nearest-BS distances:
    4a^3 y^3 z e^(-a z^2) = 4a v2^(3/2) v3^(1/2) e^(-v3), v = a r^2.
    FloatingPointError where 4a overflows (lambda above ~1e307)."""
    _check_lambda(lam)
    _check_nonneg(y, z)
    a = math.pi * lam
    scale = _finite_scale(4.0 * a, "joint density of r2, r3", lam)
    v2, v3 = a * y * y, a * z * z
    return np.where(y <= z, scale * (
        v2 * np.sqrt(v2 * v3) * np.exp(-v3)), 0.0)[()]


def conditional_pdf_r1_given_r2(x, r2):
    """Density of the nearest-BS distance given the second-nearest at r2."""
    if not (np.asarray(r2) > 0).all():
        raise ValueError(f"r2 must be > 0, got {np.min(r2)}")
    _check_nonneg(x)
    return np.where(x <= r2, 2.0 * x / (r2 * r2), 0.0)[()]


def sample_ordered_v(rng: np.random.Generator, size: int, k: int) -> np.ndarray:
    """v = pi*lambda*r^2 of the k nearest BSs, shape (size, k), ascending: each
    row is the cumulative sum of k iid Exp(1) gaps, exact, with no count,
    window or sort, and the same at every intensity."""
    v = rng.standard_exponential((size, k))
    return np.cumsum(v, axis=1, out=v)


def sample_ordered_distances_array(
    lam: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """`size` exact (r1, r2, r3) triples in km, shape (size, 3), from v.
    FloatingPointError where 1/(pi*lambda) or a squared distance overflows
    (lambda below ~1e-307)."""
    _check_lambda(lam)
    scale = _finite_scale(1.0 / (math.pi * lam), "squared-distance scale", lam)
    with np.errstate(over="raise"):
        return np.sqrt(sample_ordered_v(rng, size, 3) * scale)
