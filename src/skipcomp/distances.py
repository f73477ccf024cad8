"""Ordered nearest-BS distance distributions for a homogeneous PPP.

For a test user at the origin, the squared distances to the BSs of a planar
PPP of intensity lambda form a 1-D PPP of rate pi*lambda (mapping theorem), so
v = pi*lambda*r^2 of the k-th nearest BS is the sum of k iid Exp(1) gaps.
Cumulative sums of such gaps give the k nearest BSs exactly and already
sorted, in units that do not depend on lambda; the Monte Carlo oracle draws
them so, and the (r1, r2, r3) sampler scales them to km.

The densities accept floats or numpy arrays (evaluated elementwise); a scalar
call returns a float.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .model import OrderedDistances


def _check_lambda(lam: float) -> None:
    if not (lam > 0):
        raise ValueError(f"intensity must be > 0, got {lam}")


def _check_nonneg(*values) -> None:
    for v in values:
        if (v < 0).any() if isinstance(v, np.ndarray) else v < 0:
            raise ValueError(f"distances must be >= 0, got {np.min(v)}")


# Scalars take the math module, arrays numpy: a density is written once and
# costs a scalar caller (a quadrature integrand) no array overhead.

def _exp(v):
    return np.exp(v) if isinstance(v, np.ndarray) else math.exp(v)


def _density(value, inside):
    """value where inside holds and 0 elsewhere."""
    if isinstance(inside, np.ndarray):
        return np.where(inside, value, 0.0)
    return float(value) if inside else 0.0


def joint_pdf_r123(x, y, z, lam: float):
    """Joint density of the three ordered nearest-BS distances, km^-3."""
    _check_lambda(lam)
    _check_nonneg(x, y, z)
    a = math.pi * lam
    return _density((2.0 * a) ** 3 * x * y * z * _exp(-a * z * z),
                    (x <= y) & (y <= z))


def marginal_pdf_r1(r, lam: float):
    """Rayleigh density of the nearest-BS distance."""
    _check_lambda(lam)
    _check_nonneg(r)
    a = math.pi * lam
    return 2.0 * a * r * _exp(-a * r * r)


def marginal_pdf_r2(y, lam: float):
    """Density of the second-nearest-BS distance."""
    _check_lambda(lam)
    _check_nonneg(y)
    a = math.pi * lam
    return 2.0 * a ** 2 * y ** 3 * _exp(-a * y * y)


def joint_pdf_r2_r3(y, z, lam: float):
    """Joint density of the second and third nearest-BS distances."""
    _check_lambda(lam)
    _check_nonneg(y, z)
    a = math.pi * lam
    return _density(4.0 * a ** 3 * y ** 3 * z * _exp(-a * z * z), y <= z)


def conditional_pdf_r1_given_r2(x, r2):
    """Density of the nearest-BS distance given the second-nearest at r2."""
    if not ((r2 > 0).all() if isinstance(r2, np.ndarray) else r2 > 0):
        raise ValueError(f"r2 must be > 0, got {np.min(r2)}")
    _check_nonneg(x)
    return _density(2.0 * x / (r2 * r2), x <= r2)


def sample_ordered_v(rng: np.random.Generator, size: int, k: int,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """v = pi*lambda*r^2 of the k nearest BSs, shape (size, k), ascending, into
    ``out`` if given: each row is the cumulative sum of k iid Exp(1) gaps,
    exact, with no count, window or sort, and the same at every intensity."""
    v = rng.standard_exponential((size, k), out=out)
    return np.cumsum(v, axis=1, out=v)


def sample_ordered_distances_array(
    lam: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """`size` exact (r1, r2, r3) triples in km, shape (size, 3), from v."""
    _check_lambda(lam)
    return np.sqrt(sample_ordered_v(rng, size, 3) * (1.0 / (math.pi * lam)))


def sample_ordered_distances(lam: float, rng: np.random.Generator) -> OrderedDistances:
    """Draw a single exact (r1, r2, r3) triple."""
    r1, r2, r3 = sample_ordered_distances_array(lam, rng, 1)[0]
    return OrderedDistances(float(r1), float(r2), float(r3))
