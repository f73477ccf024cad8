"""Error-controlled reference integrals for the tests: scipy's adaptive quad.

The program integrates on fixed Gauss-Legendre nodes (``skipcomp.numerics``);
the tests check it against these, which share none of its code.  Every call
raises OracleError unless quad reports no trouble and an error estimate
within ten times the tolerance, so a test never compares against a
reference that missed it.
"""

import math

from scipy import integrate

REL_TOL = 1e-8
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 200


class OracleError(AssertionError):
    """quad missed its tolerance: the reference value cannot be trusted."""


def quad(f, lower, upper):
    """int_lower^upper f(x) dx for a scalar f; either bound may be infinite."""
    value, err, _, *trouble = integrate.quad(
        f, lower, upper, full_output=1, epsabs=ABS_TOL, epsrel=REL_TOL,
        limit=MAX_SUBDIVISIONS)
    if trouble or not (err <= 10 * ABS_TOL or err <= 10 * REL_TOL * abs(value)):
        raise OracleError(f"quad missed its tolerance on [{lower}, {upper}]: "
                          f"value {value}, error {err}, {trouble[:1]}")
    return value


def integrate_ordered_2d(f):
    """int f(y, z) over the wedge 0 <= y <= z < inf; each inner integral
    must meet the tolerance too."""
    return quad(lambda z: quad(lambda y: f(y, z), 0.0, z), 0.0, math.inf)


def integrate_ordered_3d(f):
    """int f(x, y, z) over the cone 0 <= x <= y <= z < inf."""
    return integrate_ordered_2d(lambda y, z: quad(lambda x: f(x, y, z), 0.0, y))
