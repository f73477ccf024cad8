import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from skipcomp import numerics
from skipcomp.distances import joint_pdf_r123, joint_pdf_r2_r3, marginal_pdf_r1
from skipcomp.numerics import (
    IntegrationResult,
    QuadratureError,
    QuadratureSpec,
    agg_exponent,
    hyp2f1_lt,
    integrate_1d,
    integrate_ordered_2d,
    integrate_ordered_3d,
)


def series_2f1(eta, x, terms=400):
    """Brute-force power series of 2F1(1, 1-2/eta; 2-2/eta; -x), |x| < 1."""
    b, c = 1.0 - 2.0 / eta, 2.0 - 2.0 / eta
    total, coeff = 0.0, 1.0
    for n in range(terms):
        total += coeff * (-x) ** n
        coeff *= (1.0 + n) * (b + n) / ((c + n) * (1.0 + n))
    return total


def euler_integral_2f1(eta, x):
    """Euler representation: (1-2/eta) * int_0^1 t^(-2/eta) / (1+xt) dt."""
    res = integrate_1d(
        lambda t: t ** (-2.0 / eta) / (1.0 + x * t), 0.0, 1.0
    )
    return (1.0 - 2.0 / eta) * res.require()


def best_connected_rho(eta, t):
    """rho(T) = T^(2/eta) * int_{T^(-2/eta)}^inf dw / (1 + w^(eta/2)), by quadrature."""
    res = integrate_1d(
        lambda w: 1.0 / (1.0 + w ** (eta / 2.0)), t ** (-2.0 / eta), np.inf)
    return t ** (2.0 / eta) * res.require()


@pytest.mark.parametrize("closed_form", [True, False])
@pytest.mark.parametrize("eta", [2.5, 3.0, 3.5, 4.0, 6.0])
def test_agg_exponent_is_the_best_connected_sir_kernel(eta, closed_form):
    # Largest deviation seen: 1.1e-10 relative, at eta = 2.5.
    for t_db in range(-10, 21):
        t = 10.0 ** (t_db / 10.0)
        assert agg_exponent(eta, t, closed_form) == pytest.approx(
            best_connected_rho(eta, t), rel=1e-9)


def test_hyp2f1_at_zero_is_one():
    assert hyp2f1_lt(4.0, 0.0) == 1.0
    assert hyp2f1_lt(3.0, 0.0) == 1.0


def test_hyp2f1_eta4_arctan_anchor():
    assert hyp2f1_lt(4.0, 1.0) == pytest.approx(math.pi / 4.0, abs=1e-12)


@pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 10.0, 100.0])
def test_hyp2f1_eta4_arctan_identity(x):
    assert hyp2f1_lt(4.0, x) * math.sqrt(x) == pytest.approx(
        math.atan(math.sqrt(x)), abs=1e-10
    )


def test_hyp2f1_eta3_against_independent_oracles():
    got = hyp2f1_lt(3.0, 2.0)
    assert got == pytest.approx(euler_integral_2f1(3.0, 2.0), abs=1e-9)
    # series oracle only converges for |x| < 1
    assert hyp2f1_lt(3.0, 0.4) == pytest.approx(series_2f1(3.0, 0.4), abs=1e-10)


@pytest.mark.parametrize("eta", [2.5, 3.0, 4.0, 6.0])
def test_hyp2f1_monotone_decreasing_and_bounded(eta):
    xs = np.logspace(-3, 3, 25)
    vals = [hyp2f1_lt(eta, x) for x in xs]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_hyp2f1_rejects_degenerate_eta():
    with pytest.raises(ValueError):
        hyp2f1_lt(2.0, 1.0)
    with pytest.raises(ValueError):
        hyp2f1_lt(1.5, 1.0)


def test_integrate_1d_known_integrals():
    assert integrate_1d(math.exp, -np.inf, 0.0).require() == pytest.approx(1.0)
    assert integrate_1d(lambda x: math.exp(-x), 0.0, np.inf).require() \
        == pytest.approx(1.0, abs=1e-10)
    assert integrate_1d(lambda x: 2.0 * x, 0.0, 1.0).require() \
        == pytest.approx(1.0, abs=1e-12)


def test_integrate_1d_rayleigh_normalization():
    lam = 50.0
    res = integrate_1d(lambda r: marginal_pdf_r1(r, lam), 0.0, np.inf)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_integrate_ordered_3d_joint_pdf_normalization():
    res = integrate_ordered_3d(
        lambda x, y, z: joint_pdf_r123(x, y, z, 1.0),
        QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10),
    )
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_integrate_ordered_3d_zero_function():
    res = integrate_ordered_3d(lambda x, y, z: 0.0)
    assert res.value == 0.0


def test_integrate_ordered_2d_joint_r2_r3_normalization():
    res = integrate_ordered_2d(lambda y, z: joint_pdf_r2_r3(y, z, 10.0))
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_quadrature_deterministic():
    f = lambda x: math.exp(-x * x) * math.cos(3 * x)
    a = integrate_1d(f, 0.0, np.inf)
    b = integrate_1d(f, 0.0, np.inf)
    assert a == b  # bit-identical


def test_integration_result_invariants():
    with pytest.raises(ValueError):
        IntegrationResult(value=1.0, error_estimate=-1.0, converged=True)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)


def test_quadrature_spec_accepts_ten_times_the_tolerance():
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    assert spec.accepts(1.0, 1e-7)
    assert not spec.accepts(1.0, 1.1e-7)
    assert spec.accepts(0.0, 1e-11)
    assert not spec.accepts(0.0, 1.1e-11)


@pytest.mark.filterwarnings("ignore", category=IntegrationWarning)
def test_nearest_lt_raises_when_its_quadrature_does_not_converge(monkeypatch):
    monkeypatch.setattr(numerics, "DEFAULT_QUAD", QuadratureSpec(
        rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=1))
    with pytest.raises(QuadratureError):
        numerics.nearest_lt(3.5, 0.01)
