import math

import numpy as np
import pytest

from oracles import OracleError, integrate_ordered_2d, integrate_ordered_3d, quad
from skipcomp.checks import ETA4_REFERENCE
from skipcomp.distances import joint_pdf_r123, joint_pdf_r2_r3, marginal_pdf_r1
from skipcomp.numerics import (
    QuadratureError,
    agg_exponent,
    fixed_rule,
    gauss_legendre,
    hyp2f1_lt,
    integrate_1d,
    nearest_lt,
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
    return (1.0 - 2.0 / eta) * quad(
        lambda t: t ** (-2.0 / eta) / (1.0 + x * t), 0.0, 1.0)


def best_connected_rho(eta, t):
    """rho(T) = T^(2/eta) * int_{T^(-2/eta)}^inf dw / (1 + w^(eta/2)), by quadrature."""
    return t ** (2.0 / eta) * quad(
        lambda w: 1.0 / (1.0 + w ** (eta / 2.0)), t ** (-2.0 / eta), np.inf)


@pytest.mark.parametrize("vectorised", [True, False])
@pytest.mark.parametrize("eta", [2.5, 3.0, 3.5, 4.0, ETA4_REFERENCE, 6.0])
def test_agg_exponent_is_the_best_connected_sir_kernel(eta, vectorised):
    # Largest deviation seen: 1.1e-10 relative, at eta = 2.5.
    ts = 10.0 ** (np.arange(-10, 21) / 10.0)
    expected = [best_connected_rho(eta, t) for t in ts]
    got = agg_exponent(eta, ts) if vectorised else [agg_exponent(eta, t) for t in ts]
    assert list(got) == pytest.approx(expected, rel=1e-9)


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
    assert integrate_1d(np.exp, -40.0, 0.0, 64) == pytest.approx(1.0)
    assert integrate_1d(lambda x: np.exp(-x), 0.0, 40.0, 64) \
        == pytest.approx(1.0, abs=1e-10)
    assert integrate_1d(lambda x: 2.0 * x, 0.0, 1.0, 2) \
        == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(QuadratureError):  # 8 nodes miss a peak of width 1e-3
        integrate_1d(lambda x: 1.0 / (1e-6 + x * x), -1.0, 1.0, 16)


def test_integrate_1d_rayleigh_normalization():
    lam = 50.0
    top = math.sqrt(60.0 / (math.pi * lam))  # tail e^-60
    assert integrate_1d(lambda r: marginal_pdf_r1(r, lam), 0.0, top, 64) \
        == pytest.approx(1.0, abs=1e-6)


def test_integrate_ordered_3d_joint_pdf_normalization():
    assert integrate_ordered_3d(lambda x, y, z: joint_pdf_r123(x, y, z, 1.0)) \
        == pytest.approx(1.0, abs=1e-6)


def test_integrate_ordered_3d_zero_function():
    assert integrate_ordered_3d(lambda x, y, z: 0.0) == 0.0


def test_integrate_ordered_2d_joint_r2_r3_normalization():
    assert integrate_ordered_2d(lambda y, z: joint_pdf_r2_r3(y, z, 10.0)) \
        == pytest.approx(1.0, abs=1e-6)


def test_quadrature_deterministic():
    f = lambda x: np.exp(-x * x) * np.cos(3 * x)
    a = integrate_1d(f, 0.0, 8.0, 64)
    b = integrate_1d(f, 0.0, 8.0, 64)
    assert a == b  # bit-identical


def nearest_lt_quad(eta, b):
    """2 * int_0^1 w / (1 + b*w^-eta) dw by adaptive quadrature: the
    definition that the 2F1 form of ``nearest_lt`` must reproduce."""
    return quad(lambda w: 2.0 * w / (1.0 + b * w ** (-eta)), 0.0, 1.0)


@pytest.mark.parametrize("eta", [2.1, 2.5, 3.0, 3.5, 6.0])
def test_nearest_lt_2f1_form_matches_its_quadrature(eta):
    bs = np.logspace(-8, 8, 33)
    got = nearest_lt(eta, bs)
    for b, value in zip(bs, got):
        assert value == pytest.approx(nearest_lt_quad(eta, b), rel=1e-7, abs=0.0)
    assert nearest_lt(eta, 0.0) == 1.0
    assert nearest_lt(eta, np.array([0.0, 1.0]))[0] == 1.0


#: nearest_lt(eta, b) in mpmath at 30 digits, from its 2F1 form, which agreed
#: with mpmath's quadrature of the integral to 1e-30.
NEAREST_LT_MPMATH = [
    (2.1, 1e-8, 0.99999971738200696),
    (2.1, 1.0, 0.30051037697806577),
    (2.1, 1e8, 4.8780487482297406e-9),
    (3.5, 1e-3, 0.96578178753383178),
    (3.5, 1e3, 0.00036341430128924389),
    (6.0, 1.0, 0.16435115173527895),
    (6.0, 1e8, 2.4999999857142858e-9),
]


@pytest.mark.parametrize("eta,b,expected", NEAREST_LT_MPMATH)
def test_nearest_lt_matches_mpmath(eta, b, expected):
    assert nearest_lt(eta, b) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("eta,x,expected", [
    (35.48, 1.7e308, 238317951620673563.74),
    (6.0, 1.7e308, 6.6985524161173884127e102),
])
def test_agg_exponent_at_huge_x_does_not_overflow(eta, x, expected):
    # From mpmath at 40 digits.  2x overflows beyond x ~ 9e307, which the
    # analytic SE's nodes reach above eta ~ 35.45; the value does not.
    assert agg_exponent(eta, x) == pytest.approx(expected, rel=1e-12)


#: nearest_lt(eta, b) in mpmath at 40 digits, from its 2F1 form, at the ends
#: of the doubles: where 1/b overflows (b subnormal) and where b*(eta + 2)
#: would (b near the largest double).  At eta = 1000 the value at b = 5e-324
#: is far from 1: it is 1 - O(b^(2/eta)).
NEAREST_LT_EXTREME_B = [
    (2.5, 5e-324, 1.0),
    (3.5, 1e-310, 1.0),
    (35.0, 3e-308, 0.99999999999999999731),
    (1000.0, 5e-324, 0.7743733335733629297),
    (1000.0, 1e-310, 0.76011512972198558053),
    (1000.0, 3e-308, 0.75736295954944374929),
    (2.5, 1e300, 4.4444444444444442111e-301),
    (3.5, 1.7e308, 2.1390374331550802909e-309),
    (35.0, 1e308, 5.4054054054054053461e-310),
]


@pytest.mark.parametrize("eta,b,expected", NEAREST_LT_EXTREME_B)
def test_nearest_lt_at_extreme_b(eta, b, expected):
    # Without a RuntimeWarning, which pytest turns into an error; a
    # subnormal value is held to a few of its ulps.
    assert nearest_lt(eta, b) == pytest.approx(expected, rel=1e-14, abs=1e-322)
    assert nearest_lt(eta, np.array([b, 1.0]))[0] == nearest_lt(eta, b)


def test_nearest_lt_eta4_closed_form_does_not_cancel_at_large_b():
    # 1 - sqrt(b)*arctan(1/sqrt(b)) loses 3e-16*b relative; the 2F1 form
    # does not.  Largest deviation seen: 2.4e-14 relative, just below b = 100.
    bs = np.logspace(-3, 30, 133)
    np.testing.assert_allclose(nearest_lt(4.0, bs),
                               nearest_lt(ETA4_REFERENCE, bs), rtol=1e-12)
    assert nearest_lt(4.0, 1e30) == pytest.approx(1.0 / 3e30, rel=1e-12)
    assert nearest_lt(4.0, 0.0) == 1.0


def test_gauss_legendre_integrates_over_array_bounds_in_chunks(monkeypatch):
    # 3 nodes per chunk: the rule must not depend on how the nodes are split.
    upper = np.array([[0.5, 1.0, 2.0]])
    whole = gauss_legendre(np.exp, 0.0, upper, 64)
    monkeypatch.setattr("skipcomp.numerics.CHUNK_VALUES", 9)
    chunked = gauss_legendre(np.exp, 0.0, upper, 64)
    assert whole.shape == (1, 3)
    np.testing.assert_allclose(whole, np.expm1(upper), rtol=1e-15)
    np.testing.assert_allclose(chunked, whole, rtol=1e-15)


def test_fixed_rule_raises_where_half_the_nodes_disagree():
    def spike(coarse):  # a peak of width 1e-3 that 8 nodes cannot resolve
        return gauss_legendre(lambda x: 1.0 / (1e-6 + x * x), -1.0,
                              np.array([1.0, -0.5]), 16, coarse)

    with pytest.raises(QuadratureError):
        fixed_rule(spike)
    smooth = fixed_rule(lambda coarse: gauss_legendre(np.cos, 0.0, 1.0, 16, coarse))
    assert smooth == pytest.approx(math.sin(1.0), rel=1e-15)


def test_integrate_ordered_2d_keeps_its_inner_errors():
    # Each inner integral, e^-z * int_0^1 sin(1/s) ds, misses its tolerance,
    # while the outer one, over a smooth e^-z, would converge: the oracle
    # refuses rather than return the outer value.
    with pytest.raises(OracleError):
        quad(lambda s: math.sin(1.0 / s), 0.0, 1.0)
    with pytest.raises(OracleError):
        integrate_ordered_2d(
            lambda y, z: math.exp(-z) / z * math.sin(z / y) if y > 0 else 0.0)
