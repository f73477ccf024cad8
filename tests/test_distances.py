import math

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import integrate_ordered_2d, integrate_ordered_3d, quad
from skipcomp.distances import (
    conditional_pdf_r1_given_r2,
    joint_pdf_r123,
    joint_pdf_r2_r3,
    marginal_pdf_r1,
    marginal_pdf_r2,
    sample_ordered_distances_array,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


# --------------------------------------------------------------------------
# Point evaluations
# --------------------------------------------------------------------------

def test_joint_pdf_direct_value():
    expected = (2 * math.pi) ** 3 * 0.1 * 0.2 * 0.3 * math.exp(-math.pi * 0.09)
    assert expected == pytest.approx(1.1218, abs=2e-4)  # frozen arithmetic
    assert joint_pdf_r123(0.1, 0.2, 0.3, 1.0) == pytest.approx(expected, rel=1e-12)


def test_joint_pdf_zero_outside_ordered_support():
    assert joint_pdf_r123(0.3, 0.2, 0.1, 1.0) == 0.0
    assert joint_pdf_r123(0.1, 0.3, 0.2, 1.0) == 0.0


def test_marginal_r1_zero_at_origin_and_rejects_negative():
    assert marginal_pdf_r1(0.0, 50.0) == 0.0
    with pytest.raises(ValueError):
        marginal_pdf_r1(-0.1, 50.0)
    with pytest.raises(ValueError):
        marginal_pdf_r1(0.1, 0.0)


def test_marginal_r2_zero_at_origin_and_mode():
    lam = 50.0
    assert marginal_pdf_r2(0.0, lam) == 0.0
    mode = math.sqrt(3.0 / (2.0 * math.pi * lam))
    eps = 1e-6
    assert marginal_pdf_r2(mode, lam) > marginal_pdf_r2(mode - eps, lam)
    assert marginal_pdf_r2(mode, lam) > marginal_pdf_r2(mode + eps, lam)


def test_joint_r2_r3_support():
    assert joint_pdf_r2_r3(0.2, 0.1, 50.0) == 0.0
    assert joint_pdf_r2_r3(0.1, 0.2, 50.0) > 0.0


def test_conditional_pdf_endpoint_and_support():
    assert conditional_pdf_r1_given_r2(0.3, 0.3) == pytest.approx(2.0 / 0.3)
    assert conditional_pdf_r1_given_r2(0.4, 0.3) == 0.0


def test_array_densities_match_scalar_calls():
    lam = 50.0
    pts = sample_ordered_distances_array(lam, rng(8), 200)
    pts[::7] = pts[::7, ::-1]  # some triples out of order: zero density there
    x, y, z = pts.T
    arrays = {
        "joint123": joint_pdf_r123(x, y, z, lam),
        "r1": marginal_pdf_r1(x, lam),
        "r2": marginal_pdf_r2(y, lam),
        "joint23": joint_pdf_r2_r3(y, z, lam),
        "cond": conditional_pdf_r1_given_r2(x, y),
    }
    for i, (a, b, c) in enumerate(pts.tolist()):
        scalars = {
            "joint123": joint_pdf_r123(a, b, c, lam),
            "r1": marginal_pdf_r1(a, lam),
            "r2": marginal_pdf_r2(b, lam),
            "joint23": joint_pdf_r2_r3(b, c, lam),
            "cond": conditional_pdf_r1_given_r2(a, b),
        }
        for key, value in scalars.items():
            assert isinstance(value, float)
            assert arrays[key][i] == pytest.approx(value, rel=1e-14, abs=0.0), key
    assert (arrays["joint123"][::7] == 0.0).all()
    with pytest.raises(ValueError):
        marginal_pdf_r1(np.array([0.1, -0.1]), lam)
    with pytest.raises(ValueError):
        conditional_pdf_r1_given_r2(x, np.zeros_like(y))


def log_space(*terms):
    """exp of the exact sum of each element's log terms; nan below 1e-300."""
    logs = np.array([math.fsum(t) for t in zip(*np.broadcast_arrays(*terms))])
    return np.where(logs >= math.log(1e-300), np.exp(logs), np.nan)


@pytest.mark.parametrize("lam", [1e102, 1e-160, 1e-300, 70.0])
def test_densities_match_log_space_reference_at_any_lambda(lam):
    """Each density at its own draws is within 1e-12 of its log-space value
    wherever that is at least 1e-300, and never nan, even where a^3 or a^-3
    leaves the doubles."""
    x, y, z = sample_ordered_distances_array(lam, rng(11), 2000).T
    a, log = math.pi * lam, np.log
    cases = {
        "joint123": (joint_pdf_r123(x, y, z, lam),
                     log_space(log(8.0 * a), log(a), log(a), log(x), log(y),
                               log(z), -a * z * z)),
        "r1": (marginal_pdf_r1(x, lam), log_space(log(2.0 * a), log(x),
                                                  -a * x * x)),
        "r2": (marginal_pdf_r2(y, lam),
               log_space(log(2.0 * a), log(a), 3.0 * log(y), -a * y * y)),
        "joint23": (joint_pdf_r2_r3(y, z, lam),
                    log_space(log(4.0 * a), log(a), log(a), 3.0 * log(y),
                              log(z), -a * z * z)),
        "cond": (conditional_pdf_r1_given_r2(x, y),
                 log_space(log(2.0), log(x), -2.0 * log(y))),
    }
    for name, (got, reference) in cases.items():
        assert not np.isnan(got).any(), name
        kept = ~np.isnan(reference)
        assert kept.any() or name == "joint123", name  # a^1.5 ~ 5e-450 there
        assert (got[~kept] < 1.000001e-300).all(), name
        np.testing.assert_allclose(got[kept], reference[kept], rtol=1e-12,
                                   atol=0.0, err_msg=name)


@pytest.mark.parametrize("pdf, lam", [
    (lambda r, lam: joint_pdf_r123(*r, lam), 1e205),
    (lambda r, lam: joint_pdf_r2_r3(*r[1:], lam), 1e308),
], ids=["joint123", "joint23"])
def test_joint_density_beyond_the_doubles_raises(pdf, lam):
    """(2a)^3 and 4a^3 overflow far below these intensities; the densities
    themselves only here."""
    def at(lam):
        return pdf(np.sqrt(np.array([0.5, 1.0, 1.5]) / (math.pi * lam)), lam)

    with pytest.raises(FloatingPointError):
        at(lam)
    assert 0.0 < at(lam / 1e3) < math.inf


# --------------------------------------------------------------------------
# Normalizations
# --------------------------------------------------------------------------

def test_marginal_r1_mean_is_rayleigh_mean():
    lam = 50.0
    mean = quad(lambda r: r * marginal_pdf_r1(r, lam), 0.0, np.inf)
    assert mean == pytest.approx(1.0 / (2.0 * math.sqrt(lam)), abs=1e-9)


@pytest.mark.parametrize("lam", [1.0, 70.0])
def test_marginal_normalizations(lam):
    for pdf in (marginal_pdf_r1, marginal_pdf_r2):
        assert quad(lambda r: pdf(r, lam), 0.0, np.inf) == pytest.approx(1.0, abs=1e-6)


def test_joint_normalizations():
    res3 = integrate_ordered_3d(lambda x, y, z: joint_pdf_r123(x, y, z, 25.0))
    assert res3 == pytest.approx(1.0, abs=1e-6)
    res2 = integrate_ordered_2d(lambda y, z: joint_pdf_r2_r3(y, z, 50.0))
    assert res2 == pytest.approx(1.0, abs=1e-6)


def test_conditional_normalization():
    r2 = 0.3
    res = quad(lambda x: conditional_pdf_r1_given_r2(x, r2), 0.0, r2)
    assert res == pytest.approx(1.0, abs=1e-10)


# --------------------------------------------------------------------------
# Marginalization consistency chain
# --------------------------------------------------------------------------

GRID = [0.03, 0.06, 0.1, 0.15, 0.2]


@pytest.mark.parametrize("y", GRID)
def test_joint123_marginalizes_to_joint_r2_r3(y):
    lam = 50.0
    z = y * 1.5
    got = integrate.quad(lambda x: joint_pdf_r123(x, y, z, lam), 0.0, y,
                         epsabs=1e-12, epsrel=1e-10)[0]
    assert got == pytest.approx(joint_pdf_r2_r3(y, z, lam), abs=1e-8, rel=1e-8)


@pytest.mark.parametrize("y", GRID)
def test_joint_r2_r3_marginalizes_to_marginal_r2(y):
    lam = 50.0
    got = integrate.quad(lambda z: joint_pdf_r2_r3(y, z, lam), y, np.inf,
                         epsabs=1e-12, epsrel=1e-10)[0]
    assert got == pytest.approx(marginal_pdf_r2(y, lam), abs=1e-8, rel=1e-8)


@pytest.mark.parametrize("x", GRID)
def test_joint_over_marginal_recovers_conditional(x):
    lam = 50.0
    y, z = 0.25, 0.3
    ratio = joint_pdf_r123(x, y, z, lam) / joint_pdf_r2_r3(y, z, lam)
    assert ratio == pytest.approx(conditional_pdf_r1_given_r2(x, y), abs=1e-8)


# --------------------------------------------------------------------------
# Sampler
# --------------------------------------------------------------------------

def r2_cdf(y, lam):
    """CDF of the second-nearest distance: 1 - e^-u (1 + u), u = pi lam y^2."""
    u = math.pi * lam * np.asarray(y) ** 2
    return 1.0 - np.exp(-u) * (1.0 + u)


def test_sampler_ordering_and_determinism():
    draws = sample_ordered_distances_array(50.0, rng(3), 10_000)
    assert (draws[:, 0] <= draws[:, 1]).all()
    assert (draws[:, 1] <= draws[:, 2]).all()
    again = sample_ordered_distances_array(50.0, rng(3), 10_000)
    assert (draws == again).all()


def test_sampler_r1_mean_matches_rayleigh():
    lam = 50.0
    draws = sample_ordered_distances_array(lam, rng(1), 1_000_000)
    assert draws[:, 0].mean() == pytest.approx(1.0 / (2.0 * math.sqrt(lam)),
                                               abs=2e-4)


def test_sampler_r1_ks_against_rayleigh():
    lam = 50.0
    draws = sample_ordered_distances_array(lam, rng(2), 100_000)
    scale = 1.0 / math.sqrt(2.0 * math.pi * lam)
    stat = stats.kstest(draws[:, 0], stats.rayleigh(scale=scale).cdf).statistic
    assert stat < 0.01


def test_sampler_r2_ks_against_analytic_cdf():
    lam = 50.0
    draws = sample_ordered_distances_array(lam, rng(4), 100_000)
    stat = stats.kstest(draws[:, 1], lambda y: r2_cdf(y, lam)).statistic
    assert stat < 0.01


def test_sampler_scale_property():
    lam, lam2 = 50.0, 8.0
    a = sample_ordered_distances_array(lam, rng(5), 20_000)
    b = sample_ordered_distances_array(lam2, rng(6), 20_000)
    scaled = a * math.sqrt(lam / lam2)
    for col in range(3):
        p = stats.ks_2samp(scaled[:, col], b[:, col]).pvalue
        assert p > 0.01
