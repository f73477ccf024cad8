import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from oracles import integrate_ordered_2d, quad
from skipcomp import coverage as cov
from skipcomp import numerics, throughput
from skipcomp.checks import ETA4_REFERENCE
from skipcomp.coverage import (
    CoherentNotAnalytic,
    CoverageCurve,
    best_connected_closed_form,
    coverage,
    coverage_best,
    coverage_blackout_coop,
    coverage_blackout_nocoop,
    coverage_curve,
    lt_i1_coop,
    lt_ir2_coop,
)
from skipcomp.distances import joint_pdf_r2_r3
from skipcomp.model import (
    ANALYTIC_VARIANTS, Association, NetworkParams, SchemeSpec, db_to_linear)
from skipcomp.numerics import agg_exponent, nearest_lt

NET = NetworkParams(lambda_bs=70.0, eta=4.0)
DB_GRID = list(range(-10, 21, 2))


# --------------------------------------------------------------------------
# Laplace transforms
# --------------------------------------------------------------------------

def test_lt_i1_coop_at_zero():
    assert lt_i1_coop(0.0, r2=0.1, eta=4.0, p=1.0) == 1.0


def test_lt_i1_coop_eta4_closed_form_matches_quadrature():
    t, r2, r3, p = 1.0, 0.1, 0.15, 1.0
    s = t / (p * (r2 ** -4 + r3 ** -4))
    closed = lt_i1_coop(s, r2, 4.0, p)
    quad = lt_i1_coop(s, r2, ETA4_REFERENCE, p)
    assert closed == pytest.approx(quad, abs=1e-8)


def test_lt_i1_coop_monotone_in_s():
    vals = [lt_i1_coop(s, 0.1, 4.0, 1.0) for s in np.logspace(-8, -2, 10)]
    assert all(0 < v <= 1 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lt_ir2_coop_at_zero_and_eta4_equivalence():
    assert lt_ir2_coop(0.0, r3=0.08, lam=70.0, eta=4.0, p=1.0) == 1.0
    for eta in (4.0, ETA4_REFERENCE):
        # r3 * r3 overflows here; the LT must not become inf * 0 = nan
        assert lt_ir2_coop(0.0, 1e200, 70.0, eta, 1.0) == 1.0
    assert lt_ir2_coop(1.0, 1e200, 70.0, 3.5, 1.0) == 1.0
    t, r2, r3, lam, p = 2.0, 0.05, 0.08, 70.0, 1.0
    s = t / (p * (r2 ** -4 + r3 ** -4))
    a = lt_ir2_coop(s, r3, lam, 4.0, p)
    b = lt_ir2_coop(s, r3, lam, ETA4_REFERENCE, p)
    assert a == pytest.approx(b, abs=1e-8)


@pytest.mark.parametrize("call", [
    lambda: lt_i1_coop(math.nan, 0.1, 4.0, 1.0),
    lambda: lt_ir2_coop(math.nan, 0.08, 70.0, 4.0, 1.0),
    lambda: coverage_best(math.nan, NET),
], ids=["lt_i1_coop", "lt_ir2_coop", "coverage_best"])
def test_nan_argument_raises_value_error(call):
    # The transforms returned nan, and coverage_best ran its integral on nan.
    with pytest.raises(ValueError, match="must be >= 0"):
        call()


def test_lt_ir2_coop_decreases_with_intensity():
    s, r3 = 1e-5, 0.08
    assert lt_ir2_coop(s, r3, 140.0, 4.0, 1.0) < lt_ir2_coop(s, r3, 70.0, 4.0, 1.0)


def test_lt_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lt_i1_coop(1.0, r2=0.0, eta=4.0, p=1.0)
    with pytest.raises(ValueError):
        lt_ir2_coop(1.0, r3=0.1, lam=70.0, eta=2.0, p=1.0)


# --------------------------------------------------------------------------
# Coverage probabilities
# --------------------------------------------------------------------------

def test_best_connected_anchor_against_closed_form():
    got = coverage_best(1.0, NET)
    oracle = best_connected_closed_form(1.0)
    assert got == pytest.approx(oracle, abs=1e-6)
    assert got == pytest.approx(0.5600, abs=1e-4)


def test_coverage_at_zero_threshold_is_one():
    assert coverage_best(0.0, NET) == 1.0
    assert coverage_blackout_nocoop(0.0, NET) == 1.0
    assert coverage_blackout_coop(0.0, NET, ic=True) == 1.0


@pytest.mark.parametrize("lam", [10.0, 100.0])
def test_lambda_invariance_interference_limited(lam):
    net = NetworkParams(lambda_bs=lam, eta=4.0)
    assert coverage_best(1.0, net) == pytest.approx(coverage_best(1.0, NET),
                                                    abs=1e-6)
    assert coverage_blackout_coop(1.0, net) == pytest.approx(
        coverage_blackout_coop(1.0, NET), abs=1e-6
    )
    assert coverage_blackout_nocoop(1.0, net, ic=True) == pytest.approx(
        coverage_blackout_nocoop(1.0, NET, ic=True), abs=1e-6
    )


def test_ic_always_helps():
    for t_db in DB_GRID:
        t = 10 ** (t_db / 10)
        assert coverage_blackout_nocoop(t, NET, ic=True) >= \
            coverage_blackout_nocoop(t, NET, ic=False)
        assert coverage_blackout_coop(t, NET, ic=True) >= \
            coverage_blackout_coop(t, NET, ic=False)


def test_cooperation_always_helps():
    for t_db in DB_GRID:
        t = 10 ** (t_db / 10)
        for ic in (False, True):
            assert coverage_blackout_coop(t, NET, ic=ic) >= \
                coverage_blackout_nocoop(t, NET, ic=ic)


def test_nocoop_no_ic_is_lowest_curve():
    for t_db in DB_GRID:
        t = 10 ** (t_db / 10)
        low = coverage_blackout_nocoop(t, NET, ic=False)
        assert low <= coverage_best(t, NET)
        assert low <= coverage_blackout_nocoop(t, NET, ic=True)
        assert low <= coverage_blackout_coop(t, NET, ic=False)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("ic", [False, True])
def test_eta4_reduction_matches_general_form(t, ic):
    # Non-cooperative only: acceptance criterion 5 checks the cooperative case.
    c = coverage_blackout_nocoop(t, NET, ic=ic)
    d = coverage_blackout_nocoop(t, replace(NET, eta=ETA4_REFERENCE), ic=ic)
    assert c == pytest.approx(d, abs=1e-6)


def test_general_form_evaluates_hyp2f1_at_eta4():
    # ETA4_REFERENCE must reach the far-interference exponent too, or the
    # eta = 4 equivalence check compares the closed form with itself.
    with mock.patch.object(numerics, "hyp2f1_beta",
                           wraps=numerics.hyp2f1_beta) as h:
        coverage_blackout_coop(1.0, NetworkParams())
        assert h.call_count == 0
        coverage_blackout_coop(1.0, NetworkParams(eta=ETA4_REFERENCE))
        assert h.call_count >= 1


@pytest.mark.parametrize("eta", [4.0 - 1e-10, 4.0 + 1e-10])
def test_closed_form_is_taken_at_eta4_exactly(eta):
    # An eta near 4 but not 4 takes the 2F1 forms; only 4.0 takes arctan.
    with mock.patch.object(numerics, "hyp2f1_beta",
                           wraps=numerics.hyp2f1_beta) as h:
        coverage_blackout_coop(1.0, NetworkParams(eta=4.0))
        assert h.call_count == 0
        coverage_blackout_coop(1.0, NetworkParams(eta=eta))
        assert h.call_count >= 1


def test_general_eta_runs():
    net = NetworkParams(lambda_bs=70.0, eta=3.0)
    vals = [coverage_best(1.0, net),
            coverage_blackout_nocoop(1.0, net),
            coverage_blackout_coop(1.0, net),
            coverage_blackout_coop(1.0, net, ic=True)]
    assert all(0 < v < 1 for v in vals)
    assert vals[1] <= vals[2] <= vals[3]


def test_noise_reduces_coverage():
    noisy = NetworkParams(lambda_bs=70.0, eta=4.0, noise_power=1e-9)
    assert coverage_best(1.0, noisy) < coverage_best(1.0, NET)
    assert coverage_blackout_nocoop(1.0, noisy) < coverage_blackout_nocoop(1.0, NET)
    assert coverage_blackout_coop(1.0, noisy) < coverage_blackout_coop(1.0, NET)


def test_noise_free_limit_of_noisy_path():
    # vanishing noise recovers the interference-limited value
    tiny = NetworkParams(lambda_bs=70.0, eta=4.0, noise_power=1e-18)
    assert coverage_blackout_coop(1.0, tiny) == pytest.approx(
        coverage_blackout_coop(1.0, NET), abs=1e-5
    )


def noisy_oracle(scheme, net, t):
    """Coverage as an r-space radial integral: over r1 (best), r2 (skip) or
    the ordered (r2, r3) pair (skip-comp), noise factor exp(-s*sigma^2)."""
    eta, lam, p, s2 = net.eta, net.lambda_bs, net.tx_power, net.noise_power
    a = math.pi * lam
    if scheme.association is not Association.SKIP_COOP:
        k = 1 if scheme.association is Association.BEST_CONNECTED else 2
        c = agg_exponent(eta, t)
        weight = 1.0 if k == 1 or scheme.ic else nearest_lt(eta, t)
        # density of the k-th nearest distance, 2 a^k r^(2k-1) exp(-a r^2)/(k-1)!
        return weight * quad(lambda r: 2.0 * a ** k * r ** (2 * k - 1)
                             / math.factorial(k - 1) * math.exp(
                                 -t * s2 * r ** eta / p - a * r * r * (1.0 + c)),
                             0.0, np.inf)

    def f(r2, r3):
        s = t / (p * (r2 ** -eta + r3 ** -eta))
        l1 = 1.0 if scheme.ic else lt_i1_coop(s, r2, eta, p)
        return (joint_pdf_r2_r3(r2, r3, lam) * l1 * lt_ir2_coop(s, r3, lam, eta, p)
                * math.exp(-s * s2))

    return integrate_ordered_2d(f)


@pytest.mark.parametrize("noise", [1e3, 1e6])
@pytest.mark.parametrize("scheme", ANALYTIC_VARIANTS, ids=lambda s: s.scheme_id)
def test_noisy_coverage_matches_r_space_oracle(scheme, noise):
    # Largest deviation seen: 2.5e-13 relative (skip-comp, noise 1e6, T = 10).
    net = NetworkParams(eta=4.0, noise_power=noise)
    for t in (0.1, 1.0, 10.0):
        assert coverage(scheme, net, t) == pytest.approx(
            noisy_oracle(scheme, net, t), rel=1e-7, abs=0.0)


def test_noisy_coverage_matches_r_space_oracle_at_eta_3_5():
    net = NetworkParams(eta=3.5, noise_power=1e3)
    scheme = SchemeSpec(Association.SKIP_COOP)
    assert coverage(scheme, net, 1.0) == pytest.approx(
        noisy_oracle(scheme, net, 1.0), rel=1e-7, abs=0.0)


@pytest.mark.parametrize("lam", [1e-160, 1e-100, 1e100, 1e160])
def test_noisy_best_connected_at_extreme_intensities(lam):
    # Noise-limited when sparse: int_0^inf exp(-T*sigma^2/P * (v/(pi*lambda))^2) dv;
    # interference-limited when dense.
    net = NetworkParams(lambda_bs=lam, noise_power=1e3)
    t = 0.1
    if lam < 1.0:
        expected = 0.5 * math.sqrt(math.pi) * math.pi * lam / math.sqrt(t * 1e3)
    else:
        expected = coverage_best(t, NET)
    assert coverage_best(t, net) == pytest.approx(expected, rel=1e-9, abs=0.0)


#: The cells of ``skipcomp coverage --scheme skip-comp --eta 2.1 --mode
#: analytic --tmin-db 30 --tmax-db 40 --tstep-db 5`` (no IC, no noise), in
#: mpmath at 30 and 40 digits, two independent ways.  Values this small pass
#: any absolute quadrature tolerance, so only a relative check holds them.
TINY_COOP_ETA_2_1 = [(30.0, 2.82681246074898e-12), (35.0, 9.95640370117703e-14),
                     (40.0, 3.51086923304837e-15)]


@pytest.mark.parametrize("t_db,expected", TINY_COOP_ETA_2_1)
def test_tiny_skip_comp_coverage_is_relatively_exact(t_db, expected):
    got = coverage_blackout_coop(db_to_linear(t_db), NetworkParams(eta=2.1))
    assert got == pytest.approx(expected, rel=1e-9, abs=0.0)


#: The 90 and 120 dB cells of ``skipcomp coverage --scheme skip --mode analytic
#: --tmin-db 60 --tmax-db 120 --tstep-db 30`` (eta 4, no noise): L1(T)/(1+c(T))^2
#: with L1 = 1 - sqrt(T)*atan(1/sqrt(T)) and c = sqrt(T)*atan(sqrt(T)), in
#: mpmath at 40 digits.  L1's closed form cancels there in double precision.
HUGE_T_SKIP_ETA_4 = [(90.0, 1.35094911442e-19), (120.0, 1.35094911523e-25)]


@pytest.mark.parametrize("t_db,expected", HUGE_T_SKIP_ETA_4)
def test_skip_coverage_at_huge_thresholds_is_relatively_exact(t_db, expected):
    got = coverage_curve(SchemeSpec(Association.SKIP_NO_COOP), NET, [t_db]).values[0]
    assert got == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_doubling_the_nodes_moves_no_result(monkeypatch):
    """Coverage and SE on twice the nodes agree to 1e-10 relative.

    Trimmed to keep it near 2 s: coverage of the five variants at every eta,
    sigma^2 and lambda of the sweep, T from -10 to 40 dB in steps of 10; SEs
    of all five at eta 2.1, 4 and 6 without noise and of the three without a
    u-integral at eta 2.1 and 6 with it.  Largest move seen: 8.5e-13.
    """
    db = range(-10, 41, 10)
    regimes = [NetworkParams(lambda_bs=lam, eta=eta, noise_power=s2)
               for eta in (2.1, 2.5, 3.0, 3.5, 4.0, 6.0) for s2 in (0.0, 1e3, 1e6)
               for lam in ((70.0,) if s2 == 0.0 else (10.0, 70.0))]
    se_cases = [(s, NetworkParams(eta=eta)) for eta in (2.1, 4.0, 6.0)
                for s in ANALYTIC_VARIANTS]
    se_cases += [(s, NetworkParams(lambda_bs=lam, eta=eta, noise_power=s2))
                 for eta in (2.1, 6.0) for s2 in (1e3, 1e6) for lam in (10.0, 70.0)
                 for s in ANALYTIC_VARIANTS[:3]]

    def values():
        out = [v for net in regimes for s in ANALYTIC_VARIANTS
               for v in coverage_curve(s, net, db).values]
        return np.array(out + [throughput.spectral_efficiency(s, net)
                               for s, net in se_cases])

    base = values()
    for module, name in ((cov, "U_NODES"), (cov, "W_NODES"),
                         (throughput, "T_NODES")):
        monkeypatch.setattr(module, name, 2 * getattr(module, name))
    np.testing.assert_allclose(values(), base, rtol=1e-10, atol=0.0)


# --------------------------------------------------------------------------
# Curves
# --------------------------------------------------------------------------

def test_curve_monotone_and_bounded():
    for scheme in (SchemeSpec(Association.BEST_CONNECTED),
                   SchemeSpec(Association.SKIP_COOP, ic=True)):
        curve = coverage_curve(scheme, NET, DB_GRID)
        assert coverage_curve(scheme, NET, []).values == ()
        vals = curve.values
        assert all(0 <= v <= 1 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_curve_limits():
    assert coverage(SchemeSpec(Association.BEST_CONNECTED), NET, 1e-9) \
        == pytest.approx(1.0, abs=1e-3)
    assert coverage(SchemeSpec(Association.BEST_CONNECTED), NET, 1e6) \
        == pytest.approx(0.0, abs=1e-2)


def test_coherent_scheme_is_not_analytic():
    scheme = SchemeSpec(Association.SKIP_COOP, coherent=True)
    with pytest.raises(CoherentNotAnalytic):
        coverage_curve(scheme, NET, DB_GRID)
    with pytest.raises(CoherentNotAnalytic):
        coverage(scheme, NET, 1.0)


def test_skip_coop_ic_tracks_best_connected_at_low_thresholds():
    scheme = SchemeSpec(Association.SKIP_COOP, ic=True)
    for t_db in (-10.0, -8.0, -6.0):
        t = 10 ** (t_db / 10)
        assert coverage(scheme, NET, t) == pytest.approx(
            coverage_best(t, NET), abs=0.06
        )


def test_curve_invariants_enforced():
    with pytest.raises(ValueError):
        CoverageCurve(thresholds_db=(0.0,), values=(0.5, 0.4))
    with pytest.raises(ValueError):
        CoverageCurve(thresholds_db=(0.0,), values=(1.5,))
