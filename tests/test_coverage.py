import math
from unittest import mock

import numpy as np
import pytest
from scipy import special

from skipcomp.coverage import (
    CoherentNotAnalytic,
    CoverageCurve,
    CurveSource,
    best_connected_closed_form,
    coverage,
    coverage_best,
    coverage_blackout_coop,
    coverage_blackout_nocoop,
    coverage_curve,
    lt_i1_coop,
    lt_ir2_coop,
)
from skipcomp.model import Association, NetworkParams, SchemeSpec

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
    quad = lt_i1_coop(s, r2, 4.0, p, closed_form=False)
    assert closed == pytest.approx(quad, abs=1e-8)


def test_lt_i1_coop_monotone_in_s():
    vals = [lt_i1_coop(s, 0.1, 4.0, 1.0) for s in np.logspace(-8, -2, 10)]
    assert all(0 < v <= 1 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lt_ir2_coop_at_zero_and_eta4_equivalence():
    assert lt_ir2_coop(0.0, r3=0.08, lam=70.0, eta=4.0, p=1.0) == 1.0
    for closed_form in (True, False):
        # r3 * r3 overflows here; the LT must not become inf * 0 = nan
        assert lt_ir2_coop(0.0, 1e200, 70.0, 4.0, 1.0, closed_form) == 1.0
        assert lt_ir2_coop(1.0, 1e200, 70.0, 3.5, 1.0, closed_form) == 1.0
    t, r2, r3, lam, p = 2.0, 0.05, 0.08, 70.0, 1.0
    s = t / (p * (r2 ** -4 + r3 ** -4))
    a = lt_ir2_coop(s, r3, lam, 4.0, p)
    b = lt_ir2_coop(s, r3, lam, 4.0, p, closed_form=False)
    assert a == pytest.approx(b, abs=1e-8)


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
    d = coverage_blackout_nocoop(t, NET, ic=ic, closed_form=False)
    assert c == pytest.approx(d, abs=1e-6)


def test_general_form_evaluates_hyp2f1_at_eta4():
    # closed_form=False must reach the far-interference exponent too, or the
    # eta = 4 equivalence check compares the closed form with itself.
    with mock.patch.object(special, "hyp2f1", wraps=special.hyp2f1) as h:
        coverage_blackout_coop(1.0, NetworkParams())
        assert h.call_count == 0
        coverage_blackout_coop(1.0, NetworkParams(), closed_form=False)
        assert h.call_count >= 1


def test_closed_form_flag_is_inert_away_from_eta4():
    net = NetworkParams(eta=3.5)
    for ic in (False, True):
        assert coverage_blackout_nocoop(1.0, net, ic=ic, closed_form=True) \
            == coverage_blackout_nocoop(1.0, net, ic=ic, closed_form=False)
        assert coverage_blackout_coop(1.0, net, ic=ic, closed_form=True) \
            == coverage_blackout_coop(1.0, net, ic=ic, closed_form=False)
    s, r2, r3 = 1e-5, 0.05, 0.08
    assert lt_i1_coop(s, r2, 3.5, 1.0, closed_form=True) \
        == lt_i1_coop(s, r2, 3.5, 1.0, closed_form=False)
    assert lt_ir2_coop(s, r3, 70.0, 3.5, 1.0, closed_form=True) \
        == lt_ir2_coop(s, r3, 70.0, 3.5, 1.0, closed_form=False)


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


# --------------------------------------------------------------------------
# Curves
# --------------------------------------------------------------------------

def test_curve_monotone_and_bounded():
    for scheme in (SchemeSpec(Association.BEST_CONNECTED),
                   SchemeSpec(Association.SKIP_COOP, ic=True)):
        curve = coverage_curve(scheme, NET, DB_GRID)
        assert curve.source is CurveSource.ANALYTIC
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
        CoverageCurve(thresholds_db=(0.0,), values=(0.5, 0.4),
                      scheme=SchemeSpec(Association.BEST_CONNECTED),
                      params=NET, source=CurveSource.ANALYTIC)
    with pytest.raises(ValueError):
        CoverageCurve(thresholds_db=(0.0,), values=(1.5,),
                      scheme=SchemeSpec(Association.BEST_CONNECTED),
                      params=NET, source=CurveSource.ANALYTIC)
