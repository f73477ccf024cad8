import math

import pytest
from hypothesis import given, strategies as st

from skipcomp.model import (
    ANALYTIC_VARIANTS,
    VARIANTS,
    Association,
    CoherentWithoutCoop,
    IcOnBestConnected,
    MobilityParams,
    NetworkParams,
    OverheadParams,
    SchemeSpec,
    db_to_linear,
)


def test_db_to_linear_anchors():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-10.0) == pytest.approx(0.1)


def test_db_rejects_non_finite():
    with pytest.raises(ValueError):
        db_to_linear(math.inf)
    with pytest.raises(ValueError):
        db_to_linear(math.nan)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_db_roundtrip(x):
    assert db_to_linear(10.0 * math.log10(x)) == pytest.approx(x, abs=1e-12, rel=1e-12)


def test_validate_scheme_accepts_legal_combinations():
    # A SchemeSpec validates its flags when it is built.
    for assoc, ic, coherent in [(Association.BEST_CONNECTED, False, False),
                                (Association.SKIP_NO_COOP, True, False),
                                (Association.SKIP_COOP, True, False),
                                (Association.SKIP_COOP, True, True)]:
        s = SchemeSpec(assoc, ic=ic, coherent=coherent)
        assert (s.association, s.ic, s.coherent) == (assoc, ic, coherent)


def test_validate_scheme_rejects_coherent_without_coop():
    with pytest.raises(CoherentWithoutCoop):
        SchemeSpec(Association.SKIP_NO_COOP, ic=True, coherent=True)


def test_validate_scheme_rejects_ic_on_best_connected():
    with pytest.raises(IcOnBestConnected):
        SchemeSpec(Association.BEST_CONNECTED, ic=True)


def test_network_params_invariants():
    with pytest.raises(ValueError):
        NetworkParams(lambda_bs=0.0)
    with pytest.raises(ValueError):
        NetworkParams(eta=2.0)
    with pytest.raises(ValueError):
        NetworkParams(noise_power=-1.0)
    with pytest.raises(ValueError):
        NetworkParams(bandwidth=0.0)


def test_mobility_and_overhead_invariants():
    with pytest.raises(ValueError):
        MobilityParams(velocity=-1.0)
    with pytest.raises(ValueError):
        OverheadParams(u_conventional=1.0)
    with pytest.raises(ValueError):
        OverheadParams(u_skipping=-0.1)


def test_scheme_id_strings():
    assert SchemeSpec(Association.BEST_CONNECTED).scheme_id == "best"
    assert SchemeSpec(Association.SKIP_COOP, ic=True).scheme_id == "skip-comp+ic"
    assert SchemeSpec(Association.SKIP_COOP, ic=True, coherent=True).scheme_id \
        == "skip-comp+ic+coh"


def test_variant_lists():
    assert [s.scheme_id for s in VARIANTS] == [
        "best", "skip", "skip+ic", "skip-comp", "skip-comp+ic",
        "skip-comp+coh", "skip-comp+ic+coh"]
    assert ANALYTIC_VARIANTS == tuple(s for s in VARIANTS if not s.coherent)
