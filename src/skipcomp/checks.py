"""The invariants that ``skipcomp validate`` and the acceptance tests check.

Each check yields named ``Check`` records, an observed deviation against its
tolerance; each tolerance is defined once, here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import coverage as cov
from . import distances, montecarlo
from .model import ANALYTIC_VARIANTS, NetworkParams
from .numerics import eta4_closed_form, integrate_1d, integrate_ordered_2d

PDF_NORMALIZATION_TOL = 1e-6      # |integral of a distance PDF - 1|
BEST_CONNECTED_ANCHOR_TOL = 1e-4  # |quadrature - closed form|, T = 1, eta = 4
ETA4_EQUIVALENCE_TOL = 1e-6       # |eta = 4 closed form - general form|
MC_VS_ANALYTIC_TOL = 0.015        # largest |MC - analytic| coverage on a grid,
MC_MIN_TRIALS = 20_000            # checked only from this many trials on

ETA4_THRESHOLDS = (0.1, 1.0, 10.0)  # linear thresholds of the eta = 4 check


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.deviation < self.tolerance


def pdf_normalization(lam: float) -> List[Check]:
    """The r1 and r2 marginals and the (r2, r3) joint density integrate to 1."""
    integrals = {
        "marginal_r1": integrate_1d(
            lambda r: distances.marginal_pdf_r1(r, lam), 0.0, np.inf),
        "marginal_r2": integrate_1d(
            lambda r: distances.marginal_pdf_r2(r, lam), 0.0, np.inf),
        "joint_r2_r3": integrate_ordered_2d(
            lambda y, z: distances.joint_pdf_r2_r3(y, z, lam)),
    }
    return [Check(f"{pdf}_normalization", abs(res.value - 1.0),
                  PDF_NORMALIZATION_TOL) for pdf, res in integrals.items()]


def best_connected_anchor(lam: float) -> Check:
    """Best-connected coverage at T = 1, eta = 4 against its closed form."""
    got = cov.coverage_best(1.0, NetworkParams(lambda_bs=lam, eta=4.0))
    return Check("best_connected_anchor",
                 abs(got - cov.best_connected_closed_form(1.0)),
                 BEST_CONNECTED_ANCHOR_TOL)


def eta4_equivalence(params: NetworkParams, ic: bool = False) -> List[Check]:
    """Cooperative coverage, eta = 4 closed form vs. general form; [] unless eta = 4."""
    if not eta4_closed_form(params.eta):
        return []
    return [
        Check(f"eta4_equivalence_T{t}" + ("_ic" if ic else ""), abs(
            cov.coverage_blackout_coop(t, params, ic=ic)
            - cov.coverage_blackout_coop(t, params, ic=ic, closed_form=False)),
            ETA4_EQUIVALENCE_TOL)
        for t in ETA4_THRESHOLDS
    ]


def mc_vs_analytic(params: NetworkParams, result: montecarlo.SimulationResult,
                   thresholds_db) -> List[Check]:
    """Largest |MC - analytic| coverage over the grid, per analytic variant."""
    if len(result.distances) < MC_MIN_TRIALS:
        raise ValueError(f"MC check needs >= {MC_MIN_TRIALS} trials")
    out = []
    for scheme in ANALYTIC_VARIANTS:
        analytic = cov.coverage_curve(scheme, params, thresholds_db).values
        mc = montecarlo.coverage_from_result(result, scheme, thresholds_db).values
        out.append(Check(f"mc_vs_analytic_{scheme.scheme_id}",
                         max(abs(a - m) for a, m in zip(analytic, mc)),
                         MC_VS_ANALYTIC_TOL))
    return out
