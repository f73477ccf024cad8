"""The invariants that ``skipcomp validate`` and the acceptance tests check.

Each check yields named ``Check`` records, an observed deviation against its
tolerance; each tolerance is defined once, here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List

from . import coverage as cov
from . import distances, montecarlo
from .model import ANALYTIC_VARIANTS, NetworkParams
from .numerics import eta4_closed_form, fixed_rule, gauss_legendre, integrate_1d

PDF_NORMALIZATION_TOL = 1e-6       # |integral of a distance PDF - 1|
PDF_NODES = 64                     # Gauss-Legendre nodes per dimension
PDF_RANGE_V = 60.0                 # r runs up to v = pi*lambda*r^2 = 60; the
#                                    tails beyond hold under 1e-22 of each PDF
BEST_CONNECTED_ANCHOR_TOL = 1e-12  # |agg_exponent's arctan form - the
#                                    pi/2 - arctan(1/sqrt T) form|, T = 1, eta = 4
ETA4_EQUIVALENCE_TOL = 1e-12       # |eta = 4 closed form - general form|; both
#                                    are over 1000x the rounding they see
ETA4_REFERENCE = math.nextafter(4.0, 5.0)  # one ulp above 4: the general form,
#                                    which moves a coverage by ~1e-16 here
MC_K_CI = 3.0                      # |MC - analytic| in the MC's printed 95%
#                                    CI half-widths, at any trial count

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
    """The r1 and r2 marginals and the (r2, r3) joint density integrate to 1.

    Each runs on fixed nodes over r in [0, sqrt(PDF_RANGE_V/(pi*lambda))], the
    joint one over the wedge y <= z; QuadratureError if half the nodes disagree.
    """
    top = math.sqrt(PDF_RANGE_V / (math.pi * lam))

    def joint(coarse: bool):
        return gauss_legendre(lambda z: gauss_legendre(
            lambda y: distances.joint_pdf_r2_r3(y, z[..., None], lam),
            0.0, z, PDF_NODES, coarse), 0.0, top, PDF_NODES, coarse)

    integrals = {
        "marginal_r1": integrate_1d(
            lambda r: distances.marginal_pdf_r1(r, lam), 0.0, top, PDF_NODES),
        "marginal_r2": integrate_1d(
            lambda r: distances.marginal_pdf_r2(r, lam), 0.0, top, PDF_NODES),
        "joint_r2_r3": float(fixed_rule(joint)),
    }
    return [Check(f"{pdf}_normalization", abs(value - 1.0), PDF_NORMALIZATION_TOL)
            for pdf, value in integrals.items()]


def best_connected_anchor(lam: float) -> Check:
    """Best-connected coverage at T = 1, eta = 4 against its closed form."""
    got = cov.coverage_best(1.0, NetworkParams(lambda_bs=lam, eta=4.0))
    return Check("best_connected_anchor",
                 abs(got - cov.best_connected_closed_form(1.0)),
                 BEST_CONNECTED_ANCHOR_TOL)


def eta4_equivalence(params: NetworkParams) -> List[Check]:
    """Cooperative coverage without and with IC, the eta = 4 closed form vs.
    the general form at ETA4_REFERENCE; [] unless eta = 4."""
    if not eta4_closed_form(params.eta):
        return []
    reference = replace(params, eta=ETA4_REFERENCE)
    return [
        Check(f"eta4_equivalence_T{t}" + ("_ic" if ic else ""), abs(
            cov.coverage_blackout_coop(t, params, ic=ic)
            - cov.coverage_blackout_coop(t, reference, ic=ic)),
            ETA4_EQUIVALENCE_TOL)
        for ic in (False, True) for t in ETA4_THRESHOLDS
    ]


def mc_vs_analytic(params: NetworkParams, sim: montecarlo.SimulationSpec,
                   thresholds_db) -> List[Check]:
    """Largest |MC - analytic| coverage over the grid in units of that cell's
    CI half-width, per analytic variant; each MC curve and CI is the one
    ``coverage --mode mc`` prints."""
    out = []
    for scheme in ANALYTIC_VARIANTS:
        analytic = cov.coverage_curve(scheme, params, thresholds_db).values
        mc = montecarlo.empirical_coverage(scheme, params, sim, thresholds_db)
        out.append(Check(f"mc_vs_analytic_{scheme.scheme_id}", max(
            abs(a - m) / ci
            for a, m, ci in zip(analytic, mc.values, mc.ci_halfwidths)),
            MC_K_CI))
    return out
