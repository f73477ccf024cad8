"""Output checks of every benchmark job.

The checks read the CSV a job wrote and never import the program.  They reuse
the repository's tolerances:

* Table 1: within 0.03 of the paper for analytic values, 0.05 at 2e5 trials
  for MC ones, and the skipping averages within 0.03 of theirs.
* MC against the analytic column of the same job: 0.015 at 1e5 trials.
* Best-connected anchor at eta = 4 without noise: within 1e-4 of the
  closed form, which is computed here.
* Every coverage value in [0, 1] and non-increasing in the threshold.

An MC tolerance set at n0 trials is scaled by sqrt(n0 / trials) when a job
runs fewer trials, which keeps it the same multiple of the MC error.

Table 1 MC values must also lie within ``k_ci`` CI half-widths of the
analytic ones.  Analytic values are also compared with ``reference.json``
(within 1e-4), and
regime-mc MC values with its analytic values, within ``k_ci`` times the 95%
CI half-width of the job.  A regime with a known defect recorded in that file
adds the defect's bias bound to the tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Dict, List

PAPER_SE = {"best": 1.49, "skip": 0.21, "skip+ic": 0.66, "skip-comp": 0.31,
            "skip-comp+ic": 1.01}
PAPER_SKIP_AVG = {"skip": 0.85, "skip-comp": 0.90, "skip+ic": 1.08,
                  "skip-comp+ic": 1.25}
TABLE1_ANALYTIC_TOL = 0.03
TABLE1_MC_TOL = (0.05, 200_000)
MC_VS_ANALYTIC_TOL = (0.015, 100_000)
ANCHOR_TOL = 1e-4
REFERENCE_TOL = 1e-4
MONOTONE_SLACK = 1e-9
PDF_REL_TOL = 1e-6


class Reference:
    def __init__(self, path: str):
        with open(path) as fh:
            data = json.load(fh)
        self.values = data["values"]
        self.k_ci = data["k_ci"]
        self.bias_bound = {d["regime"]: d["bias_bound"] for d in data["defects"]
                           if "bias_bound" in d}


def read_csv(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.DictReader(body))
    config = json.loads(header[1].split(":", 1)[1]) if len(header) > 1 else {}
    return config, rows


def _num(v: str):
    return None if v == "" else float(v)


def ci_halfwidth(p_mc: float, p_ref: float, n: int) -> float:
    """95% CI half-width of an MC coverage estimate over n trials.

    The variance is taken at the larger of the estimate and the reference
    value, and floored at one trial, so an estimate of 0 in a rare-event tail
    is not given a zero-width interval.
    """
    p = max(p_mc, p_ref)
    return 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def best_closed_form(t: float) -> float:
    st = math.sqrt(t)
    return 1.0 / (1.0 + st * (math.pi / 2.0 - math.atan(1.0 / st)))


def mc_tolerance(tol_at, trials: int) -> float:
    tol, n0 = tol_at
    return tol * math.sqrt(max(n0 / trials, 1.0))


def _curve_problems(name: str, values: List[float]) -> List[str]:
    out = []
    if any(not (0.0 <= v <= 1.0) for v in values):
        out.append(f"{name} value outside [0, 1]")
    if any(b > a + MONOTONE_SLACK for a, b in zip(values, values[1:])):
        out.append(f"{name} curve not monotone")
    return out


def _close(name: str, got: List[float], want: List[float], tol: float) -> List[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, expected {len(want)}"]
    worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    return [f"{name}: deviation {worst:.3g} > {tol:.3g}"] if worst > tol else []


def check_coverage(job: Dict, config: Dict, rows: List[Dict],
                   ref: Reference) -> List[str]:
    problems = []
    if {r["scheme_id"] for r in rows} != {job["scheme"]}:
        problems.append("wrong scheme in output")
    if config.get("noise_power_w") != job["noise"]:
        problems.append("noise power not applied")
    thresholds = [float(r["threshold_db"]) for r in rows]
    analytic = [_num(r["analytic"]) for r in rows]
    mc = [_num(r["mc"]) for r in rows]
    if analytic[0] is not None:
        problems += _curve_problems("analytic", analytic)
        problems += _close("analytic vs reference", analytic,
                           ref.values[job["ref"]], REFERENCE_TOL)
        if (job["scheme"] == "best" and config["eta"] == 4.0
                and config["noise_power_w"] == 0.0):
            problems += _close("best-connected anchor", analytic,
                               [best_closed_form(10 ** (t / 10)) for t in thresholds],
                               ANCHOR_TOL)
    if mc[0] is not None:
        n = int(rows[0]["trials"])
        problems += _curve_problems("mc", mc)
        if analytic[0] is not None:
            problems += _close("mc vs analytic", mc, analytic,
                               mc_tolerance(MC_VS_ANALYTIC_TOL, n))
        elif job["ref"] is not None:
            want = ref.values[job["ref"]]
            bias = ref.bias_bound.get(job["ref"], 0.0)
            worst = max((abs(m - w) - ref.k_ci * ci_halfwidth(m, w, n) - bias
                         for m, w in zip(mc, want)), default=0.0)
            if worst > 0.0:
                problems.append(f"mc vs reference: {worst:.3g} beyond tolerance")
    return problems


def check_table1(job: Dict, config: Dict, rows: List[Dict],
                 ref: Reference) -> List[str]:
    problems = []
    case = {r["scheme_id"]: r for r in rows if r["kind"] == "case"}
    avg = {r["scheme_id"]: float(r["se_analytic"]) for r in rows
           if r["kind"] == "skipping_average"}
    if set(case) != set(PAPER_SE) or set(avg) != set(PAPER_SKIP_AVG):
        return ["table1 rows missing"]
    mc_tol = mc_tolerance(TABLE1_MC_TOL, int(config["trials"]))
    for sid, target in PAPER_SE.items():
        se = float(case[sid]["se_analytic"])
        se_mc = float(case[sid]["se_mc"])
        if abs(se - target) > TABLE1_ANALYTIC_TOL:
            problems.append(f"table1 analytic {sid} {se} vs paper {target}")
        if abs(se_mc - target) > mc_tol:
            problems.append(f"table1 mc {sid} {se_mc} vs paper {target}")
        if abs(se_mc - se) > ref.k_ci * float(case[sid]["se_mc_ci"]):
            problems.append(f"table1 mc {sid} {se_mc} vs analytic {se}")
        if abs(se - ref.values[job["ref"]][sid]) > REFERENCE_TOL:
            problems.append(f"table1 analytic {sid} vs reference")
    best = float(case["best"]["se_analytic"])
    for sid, target in PAPER_SKIP_AVG.items():
        if abs(avg[sid] - target) > TABLE1_ANALYTIC_TOL:
            problems.append(f"skipping average {sid} {avg[sid]} vs paper {target}")
        expect = 0.5 * (best + float(case[sid]["se_analytic"]))
        if abs(avg[sid] - expect) > 1e-9 * expect:
            problems.append(f"skipping average {sid} is not the phase mean")
    return problems


def check_throughput(job: Dict, config: Dict, rows: List[Dict],
                     ref: Reference) -> List[str]:
    problems = []
    se_ref = ref.values[job["ref"]]
    if len(rows) != 41 * 3:
        problems.append(f"{len(rows)} throughput rows, expected {41 * 3}")
    by_scheme: Dict[str, List[Dict]] = {}
    for r in rows:
        by_scheme.setdefault(r["scheme_id"], []).append(r)
    paper_point = config["eta"] == 4.0 and config["lambda_bs_per_km2"] == 70.0
    for sid, group in by_scheme.items():
        want = se_ref["best"] if sid == "best" \
            else 0.5 * (se_ref["best"] + se_ref[sid])
        se = float(group[0]["se_nats_per_s_hz"])
        if abs(se - want) > REFERENCE_TOL:
            problems.append(f"throughput se {sid} {se} vs reference {want}")
        if paper_point:
            target = PAPER_SE["best"] if sid == "best" else PAPER_SKIP_AVG[sid]
            if abs(se - target) > TABLE1_ANALYTIC_TOL:
                problems.append(f"throughput se {sid} {se} vs paper {target}")
        tput = [float(r["throughput_nats_per_s"]) for r in group]
        if any(b > a * (1 + 1e-12) for a, b in zip(tput, tput[1:])):
            problems.append(f"throughput {sid} grows with velocity")
        for r in group:
            nats, bits = float(r["throughput_nats_per_s"]), \
                float(r["throughput_bits_per_s"])
            if abs(bits * math.log(2.0) - nats) > 1e-8 * max(nats, 1.0):
                problems.append(f"throughput {sid} bits do not match nats")
                break
    return problems


def check_distance(job: Dict, config: Dict, rows: List[Dict],
                   ref: Reference) -> List[str]:
    problems = []
    if len(rows) != job["rows"]:
        problems.append(f"{len(rows)} distance rows, expected {job['rows']}")
    a = math.pi * job["lam"]
    sq_sum = 0.0
    for r in rows:
        x, y, z = float(r["r1_km"]), float(r["r2_km"]), float(r["r3_km"])
        if not (0.0 < x <= y <= z):
            problems.append("distances not ordered")
            break
        want = {
            "joint_pdf_r1_r2_r3": (2 * a) ** 3 * x * y * z * math.exp(-a * z * z),
            "marginal_pdf_r1": 2 * a * x * math.exp(-a * x * x),
            "marginal_pdf_r2": 2 * a * a * y ** 3 * math.exp(-a * y * y),
            "joint_pdf_r2_r3": 4 * a ** 3 * y ** 3 * z * math.exp(-a * z * z),
            "conditional_pdf_r1_given_r2": 2 * x / (y * y),
        }
        bad = [k for k, w in want.items()
               if abs(float(r[k]) - w) > PDF_REL_TOL * abs(w)]
        if bad:
            problems.append(f"pdf columns {bad} disagree with the formulas")
            break
        sq_sum += x * x
    # pi*lambda*r1^2 is Exp(1): its mean is 1 with standard error 1/sqrt(n).
    n = len(rows)
    if n and abs(a * sq_sum / n - 1.0) > 5.0 / math.sqrt(n):
        problems.append("r1 distribution off: mean of pi*lambda*r1^2 "
                        f"{a * sq_sum / n:.4f}")
    return problems


CHECKS = {"coverage": check_coverage, "table1": check_table1,
          "throughput": check_throughput, "distance": check_distance}


def check_job(job: Dict, path: str, ref: Reference) -> List[str]:
    try:
        config, rows = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    if not rows:
        return ["empty output"]
    try:
        return CHECKS[job["kind"]](job, config, rows, ref)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]


def check_coherent(jobs: List[Dict], paths: Dict[str, str]) -> Dict[str, List[str]]:
    """Coherent joint transmission never covers less than non-coherent on the
    same draws; paper-mc runs every variant on one seed, so this is exact."""
    out = {}
    by_id = {j["id"]: j for j in jobs}
    for coh, base in (("coverage-skip-comp+coh", "coverage-skip-comp"),
                      ("coverage-skip-comp+ic+coh", "coverage-skip-comp+ic")):
        if coh not in by_id or base not in by_id:
            continue
        try:
            mc_coh = [float(r["mc"]) for r in read_csv(paths[coh])[1]]
            mc_base = [float(r["mc"]) for r in read_csv(paths[base])[1]]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            out[coh] = [f"unreadable output: {exc}"]
            continue
        if len(mc_coh) != len(mc_base) or any(
                c < b for c, b in zip(mc_coh, mc_base)):
            out[coh] = [f"coherent coverage below {base}"]
    return out
