"""Job lists of the three benchmark workloads.

A job is one in-process ``skipcomp.cli.main(argv)`` call.  Every job writes
its CSV to ``OUT`` (replaced by a path in the work directory) and may read a
generated config file named in ``configs``.  The workload seed only sets the
Monte Carlo seeds of the jobs and the order of the analytic-sweep jobs; the
cost of a pass therefore does not depend on it.
"""

from __future__ import annotations

import random
from typing import Dict, List

OUT = "{out}"

#: Scheme flags of the five variants that have an analytic coverage.
ANALYTIC_SCHEMES = (
    ("best", []),
    ("skip", []),
    ("skip+ic", ["--ic"]),
    ("skip-comp", []),
    ("skip-comp+ic", ["--ic"]),
)
COHERENT_SCHEMES = (
    ("skip-comp+coh", ["--coherent"]),
    ("skip-comp+ic+coh", ["--ic", "--coherent"]),
)

PAPER_TRIALS = 5_000
REGIME_TRIALS = 2_000
DISTANCE_ROWS = 10_000
SMOKE_TRIALS = 1_000
SMOKE_ROWS = 500



def grid(lo: float, hi: float, step: float) -> List[str]:
    return ["--tmin-db", f"{lo:g}", "--tmax-db", f"{hi:g}", "--tstep-db", f"{step:g}"]


FULL_GRID = grid(-10, 20, 1)
REGIME_GRID = grid(-10, 20, 2)

REGIME_ETAS = (2.5, 3.0, 3.5, 6.0)
REGIME_LAMBDAS = (10.0, 70.0)
REGIME_NOISES = (0.0, 1e3, 1e6)

SWEEP_PAIRS = [(lam, eta) for eta in (3.5, 4.0, 6.0) for lam in (50.0, 70.0)]
SWEEP_DELAYS = ("0.7", "2.0")
SWEEP_NOISE = 1e3
#: Noisy coverage (lambda = 70): a curve at eta = 4 and, where a skip-comp
#: point costs ~0.3 s, one job per threshold at eta = 3.5, so no job is long.
NOISY_JOBS = [(4.0, grid(-10, 20, 5))] + [(3.5, grid(t, t, 1))
                                          for t in (-10, 10)]

WORKLOADS = ("paper-mc", "regime-mc", "analytic-sweep")


def _job(job_id: str, kind: str, argv: List[str], **fields) -> Dict:
    job = {
        "id": job_id,
        "kind": kind,
        "argv": argv + ["--out", OUT],
        "noise": 0.0,
        "trials": 0,          # MC trials simulated by the job
        "analytic_values": 0,  # analytic outputs the job writes
        "rows": 0,            # distance rows written
        "ref": None,          # key into the reference file
    }
    job.update(fields)
    return job


def _noise_config(noise: float) -> Dict:
    return {"noise_power_w": noise}


def thresholds(grid: List[str]) -> List[float]:
    """The dB thresholds the CLI evaluates for a --tmin/--tmax/--tstep grid."""
    lo, hi, step = float(grid[1]), float(grid[3]), float(grid[5])
    return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]



def paper_mc(seed: int, smoke: bool = False) -> Dict:
    """Paper defaults, every job on the same simulate inputs."""
    trials = SMOKE_TRIALS if smoke else PAPER_TRIALS
    rng = random.Random(seed)
    shared = str(rng.randrange(1, 2**31))
    common = ["--trials", str(trials), "--seed", shared]
    jobs = [_job("table1", "table1", ["table1", *common], trials=trials,
                 analytic_values=5, ref="paper-mc/table1")]
    n = len(thresholds(FULL_GRID))
    for sid, flags in ANALYTIC_SCHEMES:
        jobs.append(_job(
            f"coverage-{sid}", "coverage",
            ["coverage", "--scheme", sid.split("+")[0], *flags, "--mode", "both",
             *common, *FULL_GRID],
            trials=trials, analytic_values=n, ref=f"paper-mc/{sid}", scheme=sid,
        ))
    for sid, flags in COHERENT_SCHEMES:
        jobs.append(_job(
            f"coverage-{sid}", "coverage",
            ["coverage", "--scheme", "skip-comp", *flags, "--mode", "mc",
             *common, *FULL_GRID],
            trials=trials, scheme=sid,
        ))
    warmup = ["coverage", "--scheme", "skip-comp", "--mode", "both",
              "--lambda", "5", "--trials", "2000", "--seed", "1",
              "--tmin-db", "0.5", "--tmax-db", "2.5", "--tstep-db", "1",
              "--out", OUT]
    return {"jobs": jobs, "warmup": warmup, "configs": {}}


def regime_key(lam: float, eta: float, noise: float, sid: str) -> str:
    return f"regime-mc/lambda={lam:g}/eta={eta:g}/noise={noise:g}/{sid}"


def regime_jobs() -> List[Dict]:
    """The fixed regime grid, each regime on one analytic scheme in turn."""
    out = []
    i = 0
    for eta in REGIME_ETAS:
        for lam in REGIME_LAMBDAS:
            for noise in REGIME_NOISES:
                sid, flags = ANALYTIC_SCHEMES[i % len(ANALYTIC_SCHEMES)]
                out.append({"lam": lam, "eta": eta, "noise": noise,
                            "sid": sid, "flags": flags})
                i += 1
    return out


def regime_mc(seed: int, smoke: bool = False) -> Dict:
    """Regimes away from the paper's point, a fresh seed for every job."""
    trials = SMOKE_TRIALS if smoke else REGIME_TRIALS
    rows = SMOKE_ROWS if smoke else DISTANCE_ROWS
    rng = random.Random(seed)
    regimes = regime_jobs()
    seeds = rng.sample(range(1, 2**31), len(regimes) + len(REGIME_LAMBDAS))
    configs = {f"noise-{n:g}": _noise_config(n) for n in REGIME_NOISES}
    jobs = []
    for r, s in zip(regimes, seeds):
        lam, eta, noise, sid = r["lam"], r["eta"], r["noise"], r["sid"]
        jobs.append(_job(
            f"mc-l{lam:g}-e{eta:g}-n{noise:g}-{sid}", "coverage",
            ["coverage", "--config", "{config:noise-%g}" % noise,
             "--scheme", sid.split("+")[0], *r["flags"], "--mode", "mc",
             "--lambda", f"{lam:g}", "--eta", f"{eta:g}",
             "--trials", str(trials), "--seed", str(s), *REGIME_GRID],
            noise=noise, trials=trials, scheme=sid,
            ref=regime_key(lam, eta, noise, sid),
        ))
    for lam, s in zip(REGIME_LAMBDAS, seeds[len(regimes):]):
        jobs.append(_job(
            f"distance-l{lam:g}", "distance",
            ["distance", "--lambda", f"{lam:g}", "--trials", str(rows),
             "--seed", str(s)],
            rows=rows, lam=lam,
        ))
    warmup = ["coverage", "--scheme", "skip", "--mode", "mc", "--lambda", "5",
              "--eta", "4.5", "--trials", "2000", "--seed", "1",
              "--tmin-db", "0", "--tmax-db", "2", "--tstep-db", "1",
              "--out", OUT]
    return {"jobs": jobs, "warmup": warmup, "configs": configs}


def sweep_key(lam: float, eta: float, noise: float, what: str) -> str:
    return f"analytic-sweep/lambda={lam:g}/eta={eta:g}/noise={noise:g}/{what}"


def noisy_key(eta: float, sid: str, tgrid: List[str]) -> str:
    return sweep_key(70.0, eta, SWEEP_NOISE, f"{sid}/{tgrid[1]}..{tgrid[3]}dB")


def analytic_sweep(seed: int, smoke: bool = False) -> Dict:
    """Noise-free throughput and coverage over (lambda, eta), plus noisy curves.

    Smoke mode keeps only the eta = 4 jobs, which are closed forms.
    """
    jobs = []
    n_full = len(thresholds(FULL_GRID))
    for lam, eta in SWEEP_PAIRS:
        if smoke and eta != 4.0:
            continue
        base = ["--lambda", f"{lam:g}", "--eta", f"{eta:g}"]
        for ic_flag in ("--ic", "--no-ic"):
            for delay in SWEEP_DELAYS:
                jobs.append(_job(
                    f"throughput-l{lam:g}-e{eta:g}{ic_flag[1:]}-d{delay}",
                    "throughput",
                    ["throughput", *base, ic_flag, "--delay", delay,
                     "--vmin", "0", "--vmax", "200", "--vstep", "5"],
                    analytic_values=3, lam=lam, eta=eta,
                    ref=sweep_key(lam, eta, 0.0, "se"),
                ))
        for sid, flags in ANALYTIC_SCHEMES:
            jobs.append(_job(
                f"analytic-l{lam:g}-e{eta:g}-{sid}", "coverage",
                ["coverage", *base, "--scheme", sid.split("+")[0], *flags,
                 "--mode", "analytic", *FULL_GRID],
                analytic_values=n_full, scheme=sid, lam=lam, eta=eta,
                ref=sweep_key(lam, eta, 0.0, sid),
            ))
    for eta, tgrid in NOISY_JOBS[:1] if smoke else NOISY_JOBS:
        for sid, flags in ANALYTIC_SCHEMES:
            jobs.append(_job(
                f"noisy-e{eta:g}-{sid}-t{tgrid[1]}..{tgrid[3]}", "coverage",
                ["coverage", "--config", "{config:noisy}",
                 "--eta", f"{eta:g}", "--scheme", sid.split("+")[0], *flags,
                 "--mode", "analytic", *tgrid],
                noise=SWEEP_NOISE, analytic_values=len(thresholds(tgrid)),
                scheme=sid, lam=70.0, eta=eta, ref=noisy_key(eta, sid, tgrid),
            ))
    random.Random(seed).shuffle(jobs)
    warmup = ["coverage", "--scheme", "skip-comp", "--mode", "analytic",
              "--lambda", "5", "--eta", "4.5",
              "--tmin-db", "0.5", "--tmax-db", "2.5", "--tstep-db", "1",
              "--out", OUT]
    return {"jobs": jobs, "warmup": warmup,
            "configs": {"noisy": _noise_config(SWEEP_NOISE)}}


BUILDERS = {"paper-mc": paper_mc, "regime-mc": regime_mc,
            "analytic-sweep": analytic_sweep}


def build(workload: str, seed: int, smoke: bool = False) -> Dict:
    return BUILDERS[workload](seed, smoke)
