#!/usr/bin/env python3
"""skipcomp benchmark: one command, three workloads, one client in a closed loop.

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 30 --trace 0

Each pass runs the workload's job list in a fresh interpreter
(``perfbench/worker.py``), so the program's caches start empty as they do for
a CLI user.  Passes repeat until ``--seconds`` is used up.  Every job's
output is checked after its pass, outside the timed region.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402
import context  # noqa: E402
import workloads as wl  # noqa: E402

WORK = os.path.join(ROOT, ".bench_build", "perfbench")
PASS_TIMEOUT_S = 120  # a run still ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
#: failed / attempted of the result line, printed in the summary only.
SUMMARY_UNITS = {"failed_share": "share"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny job sizes, to check the harness in seconds")
    return ap.parse_args(argv)


def prepare(args):
    """Materialise the job list: output paths and config files."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "skipcomp", "cli.py")):
        raise HarnessError(f"no program source under {src}")
    plan = wl.build(args.workload, args.seed, args.smoke)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + \
        ("-smoke" if args.smoke else "")
    workdir = os.path.join(WORK, tag)
    os.makedirs(workdir, exist_ok=True)
    subst = {}
    for name, cfg in plan["configs"].items():
        path = os.path.join(workdir, f"config-{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        subst["{config:%s}" % name] = path

    def resolve(argv, out):
        return [out if a == "{out}" else subst.get(a, a) for a in argv]

    jobs = []
    for job in plan["jobs"]:
        out = os.path.join(workdir, f"{job['id']}.csv")
        jobs.append({**job, "argv": resolve(job["argv"], out), "out": out})
    warmup = resolve(plan["warmup"], os.path.join(workdir, "warmup.csv"))
    return src, workdir, jobs, warmup, tag


def run_pass(src, workdir, jobs, warmup, traced, index):
    plan_path = os.path.join(workdir, f"plan-{index}.json")
    result_path = os.path.join(workdir, f"result-{index}.json")
    plan = {"src": src, "jobs": jobs, "warmup": warmup, "trace": traced,
            "result_path": result_path,
            "spans_path": os.path.join(workdir, f"spans-{index}.jsonl")}
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(context.nproc())
    env["PYTHONHASHSEED"] = "0"
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise HarnessError(f"pass {index} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["t_ready"] - t_spawn
    result["traced"] = traced
    return result


def check_pass(result, jobs, ref, first_hashes):
    """Failure reasons of every job in one pass, keyed by job id."""
    paths = {j["id"]: j["out"] for j in jobs}
    failures = {}
    cross = checks.check_coherent(jobs, paths)
    for job, timing in zip(jobs, result["jobs"]):
        problems = []
        if timing["error"] is not None:
            problems.append("raised: " + timing["error"].strip().splitlines()[-1])
        elif timing["code"] != 0:
            problems.append(f"exit code {timing['code']}")
        else:
            problems += checks.check_job(job, job["out"], ref)
            problems += cross.get(job["id"], [])
            with open(job["out"], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if first_hashes.setdefault(job["id"], digest) != digest:
                problems.append("output differs from the first pass")
        if problems:
            failures[job["id"]] = problems
    return failures


def job_seconds(passes, jobs):
    """Each job's fastest time over the given passes.

    The CPU this runs on changes speed by up to 2x over tens of seconds when
    other tenants load it; a job's fastest pass is the estimate of its cost
    that such load moves least.
    """
    return {j["id"]: min(p["jobs"][i]["s"] for p in passes)
            for i, j in enumerate(jobs)}


def rates(seconds, jobs):
    """Work per second, by the kind of work each job does."""

    def rate(work, select):
        chosen = [j for j in jobs if select(j)]
        busy = sum(seconds[j["id"]] for j in chosen)
        return sum(work(j) for j in chosen) / busy if busy > 0 else 0.0

    return {
        "mc_trials_per_s": rate(lambda j: j["trials"], lambda j: j["trials"] > 0),
        "analytic_values_per_s": rate(
            lambda j: j["analytic_values"],
            lambda j: j["trials"] == 0 and j["analytic_values"] > 0),
        "distance_rows_per_s": rate(lambda j: j["rows"], lambda j: j["rows"] > 0),
    }


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def measure(args):
    src, workdir, jobs, warmup, tag = prepare(args)
    ref = checks.Reference(os.path.join(HERE, "reference.json"))
    # A traced run alternates traced and untraced passes, starting traced.
    min_passes = 2 if args.trace else 1
    passes, first_hashes = [], {}
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        traced = bool(args.trace) and len(passes) % 2 == 0
        result = run_pass(src, workdir, jobs, warmup, traced, len(passes))
        result["duration_s"] = time.monotonic() - t0
        result["failures"] = check_pass(result, jobs, ref, first_hashes)
        passes.append(result)
        elapsed = time.monotonic() - start
        typical = statistics.median(p["duration_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > args.seconds:
            break
    return jobs, passes, tag


def summarise(args, jobs, passes):
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = len(jobs) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    seconds = job_seconds(untraced, jobs)
    work_rates = rates(seconds, jobs)
    info = {
        "setup_s": median_of(passes, "setup_s"),
        "wall_s": sum(seconds.values()),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        **work_rates,
        "failed_share": failed / attempted,
    }
    if args.trace:
        layers = {k: median_of([p["layers"] for p in traced], k)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_share"] = (
            sum(job_seconds(traced, jobs).values()) / info["wall_s"] - 1.0)
        layers.update(work_rates)
        metrics = layers
    else:
        metrics = {k: info[k] for k in END_TO_END}
    return attempted, failed, info, metrics


def load_units():
    """Units of every metric: BENCHMARK.json's, plus the summary-only ones."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {**SUMMARY_UNITS, **units}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        jobs, passes, tag = measure(args)
    except (HarnessError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, info, metrics = summarise(args, jobs, passes)
    units = load_units()

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"jobs/pass={len(jobs)} trace={args.trace}")
    for name, value in info.items():
        print(f"{name:>24} {value:.6g} {units[name]}")
    for k, p in enumerate(passes):
        for job_id, problems in p["failures"].items():
            print(f"FAILED pass {k} {job_id}: {'; '.join(problems)}")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as fh:
        json.dump({"args": vars(args), "context": context.collect(ROOT, False),
                   "summary": info, "metrics": metrics, "passes": passes},
                  fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
