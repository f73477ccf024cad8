"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json

Imports ``skipcomp.cli`` from the checkout's ``src``, runs the warm-up job,
then runs every timed job in order, one ``cli.main(argv)`` call each, and
writes the timings (and, in a traced pass, the per-layer metrics and spans)
to the result path named in the plan.  Timestamps are ``time.monotonic()``,
which is system-wide, so the parent can measure set-up from the moment it
started this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from skipcomp import cli

    if cli.main(plan["warmup"]) != 0:
        print("warm-up job failed", file=sys.stderr)
        return 1
    t_ready = time.monotonic()

    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    jobs = []
    start = time.perf_counter()
    for job in plan["jobs"]:
        if tracer is not None:
            tracer.job = job["id"]
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.main(job["argv"])
        except Exception:  # a raising job is a failed job, the pass goes on
            code = None
            error = traceback.format_exc()
        jobs.append({"id": job["id"], "s": time.perf_counter() - t0,
                     "code": code, "error": error})
    wall = time.perf_counter() - start
    t_end = time.monotonic()

    result = {
        "t_ready": t_ready,
        "t_end": t_end,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": jobs,
    }
    if tracer is not None:
        bytes_out = sum(os.path.getsize(j["out"]) for j in plan["jobs"]
                        if os.path.exists(j["out"]))
        result["layers"] = tracer.summary(
            wall,
            {j["id"]: j["noise"] for j in plan["jobs"]},
            sum(j["analytic_values"] for j in plan["jobs"]),
            bytes_out,
        )
        tracer.write_spans(plan["spans_path"])
    with open(plan["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
