#!/usr/bin/env python3
"""Peak resident memory of fresh ``skipcomp`` processes, per batch size.

    python scripts/peak_rss.py              # batch_size 2,000 and 100,000
    python scripts/peak_rss.py 2000 20000

Each command runs in a new interpreter (``python -m skipcomp``, with this
checkout's ``src/`` first on PYTHONPATH) at the default 100,000 trials, its
table written to the null device.  A command's peak is the child's
``ru_maxrss`` from ``os.wait4`` (KiB on Linux), printed in MB (1e6 bytes)
with its wall time.  The lines that do not depend on the batch size are
printed once: the ``distance`` dumps, and the analytic skip-comp coverage and
throughput at eta = 30, whose cost is building the Gauss-Legendre rules
(256 and 128 nodes; 2,240 and 1,120 for the SE at eta = 30).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = {
    "table1": ["table1"],
    "coverage coherent mc": ["coverage", "--scheme", "skip-comp", "--coherent",
                             "--mode", "mc"],
    "coverage both": ["coverage", "--scheme", "skip-comp", "--mode", "both"],
}
ONCE = {
    "coverage analytic": ["coverage", "--scheme", "skip-comp", "--mode", "analytic"],
    "throughput --eta 30": ["throughput", "--eta", "30"],
    **{f"distance --trials {n}": ["distance", "--trials", str(n)]
       for n in (10_000, 100_000)},
}


def peak(argv):
    """(peak RSS in MB, wall s, exit code) of one fresh skipcomp process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "skipcomp", *argv,
                             "--out", os.devnull], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    return (usage.ru_maxrss * 1024 / 1e6, time.perf_counter() - start,
            os.waitstatus_to_exitcode(status))


def main(argv):
    sizes = [int(a) for a in argv] or [2000, 100_000]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for size in sizes:
            config = os.path.join(tmp, f"batch{size}.json")
            with open(config, "w") as fh:
                json.dump({"batch_size": size}, fh)
            runs += [(f"{name}, batch_size {size}", [*cmd, "--config", config])
                     for name, cmd in COMMANDS.items()]
        runs += list(ONCE.items())
        for name, cmd in runs:
            mb, wall, code = peak(cmd)
            failed += code != 0
            print(f"{name}: {mb:.1f} MB peak RSS, {wall:.2f} s, exit {code}",
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
