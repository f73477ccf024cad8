"""Run context recorded next to every result: machine, versions, source size."""

from __future__ import annotations

import glob
import os
import platform
import subprocess
from importlib import metadata


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "skipcomp", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def collect(root: str, with_cpu_model: bool = True) -> dict:
    """Context of a run.  The CPU model is read from /proc, so the benchmark
    command, which reads only its checkout, leaves it out."""
    ctx = {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": git_sha(root),
        "src_lines": src_lines(root),
    }
    if with_cpu_model:
        ctx["cpu_model"] = cpu_model()
    return ctx
