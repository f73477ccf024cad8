"""Command-line front-end emitting machine-readable curve and table data.

Subcommands: coverage | table1 | throughput | validate | distance.
Configuration comes from an optional JSON file plus flag overrides; every
output file starts with a header recording the fully resolved configuration,
so runs are reproducible byte-for-byte given the same config and seed.

Exit codes: 0 success, 1 a validate check failed, 2 invalid config, 3 numerical
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, cycle, groupby
from types import NoneType
from typing import Dict, List, Optional, Sequence, Union, get_type_hints

import numpy as np

from . import __version__
from . import coverage as cov
from . import checks, distances, montecarlo, throughput
from .model import (
    ANALYTIC_VARIANTS,
    Association,
    MobilityParams,
    NetworkParams,
    OverheadParams,
    SchemeError,
    SchemeSpec,
    db_to_linear,
)
from .montecarlo import SimulationSpec
from .numerics import QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

MAX_ROWS = 100_000  # most grid points a command takes, and distance rows


class ConfigError(ValueError):
    pass


#: The config schema: file key, RunConfig section, field, type and the CLI
#: flag that overrides it.  Defaults are the section dataclasses' defaults.
CONFIG_TABLE = (
    ("lambda_bs_per_km2", "network", "lambda_bs", float, "--lambda"),
    ("eta", "network", "eta", float, "--eta"),
    ("tx_power_w", "network", "tx_power", float, None),
    ("noise_power_w", "network", "noise_power", float, None),
    ("bandwidth_hz", "network", "bandwidth", float, None),
    ("velocity_kmh", "mobility", "velocity", float, None),
    ("ho_delay_s", "mobility", "ho_delay", float, None),
    ("u_c_conventional", "overhead", "u_conventional", float, None),
    ("u_c_skipping", "overhead", "u_skipping", float, None),
    ("trials", "simulation", "trials", int, "--trials"),
    ("seed", "simulation", "seed", int, "--seed"),
    ("batch_size", "simulation", "batch_size", int, None),
)


@dataclass(frozen=True)
class RunConfig:
    network: NetworkParams
    mobility: MobilityParams
    overhead: OverheadParams
    simulation: SimulationSpec

    def as_dict(self) -> Dict:
        return {key: getattr(getattr(self, section), name)
                for key, section, name, _, _ in CONFIG_TABLE}


#: RunConfig section name -> its dataclass.
_SECTIONS = get_type_hints(RunConfig)


def build_config(raw: Dict) -> RunConfig:
    unknown = set(raw) - {row[0] for row in CONFIG_TABLE}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    fields: Dict[str, Dict] = {section: {} for section in _SECTIONS}
    try:
        for key, section, name, kind, _ in CONFIG_TABLE:
            if key not in raw:
                continue
            value = raw[key]  # a JSON number: no bool or string is coerced
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{key} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if kind is int and value % 1:
                raise ConfigError(f"{key} must be an integer, got {value}")
            fields[section][name] = kind(value)
        return RunConfig(**{section: cls(**fields[section])
                            for section, cls in _SECTIONS.items()})
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: Optional[str], overrides: Dict) -> RunConfig:
    raw: Dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return build_config(raw)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _write(path: Optional[str], fmt: str, config: RunConfig,
           columns: Sequence[str],
           rows: Union[Sequence[Sequence], np.ndarray]) -> None:
    if fmt == "csv":
        # No cell holds a comma, quote or newline, so a join is valid CSV.
        lines = [f"# skipcomp {__version__}",
                 f"# config: {json.dumps(config.as_dict(), sort_keys=True)}",
                 ",".join(columns), *_csv_rows(rows)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {
                "version": __version__,
                "config": config.as_dict(),
                "columns": list(columns),
                "rows": rows.tolist() if isinstance(rows, np.ndarray) else rows,
            },
            sort_keys=True, indent=2,
        ) + "\n"
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _csv_rows(rows: Union[Sequence[Sequence], np.ndarray]) -> List[str]:
    """The rows' CSV lines, one text per run of rows, its lines joined by
    newlines: a float cell in ``.10g``, None as an empty cell, anything else
    as ``str()`` gives it.

    One ``%`` operation formats each run of consecutive rows that share a
    sequence of cell types, over the run's cells flattened; a 2-D float array
    is one all-float run.
    """
    if isinstance(rows, np.ndarray):
        runs = [((float,) * rows.shape[1], len(rows), rows.ravel().tolist())]
    else:
        runs = []
        for types, run in groupby(rows, lambda row: tuple(map(type, row))):
            run = list(run)
            runs.append((types, len(run), chain.from_iterable(run)))
    texts = []
    for types, n, cells in runs:
        if not n:
            continue
        fmt = ",".join("" if t is NoneType else "%.10g" if issubclass(t, float)
                       else "%s" for t in types)
        if NoneType in types:
            cells = compress(cells, cycle([t is not NoneType for t in types]))
        texts.append("\n".join([fmt] * n) % tuple(cells))
    return texts


def _grid(lo: float, hi: float, step: float, what: str) -> List[float]:
    """lo, lo + step, ... up to hi (to the nearest step), as a list of at
    most MAX_ROWS points."""
    if not (step > 0):
        raise ConfigError(f"{what} step must be > 0")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ConfigError(f"{what} grid must be finite")
    n = int(round(span)) + 1
    if n < 1:
        raise ConfigError(f"empty {what} grid")
    if n > MAX_ROWS:
        raise ConfigError(f"{what} grid has {n} points, more than {MAX_ROWS}")
    return [lo + i * step for i in range(n)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_coverage(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        scheme = SchemeSpec(Association(args.scheme), ic=args.ic,
                            coherent=args.coherent)
    except SchemeError as exc:
        raise ConfigError(str(exc)) from exc
    grid = _grid(args.tmin_db, args.tmax_db, args.tstep_db, "threshold")
    try:
        for t_db in grid:
            db_to_linear(t_db)
    except ValueError as exc:
        raise ConfigError(f"threshold {exc}") from exc
    if scheme.coherent and args.mode != "mc":
        raise ConfigError("coherent scheme is simulation-only; use --mode mc")

    n = len(grid)
    analytic = mc = mc_ci = trials = [None] * n
    if args.mode != "mc":
        analytic = cov.coverage_curve(scheme, config.network, grid).values
    if args.mode != "analytic":
        curve = montecarlo.empirical_coverage(
            scheme, config.network, config.simulation, grid
        )
        mc, mc_ci = curve.values, curve.ci_halfwidths
        trials = [config.simulation.trials] * n
    rows = list(zip(grid, [scheme.scheme_id] * n, analytic, mc, mc_ci, trials))
    _write(args.out, args.format, config,
           ["threshold_db", "scheme_id", "analytic", "mc", "mc_ci_halfwidth",
            "trials"], rows)
    return EXIT_OK


def cmd_table1(args: argparse.Namespace, config: RunConfig) -> int:
    ses = {s: throughput.spectral_efficiency(s, config.network)
           for s in ANALYTIC_VARIANTS}
    mc = montecarlo.empirical_spectral_efficiencies(config.network,
                                                    config.simulation)
    rows = [[s.scheme_id, "case", se, *mc[s]] for s, se in ses.items()]
    se_best = ses[ANALYTIC_VARIANTS[0]]
    rows += [[s.scheme_id, "skipping_average",
              throughput.skipping_avg_se(se_best, ses[s]), None, None]
             for s in ANALYTIC_VARIANTS[1:]]
    _write(args.out, args.format, config,
           ["scheme_id", "kind", "se_analytic", "se_mc", "se_mc_ci"], rows)
    return EXIT_OK


def cmd_throughput(args: argparse.Namespace, config: RunConfig) -> int:
    velocities = _grid(args.vmin, args.vmax, args.vstep, "velocity")
    d_values = args.delay if args.delay else [config.mobility.ho_delay]
    if not all(0 <= v < math.inf for v in velocities + d_values):
        raise ConfigError("velocities and HO delays must be finite and >= 0")
    # best connected, then skip and skip-comp with or without IC
    schemes = [s for s in ANALYTIC_VARIANTS
               if s.association is Association.BEST_CONNECTED or s.ic == args.ic]
    points = throughput.throughput_sweep(
        config.network, schemes, velocities, d_values, config.overhead
    )
    rows = [
        [p.velocity, p.scheme.scheme_id, p.ho_delay, p.ho_rate, p.ho_cost,
         p.spectral_efficiency, p.throughput_nats, p.throughput_bits]
        for p in points
    ]
    _write(args.out, args.format, config,
           ["velocity_kmh", "scheme_id", "ho_delay_s", "ho_rate_per_s",
            "ho_cost", "se_nats_per_s_hz", "throughput_nats_per_s",
            "throughput_bits_per_s"], rows)
    return EXIT_OK


def cmd_distance(args: argparse.Namespace, config: RunConfig) -> int:
    lam = config.network.lambda_bs
    draws = distances.sample_ordered_distances_array(
        lam, montecarlo._batch_rng(config.simulation.seed, 0),
        min(config.simulation.trials, MAX_ROWS))
    r1, r2, r3 = draws.T
    rows = np.column_stack([
        draws,
        distances.joint_pdf_r123(r1, r2, r3, lam),
        distances.marginal_pdf_r1(r1, lam),
        distances.marginal_pdf_r2(r2, lam),
        distances.joint_pdf_r2_r3(r2, r3, lam),
        distances.conditional_pdf_r1_given_r2(r1, r2),
    ])
    _write(args.out, args.format, config,
           ["r1_km", "r2_km", "r3_km", "joint_pdf_r1_r2_r3", "marginal_pdf_r1",
            "marginal_pdf_r2", "joint_pdf_r2_r3", "conditional_pdf_r1_given_r2"],
           rows)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, config: RunConfig) -> int:
    net, sim = config.network, config.simulation
    results = [*checks.pdf_normalization(net.lambda_bs),
               checks.best_connected_anchor(net.lambda_bs),
               *checks.eta4_equivalence(net),
               *checks.mc_vs_analytic(net, sim, range(-10, 21, 3))]
    for c in results:
        print(f"{c.name}: {'pass' if c.ok else 'FAIL'}")
    return EXIT_OK if all(c.ok for c in results) else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call
    of ``main`` in the process.  It holds no subcommand function: ``main``
    looks ``cmd_<command>`` up when it runs, so a patched one takes effect."""
    parser = argparse.ArgumentParser(
        prog="skipcomp",
        description="Coverage and mobility-aware throughput for PPP downlinks "
                    "with cooperative handover skipping.",
    )
    parser.add_argument("--version", action="version",
                        version=f"skipcomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, what):
        p = sub.add_parser(name, help=what)
        p.add_argument("--config", metavar="PATH")
        for key, _, _, kind, flag in CONFIG_TABLE:
            if flag:
                p.add_argument(flag, dest=key, type=kind)
        return p

    def table(name, what):  # a subcommand that writes a table
        p = common(name, what)
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        return p

    p = table("coverage", "coverage probability curves")
    p.add_argument("--scheme", choices=[a.value for a in Association],
                   default="best")
    p.add_argument("--ic", action="store_true")
    p.add_argument("--coherent", action="store_true")
    p.add_argument("--mode", choices=["analytic", "mc", "both"], default="both")
    p.add_argument("--tmin-db", type=float, default=-10.0)
    p.add_argument("--tmax-db", type=float, default=20.0)
    p.add_argument("--tstep-db", type=float, default=1.0)

    table("table1", "spectral efficiencies for all cases")

    p = table("throughput", "average throughput vs velocity")
    p.add_argument("--ic", action="store_true", default=True)
    p.add_argument("--no-ic", dest="ic", action="store_false")
    p.add_argument("--vmin", type=float, default=0.0)
    p.add_argument("--vmax", type=float, default=200.0)
    p.add_argument("--vstep", type=float, default=10.0)
    p.add_argument("--delay", type=float, action="append")

    common("validate", "run the invariant check suite")
    table("distance", "dump ordered-distance PDF samples")

    return parser


@cache
def keep_freed_heap() -> bool:
    """Keep freed heap in the process, once per process: glibc's dynamic trim
    threshold settles near 1 MiB while an MC batch's temporaries peak near
    2.7 MiB, so each job would return them to the OS and page-fault them back
    in.  Setting either threshold freezes glibc's dynamic adjustment of both,
    so both are set.  False, doing nothing, where libc has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD: keep up to 32 MiB freed
    mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD: blocks below 1 MiB on the heap
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    keep_freed_heap()
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key, *_, flag in CONFIG_TABLE
                 if flag}
    try:
        config = load_config(args.config, overrides)
        return globals()[f"cmd_{args.command}"](args, config)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, FloatingPointError, ValueError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IOError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
