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
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, get_type_hints

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
    SinrThreshold,
)
from .montecarlo import SimulationSpec
from .numerics import QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


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
    ("window_radius_km", "simulation", "window_radius", float, None),
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
            value = raw[key]
            # None is accepted only where it is the default.
            if value is not None or getattr(_SECTIONS[section], name) is not None:
                value = kind(value)
                if not math.isfinite(value):
                    raise ConfigError(f"{key} must be finite, got {value}")
            fields[section][name] = value
        config = RunConfig(**{section: cls(**fields[section])
                              for section, cls in _SECTIONS.items()})
        config.simulation.radius_for(config.network.lambda_bs)  # window too small
        return config
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
           columns: Sequence[str], rows: List[List]) -> None:
    if fmt == "csv":
        # No cell holds a comma, quote or newline, so a join is valid CSV.
        lines = [f"# skipcomp {__version__}",
                 f"# config: {json.dumps(config.as_dict(), sort_keys=True)}",
                 ",".join(columns)]
        lines += _csv_rows(rows)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {
                "version": __version__,
                "config": config.as_dict(),
                "columns": list(columns),
                "rows": rows,
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


def _csv_rows(rows: List[List]) -> List[str]:
    """Each row as one CSV line: a float cell in ``.10g``, None as an empty
    cell, anything else as ``str()`` gives it.

    One ``%`` operation formats a row; its format is built once per sequence
    of cell types, which is the same for every row of most tables.
    """
    formats = {}
    lines = []
    for row in rows:
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "" if t is type(None) else "%.10g" if issubclass(t, float)
                else "%s" for t in types)
        lines.append(fmt % (tuple(v for v in row if v is not None)
                            if type(None) in types else tuple(row)))
    return lines


def _grid(lo: float, hi: float, step: float, what: str) -> List[float]:
    """lo, lo + step, ... up to hi (to the nearest step), as a list."""
    if not (step > 0):
        raise ConfigError(f"{what} step must be > 0")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ConfigError(f"{what} grid must be finite")
    n = int(round(span)) + 1
    if n < 1:
        raise ConfigError(f"empty {what} grid")
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
    for t_db in grid:
        try:
            SinrThreshold.from_db(t_db)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"threshold {t_db:g} dB: no positive finite "
                              "linear value") from exc
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
    result = montecarlo.simulate(config.network, config.simulation)
    ses = {s: throughput.spectral_efficiency(s, config.network)
           for s in ANALYTIC_VARIANTS}
    rows = [[s.scheme_id, "case", se,
             *montecarlo.spectral_efficiency_from_result(result, s)]
            for s, se in ses.items()]
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
    if not all(v >= 0 for v in velocities + d_values):
        raise ConfigError("velocities and HO delays must be >= 0")
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
        min(config.simulation.trials, 100_000))
    r1, r2, r3 = draws.T
    rows = np.column_stack([
        draws,
        distances.joint_pdf_r123(r1, r2, r3, lam),
        distances.marginal_pdf_r1(r1, lam),
        distances.marginal_pdf_r2(r2, lam),
        distances.joint_pdf_r2_r3(r2, r3, lam),
        distances.conditional_pdf_r1_given_r2(r1, r2),
    ]).tolist()
    _write(args.out, args.format, config,
           ["r1_km", "r2_km", "r3_km", "joint_pdf_r1_r2_r3", "marginal_pdf_r1",
            "marginal_pdf_r2", "joint_pdf_r2_r3", "conditional_pdf_r1_given_r2"],
           rows)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, config: RunConfig) -> int:
    net, sim = config.network, config.simulation
    results = [*checks.pdf_normalization(net.lambda_bs),
               checks.best_connected_anchor(net.lambda_bs),
               *checks.eta4_equivalence(net)]
    if sim.trials < checks.MC_MIN_TRIALS:
        print("mc_vs_analytic: skipped: underpowered "
              f"(trials={sim.trials} < {checks.MC_MIN_TRIALS})")
    else:
        results += checks.mc_vs_analytic(net, sim, range(-10, 21, 3))
    for c in results:
        print(f"{c.name}: {'pass' if c.ok else 'FAIL'}")
    return EXIT_OK if all(c.ok for c in results) else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skipcomp",
        description="Coverage and mobility-aware throughput for PPP downlinks "
                    "with cooperative handover skipping.",
    )
    parser.add_argument("--version", action="version",
                        version=f"skipcomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH")
        for key, _, _, kind, flag in CONFIG_TABLE:
            if flag:
                p.add_argument(flag, dest=key, type=kind)
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("coverage", help="coverage probability curves")
    common(p)
    p.add_argument("--scheme", choices=[a.value for a in Association],
                   default="best")
    p.add_argument("--ic", action="store_true")
    p.add_argument("--coherent", action="store_true")
    p.add_argument("--mode", choices=["analytic", "mc", "both"], default="both")
    p.add_argument("--tmin-db", type=float, default=-10.0)
    p.add_argument("--tmax-db", type=float, default=20.0)
    p.add_argument("--tstep-db", type=float, default=1.0)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("table1", help="spectral efficiencies for all cases")
    common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("throughput", help="average throughput vs velocity")
    common(p)
    p.add_argument("--ic", action="store_true", default=True)
    p.add_argument("--no-ic", dest="ic", action="store_false")
    p.add_argument("--vmin", type=float, default=0.0)
    p.add_argument("--vmax", type=float, default=200.0)
    p.add_argument("--vstep", type=float, default=10.0)
    p.add_argument("--delay", type=float, action="append")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("validate", help="run the invariant check suite")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("distance", help="dump ordered-distance PDF samples")
    common(p)
    p.set_defaults(func=cmd_distance)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key, *_, flag in CONFIG_TABLE
                 if flag}
    try:
        config = load_config(args.config, overrides)
        return args.func(args, config)
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
