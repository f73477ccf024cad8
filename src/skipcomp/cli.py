"""Command-line front-end emitting machine-readable curve and table data.

Subcommands: coverage | table1 | throughput | validate | distance.
Configuration comes from an optional JSON file plus flag overrides; every
output file starts with a header recording the fully resolved configuration,
so runs are reproducible byte-for-byte given the same config and seed.

Exit codes: 0 success, 2 invalid config, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from . import coverage as cov
from . import distances, montecarlo, throughput
from .model import (
    Association,
    MobilityParams,
    NetworkParams,
    OverheadParams,
    SchemeSpec,
    SchemeError,
    validate_scheme,
)
from .montecarlo import SimulationSpec
from .numerics import QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


CONFIG_KEYS = {
    "lambda_bs_per_km2": 70.0,
    "eta": 4.0,
    "tx_power_w": 1.0,
    "noise_power_w": 0.0,
    "bandwidth_hz": 1e7,
    "velocity_kmh": 100.0,
    "ho_delay_s": 0.7,
    "u_c_conventional": 0.3,
    "u_c_skipping": 0.15,
    "trials": 100_000,
    "seed": 12345,
    "window_radius_km": None,
    "batch_size": 2000,
}


@dataclass(frozen=True)
class RunConfig:
    network: NetworkParams
    mobility: MobilityParams
    overhead: OverheadParams
    simulation: SimulationSpec

    def as_dict(self) -> Dict:
        return {
            "lambda_bs_per_km2": self.network.lambda_bs,
            "eta": self.network.eta,
            "tx_power_w": self.network.tx_power,
            "noise_power_w": self.network.noise_power,
            "bandwidth_hz": self.network.bandwidth,
            "velocity_kmh": self.mobility.velocity,
            "ho_delay_s": self.mobility.ho_delay,
            "u_c_conventional": self.overhead.u_conventional,
            "u_c_skipping": self.overhead.u_skipping,
            "trials": self.simulation.trials,
            "seed": self.simulation.seed,
            "window_radius_km": self.simulation.window_radius,
            "batch_size": self.simulation.batch_size,
        }


def build_config(raw: Dict) -> RunConfig:
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**CONFIG_KEYS, **raw}
    try:
        return RunConfig(
            network=NetworkParams(
                lambda_bs=float(merged["lambda_bs_per_km2"]),
                eta=float(merged["eta"]),
                tx_power=float(merged["tx_power_w"]),
                noise_power=float(merged["noise_power_w"]),
                bandwidth=float(merged["bandwidth_hz"]),
            ),
            mobility=MobilityParams(
                velocity=float(merged["velocity_kmh"]),
                ho_delay=float(merged["ho_delay_s"]),
            ),
            overhead=OverheadParams(
                u_conventional=float(merged["u_c_conventional"]),
                u_skipping=float(merged["u_c_skipping"]),
            ),
            simulation=SimulationSpec(
                trials=int(merged["trials"]),
                seed=int(merged["seed"]),
                batch_size=int(merged["batch_size"]),
                window_radius=(None if merged["window_radius_km"] is None
                               else float(merged["window_radius_km"])),
            ),
        )
    except (ValueError, TypeError) as exc:
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
        buf = io.StringIO()
        buf.write(f"# skipcomp {__version__}\n")
        buf.write(f"# config: {json.dumps(config.as_dict(), sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else _fmt(v) for v in row])
        text = buf.getvalue()
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


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def _parse_scheme(args: argparse.Namespace) -> SchemeSpec:
    assoc = {a.value: a for a in Association}[args.scheme]
    return validate_scheme(SchemeSpec(assoc, ic=args.ic, coherent=args.coherent))


def _threshold_grid(args: argparse.Namespace) -> List[float]:
    if args.tstep_db <= 0:
        raise ConfigError("tstep-db must be > 0")
    n = int(round((args.tmax_db - args.tmin_db) / args.tstep_db)) + 1
    if n < 1:
        raise ConfigError("empty threshold grid")
    return [args.tmin_db + i * args.tstep_db for i in range(n)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_coverage(args: argparse.Namespace, config: RunConfig) -> int:
    scheme = _parse_scheme(args)
    grid = _threshold_grid(args)
    if scheme.coherent and args.mode != "mc":
        raise ConfigError("coherent scheme is simulation-only; use --mode mc")

    analytic = None
    if args.mode in ("analytic", "both"):
        analytic = cov.coverage_curve(scheme, config.network, grid).values

    mc_vals = mc_cis = None
    if args.mode in ("mc", "both"):
        curve = montecarlo.empirical_coverage(
            scheme, config.network, config.simulation, grid
        )
        mc_vals, mc_cis = curve.values, curve.ci_halfwidths

    rows = []
    for i, t_db in enumerate(grid):
        rows.append([
            t_db,
            scheme.scheme_id,
            None if analytic is None else analytic[i],
            None if mc_vals is None else mc_vals[i],
            None if mc_cis is None else mc_cis[i],
            config.simulation.trials if mc_vals is not None else None,
        ])
    _write(args.out, args.format, config,
           ["threshold_db", "scheme_id", "analytic", "mc", "mc_ci_halfwidth",
            "trials"], rows)
    return EXIT_OK


_TABLE1_CASES = (
    SchemeSpec(Association.BEST_CONNECTED),
    SchemeSpec(Association.SKIP_NO_COOP),
    SchemeSpec(Association.SKIP_NO_COOP, ic=True),
    SchemeSpec(Association.SKIP_COOP),
    SchemeSpec(Association.SKIP_COOP, ic=True),
)


def cmd_table1(args: argparse.Namespace, config: RunConfig) -> int:
    result = montecarlo.simulate(config.network, config.simulation)
    rows = []
    ses = {}
    for scheme in _TABLE1_CASES:
        se = throughput.spectral_efficiency(scheme, config.network)
        mc_se, mc_ci = montecarlo.spectral_efficiency_from_result(result, scheme)
        ses[scheme] = se
        rows.append([scheme.scheme_id, "case", se, mc_se, mc_ci])
    se_best = ses[_TABLE1_CASES[0]]
    for scheme in _TABLE1_CASES[1:]:
        rows.append([
            scheme.scheme_id, "skipping_average",
            throughput.skipping_avg_se(se_best, ses[scheme]), None, None,
        ])
    _write(args.out, args.format, config,
           ["scheme_id", "kind", "se_analytic", "se_mc", "se_mc_ci"], rows)
    return EXIT_OK


def cmd_throughput(args: argparse.Namespace, config: RunConfig) -> int:
    if args.vstep <= 0:
        raise ConfigError("vstep must be > 0")
    n = int(round((args.vmax - args.vmin) / args.vstep)) + 1
    velocities = [args.vmin + i * args.vstep for i in range(n)]
    d_values = args.delay if args.delay else [config.mobility.ho_delay]
    schemes = [
        SchemeSpec(Association.BEST_CONNECTED),
        SchemeSpec(Association.SKIP_NO_COOP, ic=args.ic),
        SchemeSpec(Association.SKIP_COOP, ic=args.ic),
    ]
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
    rng = np.random.Generator(np.random.Philox(key=[config.simulation.seed, 0]))
    draws = distances.sample_ordered_distances_array(
        lam, rng, min(config.simulation.trials, 100_000)
    )
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
    checks: List[tuple] = []
    net = config.network
    lam = net.lambda_bs

    from .numerics import integrate_1d, integrate_ordered_2d

    res = integrate_1d(lambda r: distances.marginal_pdf_r1(r, lam), 0.0, np.inf)
    checks.append(("marginal_r1_normalization", abs(res.value - 1.0) < 1e-6))
    res = integrate_1d(lambda r: distances.marginal_pdf_r2(r, lam), 0.0, np.inf)
    checks.append(("marginal_r2_normalization", abs(res.value - 1.0) < 1e-6))
    res = integrate_ordered_2d(lambda y, z: distances.joint_pdf_r2_r3(y, z, lam))
    checks.append(("joint_r2_r3_normalization", abs(res.value - 1.0) < 1e-6))

    anchor = cov.coverage_best(1.0, NetworkParams(lambda_bs=lam, eta=4.0))
    checks.append(("best_connected_anchor",
                   abs(anchor - cov.best_connected_closed_form(1.0)) < 1e-4))

    for t in (0.1, 1.0, 10.0):
        a = cov.coverage_blackout_coop(t, net, use_eta4_closed_form=True) \
            if abs(net.eta - 4.0) < 1e-9 else None
        b = cov.coverage_blackout_coop(t, net, use_eta4_closed_form=False)
        if a is not None:
            checks.append((f"eta4_equivalence_T{t}", abs(a - b) < 1e-6))

    if config.simulation.trials < 20_000:
        print("mc_vs_analytic: skipped: underpowered "
              f"(trials={config.simulation.trials} < 20000)")
    else:
        result = montecarlo.simulate(net, config.simulation)
        grid = list(range(-10, 21, 3))
        for scheme in _TABLE1_CASES:
            analytic = cov.coverage_curve(scheme, net, grid).values
            mc = montecarlo.coverage_from_result(result, scheme, grid).values
            dev = max(abs(a - m) for a, m in zip(analytic, mc))
            checks.append((f"mc_vs_analytic_{scheme.scheme_id}", dev <= 0.015))

    all_ok = True
    for name, ok in checks:
        print(f"{name}: {'pass' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else 1


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
        p.add_argument("--lambda", dest="lambda_bs", type=float)
        p.add_argument("--eta", type=float)
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    def scheme_flags(p):
        p.add_argument("--scheme", choices=[a.value for a in Association],
                       default="best")
        p.add_argument("--ic", action="store_true")
        p.add_argument("--coherent", action="store_true")

    p = sub.add_parser("coverage", help="coverage probability curves")
    common(p)
    scheme_flags(p)
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
    overrides = {
        "lambda_bs_per_km2": getattr(args, "lambda_bs", None),
        "eta": getattr(args, "eta", None),
        "trials": getattr(args, "trials", None),
        "seed": getattr(args, "seed", None),
    }
    try:
        config = load_config(args.config, overrides)
        return args.func(args, config)
    except (ConfigError, SchemeError, ValueError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IOError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
