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
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import (Dict, Iterator, List, Optional, Sequence, Tuple, Union,
                    get_type_hints)

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
    """Write the table, each text followed by a newline.  CSV writes its
    header, then each text of ``_csv_rows`` as it is formed, so no more than
    one chunk of a float table is held as text."""
    if fmt == "csv":
        # No cell holds a comma, quote or newline, so a join is valid CSV.
        header = [f"# skipcomp {__version__}",
                  f"# config: {json.dumps(config.as_dict(), sort_keys=True)}",
                  ",".join(columns)]
        texts = chain(["\n".join(header)], _csv_rows(rows))
    else:
        # Each float is the number its CSV cell prints, so both formats
        # carry the same 10 significant digits.
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        texts = [json.dumps(
            {
                "version": __version__,
                "config": config.as_dict(),
                "columns": list(columns),
                "rows": [[float(_cell(v)) if isinstance(v, float) else v
                          for v in row] for row in rows],
            },
            sort_keys=True, indent=2,
        )]
    try:
        with (nullcontext(sys.stdout) if path is None
              else open(path, "w")) as fh:
            for text in texts:
                fh.write(text)
                fh.write("\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _cell(value) -> str:
    """A cell: a float in ``%.10g``, None empty, anything else ``str()``.
    JSON writes a float as ``float()`` of its cell."""
    if isinstance(value, float):
        return "%.10g" % value
    return "" if value is None else str(value)


def _csv_rows(rows: Union[Sequence[Sequence], np.ndarray]) -> Iterator[str]:
    """The rows' CSV lines, each cell by ``_cell``.  A 2-D float array goes to
    `_float_table_texts`, which writes the same bytes, many lines a text."""
    if isinstance(rows, np.ndarray):
        if rows.size:
            return _float_table_texts(rows)
        rows = rows.tolist()
    return (",".join(map(_cell, row)) for row in rows)


# A float table's cells are formatted in numpy, FLOAT_CHUNK_ROWS rows at a
# time.  A cell x with |x| in FAST_RANGE has decimal exponent X and digits
# m = round(|x| * 10**(9 - X)), 10**9 <= m < 10**10; the one scaling errs by
# under 3e-6 of m's last unit, so m is the correctly rounded one unless |x| *
# 10**(9 - X) lies within TIE_DELTA of a half.  Such cells, and 0, -0, inf,
# nan and the doubles outside FAST_RANGE, are left to ``_cell``.
FLOAT_CHUNK_ROWS = 2048
FAST_RANGE = (1e-290, 1e290)
TIE_DELTA = 1e-3
_X_SPAN = 300  # the tables cover decimal exponents -300 ... 300
_CELL = 18  # bytes of the longest cell, '-1.234567891e-100', and its separator

# A cell's source row has 24 bytes: its 10 digits, '0.000', '-', then its
# exponent suffix ('e' and the signed exponent), zero-padded to 5 bytes, its
# separator and 2 zeros.  Its layout key is 160 * (x < 0) + 10 * class +
# (k - 1): class 0-13 is fixed point with X = class - 4, 14 and 15 an
# exponent of 2 and 3 digits, and k the significant digits left once
# trailing zeros are stripped.
_ZEROS, _POINT, _MINUS, _EXP, _SEP = 10, 11, 15, 16, 21
_LAYOUTS = 320


@cache
def _layout_runs(key: int) -> List[List[int]]:
    """Where the bytes of a cell of this layout come from in its source row,
    as [dst, dst_end, src, src_end] runs."""
    neg, cls, k = key // 160, key // 10 % 16, key % 10 + 1
    slots = [_MINUS] if neg else []
    if 4 <= cls < 14:
        slots += range(cls - 3)
        if k > cls - 3:
            slots += [_POINT, *range(cls - 3, k)]
    elif cls < 4:  # '0.', 3 - cls zeros, the digits
        slots += [*range(_ZEROS, _ZEROS + 5 - cls), *range(k)]
    else:
        slots += [0] + ([_POINT, *range(1, k)] if k > 1 else [])
        slots += range(_EXP, _EXP + cls - 10)
    slots.append(_SEP)
    runs = []
    for dst, src in enumerate(slots):
        if runs and runs[-1][3] == src and runs[-1][1] == dst:
            runs[-1][1:4:2] = dst + 1, src + 1
        else:
            runs.append([dst, dst + 1, src, src + 1])
    return runs


@cache
def _cell_tables():
    """The kernel's tables, built on its first call: correctly rounded powers
    of ten; as words of a source row, each 4-digit group, each last 2 digits
    with '0.', '000-', each exponent suffix and each separator; each 4-digit
    group's significant digits once its trailing zeros are stripped; and the
    layout key of each exponent's cells, were they positive with k = 6."""
    span = np.arange(-_X_SPAN, _X_SPAN + 1)
    pow10 = np.array([float(f"1e{p}") for p in range(-_X_SPAN, _X_SPAN + 11)])
    d = np.arange(48, 58, dtype=np.uint8)
    digits = np.array(np.meshgrid(d, d, d, d, indexing="ij")).reshape(4, -1).T
    four = np.ascontiguousarray(digits).view(np.uint32).ravel()
    last = np.column_stack([digits[:100, 2:], np.full((100, 2), [48, 46])])
    last = last.astype(np.uint8).view(np.uint32).ravel()
    zeros = np.frombuffer(b"000-", np.uint32)
    exps = np.frombuffer("".join(f"e{x:+03d}".ljust(8, "\0")
                                 for x in span.tolist()).encode(), np.uint64)
    seps = np.frombuffer(b"\0\0\0\0\0,\0\0\0\0\0\0\0\n\0\0", np.uint64)
    i = np.arange(10_000)
    sig4 = (4 - sum(i % 10 ** j == 0 for j in range(1, 5))).astype(np.int16)
    cls = np.where(np.abs(span) >= 100, 15, 14)
    cls[_X_SPAN - 4:_X_SPAN + 10] = range(14)
    keys = (10 * cls + 5).astype(np.int16)
    return pow10, four, last, zeros, exps, seps, sig4, keys


def _fast_cells(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The cells of a 2-D float table, row by row, as `%.10g` writes them,
    each followed by its separator (',' or, at a row's end, a newline), as a
    (cells, _CELL) byte array left-justified and zero-padded; and a mask of
    the cells written so.  The other cells' bytes are undefined."""
    pow10, four, last, zeros, exps, seps, sig4, keys = _cell_tables()
    x = table.ravel()
    n = x.size
    ax = np.abs(x)
    exact = (ax >= FAST_RANGE[0]) & (ax <= FAST_RANGE[1])
    ax[~exact] = 1.0
    # floor(log10(2**e)) for |x| in [2**e, 2**(e+1)): X or X - 1
    e10 = (((ax.view(np.int64) >> 52) - 1023) * 78913) >> 18
    e10 += ax * pow10[_X_SPAN + 9 - e10] >= 1e10
    y = ax * pow10[_X_SPAN + 9 - e10]
    m = np.rint(y)
    exact &= np.abs(y - np.floor(y) - 0.5) >= TIE_DELTA
    carry = m == 1e10
    e10 += carry
    m[carry] = 1e9
    # m = 10**6 hi + 100 mid + lo, and each exact quotient rounds to below
    # the next integer, so floor() splits off the digit groups.
    hi = np.floor(m / 1e6)
    m -= hi * 1e6
    mid = np.floor(m / 100)
    lo = (m - mid * 100).astype(np.intp)
    hi, mid = hi.astype(np.intp), mid.astype(np.intp)
    src = np.empty((n, 24), np.uint8)
    words = src.view(np.uint32)
    words[:, 0] = four[hi]
    words[:, 1] = four[mid]
    words[:, 2] = last[lo]
    words[:, 3] = zeros
    ends = np.full(table.shape, seps[0])
    ends[:, -1] = seps[1]
    src.view(np.uint64)[:, 2] = exps[e10 + _X_SPAN] | ends.ravel()
    key = keys[e10 + _X_SPAN] + sig4[lo]  # as if k = 6 + sig4[lo]: lo > 0
    z = np.flatnonzero(lo == 0)
    key[z] += np.where(mid[z] > 0, sig4[mid[z]] - 2, sig4[hi[z]] - 6)
    key[x < 0] += 160
    # Sort the cells by layout (a stable sort of int16 keys is a radix
    # sort), copy each layout's runs as slices, unsort.
    order = np.argsort(key, kind="stable")
    src = src.view("V24").ravel()[order].view(np.uint8).reshape(n, 24)
    cells = np.zeros((n, _CELL), np.uint8)
    counts = np.bincount(key, minlength=_LAYOUTS).tolist()
    end = 0
    for layout, count in enumerate(counts):
        start, end = end, end + count
        for a, b, c, d in _layout_runs(layout) if count else ():
            cells[start:end, a:b] = src[start:end, c:d]
    out = np.empty_like(cells)
    out.view(f"V{_CELL}").ravel()[order] = cells.view(f"V{_CELL}").ravel()
    return out, exact


def _float_table_texts(table: np.ndarray) -> Iterator[str]:
    """_csv_rows' texts of a 2-D float array, one per FLOAT_CHUNK_ROWS rows,
    each formed when asked for: `_fast_cells`, with ``_cell(x)`` written over
    each cell it leaves."""
    table = np.asarray(table, dtype=np.float64)
    ncol = table.shape[1]
    for start in range(0, len(table), FLOAT_CHUNK_ROWS):
        chunk = table[start:start + FLOAT_CHUNK_ROWS]
        cells, exact = _fast_cells(chunk)
        left = np.flatnonzero(~exact)
        if left.size:
            cells[left] = np.frombuffer(b"".join(
                (_cell(x) + ("\n" if i % ncol == ncol - 1 else ","))
                .encode().ljust(_CELL, b"\0")
                for i, x in zip(left.tolist(), chunk.ravel()[left].tolist())
            ), np.uint8).reshape(-1, _CELL)
        yield cells.tobytes().translate(None, b"\0")[:-1].decode()


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
    if config.simulation.trials > MAX_ROWS:
        raise ConfigError(f"distance table has {config.simulation.trials} "
                          f"rows, more than {MAX_ROWS}")
    draws = distances.sample_ordered_distances_array(
        lam, montecarlo._batch_rng(config.simulation.seed, 0),
        config.simulation.trials)
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
    threshold settles near 1 MiB while a job's temporaries, each kernel's
    few arrays of up to 4 * numerics.BLOCK_VALUES doubles, peak near 1.5 MiB
    at any batch size (tracemalloc, default config, draws already kept:
    table1 1.25 MiB, coherent coverage 1.46 MiB), so each job would return
    them to the OS and page-fault them back in.
    Setting either threshold freezes glibc's dynamic adjustment of both, so
    both are set: the mmap threshold would stay at 128 KiB, and each threshold
    block's (block, interferers, n) array of ``montecarlo._coverage_blocks``
    (up to 4 * BLOCK_VALUES doubles, 512 KiB) would be mapped afresh.  Below
    4 MiB they stay on the heap.  False, doing nothing, where libc has no
    mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD: keep up to 32 MiB freed
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: blocks below 4 MiB on the heap
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
    except (QuadratureError, ArithmeticError, ValueError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IOError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
