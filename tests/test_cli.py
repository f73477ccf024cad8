import ctypes
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import skipcomp
from skipcomp import checks, cli, coverage, montecarlo, throughput
from skipcomp.cli import (
    CONFIG_TABLE,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    MAX_ROWS,
    ConfigError,
    _csv_rows,
    _grid,
    _write,
    build_config,
    build_parser,
    keep_freed_heap,
    load_config,
    main,
)
from skipcomp.model import ANALYTIC_VARIANTS
from skipcomp.montecarlo import K_COND, binomial_ci


NOISY_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "noisy_config.json")  # noise 1e3 W


def run(args):
    return main(args)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "lambda_bs_per_km2": 70.0,
        "eta": 4.0,
        "trials": 2000,
        "seed": 77,
    }))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    return comments, data[0].split(","), [ln.split(",") for ln in data[1:]]


# --------------------------------------------------------------------------
# coverage subcommand
# --------------------------------------------------------------------------

def test_coverage_grid_row_count(tmp_path, config_file):
    out = tmp_path / "cov.csv"
    code = run(["coverage", "--config", config_file, "--mode", "analytic",
                "--tmin-db", "-10", "--tmax-db", "20", "--tstep-db", "1",
                "--out", str(out)])
    assert code == EXIT_OK
    comments, header, rows = read_rows(out)
    assert len(rows) == 31
    assert header[0] == "threshold_db"
    assert any("config" in c for c in comments)
    assert any("skipcomp" in c for c in comments)


def test_coverage_values_monotone(tmp_path, config_file):
    out = tmp_path / "cov.csv"
    run(["coverage", "--config", config_file, "--mode", "analytic",
         "--scheme", "skip-comp", "--ic", "--out", str(out)])
    _, header, rows = read_rows(out)
    i = header.index("analytic")
    vals = [float(r[i]) for r in rows]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert rows[0][1] == "skip-comp+ic"


def test_coverage_mc_mode_fills_ci(tmp_path, config_file):
    out = tmp_path / "cov.csv"
    code = run(["coverage", "--config", config_file, "--mode", "mc",
                "--tstep-db", "10", "--out", str(out)])
    assert code == EXIT_OK
    _, header, rows = read_rows(out)
    assert rows[0][header.index("analytic")] == ""
    assert float(rows[0][header.index("mc_ci_halfwidth")]) > 0
    assert rows[0][header.index("trials")] == "2000"


def test_raw_mc_ci_is_not_zero_width_when_no_trial_is_covered(tmp_path):
    """From 20 dB on, analytic skip-comp lies within the printed CI; the
    coherent per-trial probabilities there are all near 0, and the coherent
    CI is still floored at one trial in 2,000."""
    argv = ["--trials", "2000", "--tmin-db", "20", "--tmax-db", "40",
            "--tstep-db", "10"]
    out = tmp_path / "cov.csv"
    code = run(["coverage", "--scheme", "skip-comp", "--mode", "both", *argv,
                "--out", str(out)])
    assert code == EXIT_OK
    _, header, rows = read_rows(out)
    base = {name: [float(r[header.index(name)]) for r in rows]
            for name in ("analytic", "mc", "mc_ci_halfwidth")}
    for a, m, ci in zip(base["analytic"], base["mc"], base["mc_ci_halfwidth"]):
        assert abs(a - m) <= ci
    code = run(["coverage", "--scheme", "skip-comp", "--coherent", "--mode",
                "mc", *argv, "--out", str(out)])
    assert code == EXIT_OK
    _, header, rows = read_rows(out)
    coh = {name: [float(r[header.index(name)]) for r in rows]
           for name in ("mc", "mc_ci_halfwidth")}
    assert all(c >= b for c, b in zip(coh["mc"], base["mc"]))
    for ci in coh["mc_ci_halfwidth"]:
        assert ci == pytest.approx(binomial_ci(0.0, 2000), rel=1e-9)
        assert ci >= 1.96 / 2000


@pytest.mark.parametrize("eta", ["4", "2.5"])
@pytest.mark.parametrize("ic", [[], ["--ic"]], ids=["no-ic", "ic"])
def test_coherent_mc_never_below_non_coherent(tmp_path, eta, ic):
    """The benchmark's coherent and monotonicity checks, on every printed
    cell of ten seeds."""
    for seed in range(1, 11):
        mc = {}
        for flags in ([], ["--coherent"]):
            out = tmp_path / f"{seed}{flags}.csv"
            assert run(["coverage", "--scheme", "skip-comp", *ic, *flags,
                        "--mode", "mc", "--trials", "2000", "--eta", eta,
                        "--seed", str(seed), "--out", str(out)]) == EXIT_OK
            _, header, rows = read_rows(out)
            mc[bool(flags)] = [float(r[header.index("mc")]) for r in rows]
        assert len(mc[True]) == 31
        assert all(c >= b for c, b in zip(mc[True], mc[False])), seed
        assert all(b <= a for a, b in zip(mc[True], mc[True][1:])), seed


@pytest.mark.parametrize("ic", [[], ["--ic"]], ids=["no-ic", "ic"])
def test_coherent_job_after_its_non_coherent_job(tmp_path, monkeypatch, ic):
    """As in make_coverage_curves.py: a coherent job that follows its
    non-coherent job on the same seed writes the bytes of a coherent job run
    from empty memos, and evaluates the coherent variant alone."""
    argv = ["coverage", "--scheme", "skip-comp", *ic, "--trials", "5000",
            "--seed", "41", "--tstep-db", "5"]
    coherent = argv + ["--coherent", "--mode", "mc"]
    assert run(coherent + ["--out", str(tmp_path / "alone.csv")]) == EXIT_OK
    montecarlo._DRAW_MEMO.clear()
    montecarlo._conditional_coverage.cache_clear()
    assert run(argv + ["--mode", "both", "--out", str(tmp_path / "nc.csv")]) \
        == EXIT_OK
    evaluated = []
    unpatched = montecarlo.trial_coverage

    def recorded(params, scheme, *args):
        evaluated.append(scheme)
        return unpatched(params, scheme, *args)

    monkeypatch.setattr(montecarlo, "trial_coverage", recorded)
    assert run(coherent + ["--out", str(tmp_path / "after.csv")]) == EXIT_OK
    assert (tmp_path / "after.csv").read_bytes() \
        == (tmp_path / "alone.csv").read_bytes()
    assert len(evaluated) == 3  # one call per batch of 2,000 trials
    assert all(s.coherent and s.ic == bool(ic) for s in evaluated)


def conditional_gain_overflows(seed, eta, trials):
    """Whether a gain v^(-eta/2) of the K_COND nearest BSs of some trial of a
    one-batch conditional run overflows or turns subnormal."""
    g = np.random.Generator(np.random.Philox(key=[seed, 0]))
    v = np.cumsum(g.standard_exponential((trials, K_COND)), axis=1)
    with np.errstate(over="ignore", under="ignore"):
        gain = v ** (-0.5 * eta)
    return not np.all((gain >= np.finfo(float).tiny) & (gain < np.inf))


@pytest.mark.parametrize("eta", ["150", "170"])
def test_coherent_mc_prints_where_every_gain_is_finite(tmp_path, eta):
    """At eta 150-186 a near BS's gain v^(-eta/2) may overflow, depending on
    the draws.  Over eight seeds, skip-comp with and without --coherent
    prints, coherent never below non-coherent, exactly where every drawn
    gain is finite, and exits 3 where one is not."""
    printed = 0
    for seed in range(1, 9):
        finite = not conditional_gain_overflows(seed, float(eta), 2000)
        mc = {}
        for flags in ([], ["--coherent"]):
            out = tmp_path / f"{bool(flags)}.csv"
            code = run(["coverage", "--scheme", "skip-comp", *flags, "--mode",
                        "mc", "--eta", eta, "--trials", "2000", "--tstep-db",
                        "10", "--seed", str(seed), "--out", str(out)])
            assert code == (EXIT_OK if finite else EXIT_NUMERIC), seed
            if finite:
                _, header, rows = read_rows(out)
                mc[bool(flags)] = [float(r[header.index("mc")]) for r in rows]
        if finite:
            printed += 1
            assert all(c >= b for c, b in zip(mc[True], mc[False])), seed
    assert printed >= 2


def test_coherent_analytic_is_config_error(tmp_path, config_file, capsys):
    code = run(["coverage", "--config", config_file, "--mode", "analytic",
                "--scheme", "skip-comp", "--coherent",
                "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "simulation-only" in capsys.readouterr().err


def test_coherent_mc_mode_works(tmp_path, config_file):
    out = tmp_path / "cov.csv"
    code = run(["coverage", "--config", config_file, "--mode", "mc",
                "--scheme", "skip-comp", "--coherent", "--tstep-db", "10",
                "--out", str(out)])
    assert code == EXIT_OK


def test_byte_identical_reproducibility(tmp_path, config_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["coverage", "--config", config_file, "--tstep-db", "5"]
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_json_format(tmp_path, config_file):
    out = tmp_path / "cov.json"
    code = run(["coverage", "--config", config_file, "--mode", "analytic",
                "--tstep-db", "10", "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["lambda_bs_per_km2"] == 70.0
    assert doc["config"]["seed"] == 77
    assert len(doc["rows"]) == 4


# --------------------------------------------------------------------------
# config handling
# --------------------------------------------------------------------------

def test_invalid_eta_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"eta": 1.5}))
    code = run(["coverage", "--config", str(bad),
                "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_unknown_key_rejected(tmp_path):
    """Also a key the schema no longer has: the raw window radius."""
    bad = tmp_path / "bad.json"
    for raw in ({"lambda": 70.0}, {"window_radius_km": 1.0}):
        bad.write_text(json.dumps(raw))
        for cmd in ("coverage", "table1"):
            code = run([cmd, "--config", str(bad),
                        "--out", str(tmp_path / "x.csv")])
            assert code == EXIT_CONFIG, (raw, cmd)


def test_flag_overrides_config(config_file):
    cfg = load_config(config_file, {"eta": 3.5, "trials": 99})
    assert cfg.network.eta == 3.5
    assert cfg.simulation.trials == 99
    assert cfg.network.lambda_bs == 70.0


def test_package_version_is_the_only_version():
    """pyproject.toml reads its version from ``skipcomp.__version__``, the
    one the output headers print."""
    setuptools = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is still "beta"
        project = setuptools.read_configuration(
            os.path.join(root, "pyproject.toml"))["project"]
    assert project["version"] == skipcomp.__version__


def test_build_config_defaults():
    cfg = build_config({})
    assert cfg.network.noise_power == 0.0
    assert cfg.overhead.u_skipping == 0.15
    assert cfg.mobility.ho_delay == 0.7


def test_config_round_trips_through_as_dict(config_file):
    cfg = load_config(config_file, {"eta": 3.5})
    assert list(cfg.as_dict()) == [row[0] for row in CONFIG_TABLE]
    assert build_config(cfg.as_dict()) == cfg


def test_non_finite_eta_flag_exits_2(tmp_path):
    code = run(["coverage", "--eta", "inf", "--mode", "analytic",
                "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key", ["tx_power_w", "trials"])
def test_non_finite_config_value_exits_2(tmp_path, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: float("inf")}))  # written as Infinity
    assert "Infinity" in bad.read_text()
    code = run(["coverage", "--config", str(bad), "--mode", "analytic",
                "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("raw", [{"trials": 1000.7}, {"seed": True},
                                 {"noise_power_w": True}, {"eta": "3.5"}],
                         ids=["fractional-trials", "bool-seed", "bool-noise",
                              "string-eta"])
def test_wrong_json_type_config_value_exits_2(tmp_path, raw, capsys):
    # Each was once coerced and run: 1,000 trials, seed 1, 1 W, eta 3.5.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = run(["coverage", "--config", str(bad), "--mode", "mc",
                "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert next(iter(raw)) in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_integral_float_config_value_resolves_to_int():
    cfg = build_config(json.loads('{"batch_size": 2.5e3}'))
    assert cfg.simulation.batch_size == 2500
    assert type(cfg.simulation.batch_size) is int


# --------------------------------------------------------------------------
# other subcommands
# --------------------------------------------------------------------------

def test_table1_rows(tmp_path, config_file):
    out = tmp_path / "t1.csv"
    code = run(["table1", "--config", config_file, "--out", str(out)])
    assert code == EXIT_OK
    _, header, rows = read_rows(out)
    assert len(rows) == 9  # 5 cases + 4 skipping averages
    by_id = {(r[0], r[1]): r for r in rows}
    se = float(by_id[("best", "case")][header.index("se_analytic")])
    assert abs(se - 1.49) < 0.03
    avg = float(by_id[("skip-comp+ic", "skipping_average")][2])
    assert abs(avg - 1.25) < 0.03


@pytest.mark.parametrize("eta", ["2.05", "2.5", "35.4"])
def test_table1_mc_matches_analytic_near_eta_2(tmp_path, eta):
    """Every MC spectral efficiency lies within 3 of its printed CIs of the
    analytic one.  The raw K = 500 window printed 3.6-6.3x the analytic
    values at eta 2.05, as it left out far interference.  eta 35.4 is near
    the top of table1's range, e^(20*eta) < the largest double, where every
    SE node stays finite and no overflow warns."""
    out = tmp_path / "t1.csv"
    assert run(["table1", "--eta", eta, "--trials", "20000",
                "--out", str(out)]) == EXIT_OK
    _, header, rows = read_rows(out)
    cases = [r for r in rows if r[1] == "case"]
    assert len(cases) == 5
    for r in cases:
        se, mc, ci = (float(r[header.index(c)])
                      for c in ("se_analytic", "se_mc", "se_mc_ci"))
        assert abs(mc - se) <= checks.MC_K_CI * ci, (r[0], se, mc, ci)


def test_table1_se_ci_is_not_floored_at_eta_2_001(tmp_path):
    """A spectral efficiency in nats is not a probability: its CI is the
    sample one, not floored at one trial.  At eta 2.001 the floor, 1.96/n =
    9.8e-5, was every non-best CI; the sample CIs are 1.2e-5 to 2.0e-5."""
    out = tmp_path / "t1.csv"
    trials = 20000
    assert run(["table1", "--eta", "2.001", "--trials", str(trials),
                "--out", str(out)]) == EXIT_OK
    _, header, rows = read_rows(out)
    cases = {r[0]: r for r in rows if r[1] == "case"}
    for sid in ("skip", "skip+ic", "skip-comp", "skip-comp+ic"):
        se, mc, ci = (float(cases[sid][header.index(c)])
                      for c in ("se_analytic", "se_mc", "se_mc_ci"))
        assert 0.0 < ci < 1.96 / trials, (sid, ci)
        assert abs(mc - se) <= checks.MC_K_CI * ci, (sid, se, mc, ci)


def test_analytic_coverage_at_subnormal_nearest_bs_argument(tmp_path):
    """At -3090 dB the skipped BS's Laplace argument b is subnormal and 1/b
    overflows; nearest_lt takes its small-b expansion there, and both cells
    print coverage 1."""
    out = tmp_path / "c.csv"
    assert run(["coverage", "--scheme", "skip", "--mode", "analytic", "--eta",
                "3.5", "--tmin-db", "-3090", "--tmax-db", "-3080",
                "--tstep-db", "10", "--out", str(out)]) == EXIT_OK
    _, header, rows = read_rows(out)
    assert [r[header.index("analytic")] for r in rows] == ["1", "1"]


def test_throughput_rows(tmp_path, config_file):
    out = tmp_path / "th.csv"
    code = run(["throughput", "--config", config_file, "--vmin", "0",
                "--vmax", "100", "--vstep", "50", "--delay", "0.7",
                "--out", str(out)])
    assert code == EXIT_OK
    _, header, rows = read_rows(out)
    assert len(rows) == 3 * 3  # 3 velocities x 3 schemes
    v100 = {r[1]: r for r in rows if r[0] == "100"}
    at_best = float(v100["best"][header.index("throughput_nats_per_s")])
    at_coop = float(v100["skip-comp+ic"][header.index("throughput_nats_per_s")])
    assert at_coop / at_best - 1.0 == pytest.approx(0.15, abs=0.02)


def per_cell_csv_row(row):
    """The CSV row as a format(v, '.10g') / str() call per cell would give it."""
    return ",".join("" if v is None else format(v, ".10g")
                    if isinstance(v, float) else str(v) for v in row)


def per_cell_csv_text(rows):
    """One per_cell_csv_row per row, each ending in a newline."""
    return "".join(per_cell_csv_row(r) + "\n" for r in rows)


def csv_text(rows):
    """_csv_rows' texts, each ending in a newline, as _write writes them."""
    return "".join(text + "\n" for text in _csv_rows(rows))


def test_csv_rows_match_per_cell_formatting():
    g = np.random.default_rng(5)
    floats = (g.uniform(-1.0, 1.0, 80_000)
              * 10.0 ** g.uniform(-300, 300, 80_000)).tolist()
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1e300, 123456789.0, 0.1, 1.0, 1e-5]
    rows = [floats[i:i + 8] for i in range(0, len(floats), 8)]
    rows += [special[i:] + special[:i] for i in range(len(special))]
    rows += [[1.5, "skip-comp+ic", None, 2000, -7, None, True, np.float64(0.3),
              np.float64(1e-320), np.int64(12)],
             [None, None], ["a%sb", 2.0], [], [None]]
    assert csv_text(rows) == per_cell_csv_text(rows)


def test_csv_rows_match_per_cell_formatting_over_alternating_runs():
    """Rows whose cell types change from one row to the next, as table1's
    case and average rows and coverage's rows with and without MC cells do,
    are each written cell by cell as a lone row would be."""
    case = [["skip", "case", 1.25, 1.2500001, 0.003],
            ["skip+ic", "case", 2.5, np.float64(2.4999), 1e-320]]
    average = [["skip", "skipping_average", 1.5, None, None],
               ["skip+ic", "skipping_average", 0.1, None, None]]
    coverage_rows = [(-10.0, "best", 0.9, None, None, None),
                     (-8.0, "best", 0.8, 0.81, 0.01, 2000)]
    rows = (case * 3 + average * 2 + case[:1] + average[:1] + case
            + coverage_rows * 2 + [[None, None]] + [[]] * 3 + [[1, 2.0]])
    assert csv_text(rows) == per_cell_csv_text(rows)


def test_csv_rows_of_a_max_rows_float_array():
    g = np.random.default_rng(8)
    table = g.uniform(-1.0, 1.0, (MAX_ROWS, 8)) * 10.0 ** g.uniform(-300, 300,
                                                                   (MAX_ROWS, 8))
    table[:4] = [[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 0.1]] * 4
    assert csv_text(table) == per_cell_csv_text(table.tolist())


@pytest.mark.parametrize("rows", [
    [], [[0.5, "skip", None, 7]], np.empty((0, 8)), np.array([[0.5, -1e-300]]),
], ids=["0-rows", "1-row", "0-row-array", "1-row-array"])
def test_csv_rows_of_tiny_tables(rows):
    assert csv_text(rows) == per_cell_csv_text(list(rows))


def both_signs(cells):
    cells = np.asarray(cells, dtype=float)
    return np.concatenate([cells, -cells])


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-20, 20)])
LAYOUT_SWITCHES = np.array([9999999999.5, 0.00099999999995, 999999999.95,
                            0.0001, 99999999995.0, 9.9999999995e-5])
FLOAT_TABLE_CASES = {
    # exact ties at the 11th significant digit, and their neighbours
    "ties": both_signs(np.concatenate([
        np.arange(4000) + 0.5, 1e9 + np.arange(4000) + 0.5,
        12345678905.0 + np.arange(4000), 1.5 * 2.0 ** -np.arange(1, 60)])),
    "nextafter": both_signs(np.concatenate([
        POWERS_OF_TEN, np.nextafter(POWERS_OF_TEN, 0.0),
        np.nextafter(POWERS_OF_TEN, np.inf)])),
    "layout-switches": both_signs(np.concatenate([
        LAYOUT_SWITCHES, np.nextafter(LAYOUT_SWITCHES, 0.0),
        np.nextafter(LAYOUT_SWITCHES, np.inf)])),
    "3-digit-exponents": both_signs(
        np.random.default_rng(4).uniform(1.0, 10.0, 4000)
        * 10.0 ** np.repeat([-300, -290, -200, -101, -100, 100, 101, 200, 289,
                             300], 400)),
    "range-ends": both_signs([1e-290, 1e290, 9.99999999949e289, 1e-291,
                              1.0000000005e-290, 2.2250738585072014e-308,
                              5e-324, 1.7976931348623157e308, 0.0]),
}


@pytest.mark.parametrize("cells", FLOAT_TABLE_CASES.values(),
                         ids=FLOAT_TABLE_CASES.keys())
@pytest.mark.parametrize("ncol", [1, 8])
def test_float_table_matches_per_cell_formatting(cells, ncol):
    """The numpy kernel writes a float array's cells as `%.10g` does, also
    at and beside every rounding tie and layout switch; 0, -0 and the
    doubles outside its range go to `%` itself."""
    table = cells[:len(cells) // ncol * ncol].reshape(-1, ncol)
    assert csv_text(table) == per_cell_csv_text(table.tolist())


@pytest.mark.parametrize("n", [1, cli.FLOAT_CHUNK_ROWS - 1, cli.FLOAT_CHUNK_ROWS,
                               cli.FLOAT_CHUNK_ROWS + 1,
                               2 * cli.FLOAT_CHUNK_ROWS + 3])
def test_float_table_of_rows_beyond_a_chunk(n):
    g = np.random.default_rng(n)
    table = g.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** g.integers(-12, 13, (n, 3))
    assert csv_text(table) == per_cell_csv_text(table.tolist())


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
              elements=st.floats()))
def test_float_table_of_any_doubles_matches_per_cell_formatting(table):
    assert csv_text(table) == per_cell_csv_text(table.tolist())


def distance_table(monkeypatch, argv):
    """The array a distance run hands to _write, and its output file."""
    tables = []

    def record(path, fmt, config, columns, rows):
        tables.append(rows)
        _write(path, fmt, config, columns, rows)

    monkeypatch.setattr(cli, "_write", record)
    assert run(["distance", *argv]) == EXIT_OK
    return tables[0]


def test_max_rows_distance_dump_matches_per_cell_formatting(tmp_path,
                                                            monkeypatch):
    out = tmp_path / "d.csv"
    table = distance_table(monkeypatch, ["--trials", str(MAX_ROWS), "--seed",
                                         "3", "--out", str(out)])
    lines = out.read_text().splitlines(keepends=True)
    assert len(lines) == 3 + MAX_ROWS
    assert "".join(lines[3:]) == per_cell_csv_text(table.tolist())


@pytest.mark.parametrize("lam", ["10", "70"])
def test_float_kernel_leaves_few_distance_cells_to_percent(tmp_path,
                                                          monkeypatch, lam):
    """At most 1% of a 10k-row distance table's cells take the `%` fallback
    (about 2 * TIE_DELTA of them lie near a tie): a kernel that sent every
    cell there would be right, and no faster."""
    table = distance_table(monkeypatch, ["--lambda", lam, "--trials", "10000",
                                         "--out", str(tmp_path / "d.csv")])
    _, exact = cli._fast_cells(table)
    assert exact.size == 80_000
    assert exact.mean() >= 0.99


def test_json_rows_of_an_array_are_its_list(tmp_path):
    table = np.random.default_rng(2).uniform(0.0, 1.0, (3, 8))
    paths = tmp_path / "array.json", tmp_path / "list.json"
    for path, rows in zip(paths, (table, table.tolist())):
        _write(str(path), "json", build_config({}), list("abcdefgh"), rows)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ["coverage", "--scheme", "skip-comp", "--mode", "both", "--tstep-db", "5"],
    ["table1"]], ids=["coverage", "table1"])
def test_json_floats_are_the_csv_cells(tmp_path, config_file, argv):
    """One float rule for both formats: each JSON float is float() of the CSV
    cell the same run prints, and every other JSON cell prints as that cell."""
    argv = [*argv, "--config", config_file, "--out"]
    assert run([*argv, str(tmp_path / "t.csv")]) == EXIT_OK
    assert run([*argv, str(tmp_path / "t.json"), "--format", "json"]) == EXIT_OK
    _, columns, csv_rows = read_rows(tmp_path / "t.csv")
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["columns"] == columns
    assert len(doc["rows"]) == len(csv_rows) > 0
    floats = 0
    for json_row, csv_row in zip(doc["rows"], csv_rows):
        for value, cell in zip(json_row, csv_row, strict=True):
            if isinstance(value, float):
                floats += 1
                assert value == float(cell), (value, cell)
            else:
                assert ("" if value is None else str(value)) == cell
    assert floats >= 2 * len(csv_rows)


def test_distance_dump(tmp_path, config_file):
    out = tmp_path / "d.csv"
    code = run(["distance", "--config", config_file, "--trials", "500",
                "--out", str(out)])
    assert code == EXIT_OK
    _, header, rows = read_rows(out)
    assert len(rows) == 500
    assert header[:3] == ["r1_km", "r2_km", "r3_km"]
    r = rows[0]
    assert float(r[0]) <= float(r[1]) <= float(r[2])
    assert float(r[3]) > 0  # joint pdf positive at its own draw


@pytest.mark.parametrize("lam", ["1e102", "1e-160", "1e-300"])
def test_distance_at_extreme_lambda_prints_no_nan(tmp_path, lam):
    out = tmp_path / "d.csv"
    assert run(["distance", "--lambda", lam, "--trials", "200", "--out",
                str(out)]) == EXIT_OK
    _, _, rows = read_rows(out)
    cells = np.array(rows, dtype=float)
    assert cells.shape == (200, 8)
    assert not np.isnan(cells).any()
    assert (cells[:, 4:] > 0).all()  # all but the (r1, r2, r3) joint density


def test_distance_where_the_joint_density_overflows_exits_3(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["distance", "--lambda", "1e300", "--trials", "2", "--out",
                str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("lam, trials", [("1e-310", "3"), ("1e-308", "2000")])
def test_distance_where_a_squared_distance_overflows_exits_3(tmp_path, capsys,
                                                             lam, trials):
    """1/(pi*lambda) is inf at 1e-310; at 1e-308 it is finite and some v times
    it overflows.  Either exits 3 with no row and no RuntimeWarning."""
    out = tmp_path / "d.csv"
    assert run(["distance", "--lambda", lam, "--trials", trials, "--out",
                str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numerical failure" in err and "overflow" in err
    assert not out.exists()


def test_arithmetic_error_inside_the_computation_exits_3(monkeypatch, capsys):
    def overflowing(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cli, "cmd_distance", overflowing)
    assert run(["distance", "--trials", "2"]) == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["coverage", "--mode", "analytic", "--tmax-db", "inf"],
    ["coverage", "--mode", "analytic", "--tmin-db=-inf"],
    ["coverage", "--mode", "analytic", "--tstep-db", "nan"],
    ["throughput", "--vmax", "inf"],
    ["throughput", "--vmin", "100", "--vmax", "0"],
    # 10^400 overflows and 10^-400 is 0: no SINR threshold in either mode.
    ["coverage", "--mode", "analytic", "--tmin-db", "4000", "--tmax-db", "4000"],
    ["coverage", "--mode", "mc", "--tmin-db", "4000", "--tmax-db", "4000"],
    ["coverage", "--mode", "both", "--tmin-db=-4000", "--tmax-db=-4000"],
])
def test_bad_grid_exits_2(tmp_path, argv):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coverage", "--mode", "analytic", "--tstep-db", "1e-9"],
    ["throughput", "--vstep", "1e-9"],
    ["distance", "--trials", str(MAX_ROWS + 1)],
], ids=["thresholds", "velocities", "distance-rows"])
def test_grid_beyond_max_rows_exits_2_before_building_it(tmp_path, argv, capsys):
    """3e10 or 2e11 grid points, or one distance row more than MAX_ROWS, are
    refused by their count, not cut; nothing is built, so the refusal
    allocates almost nothing."""
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        assert run(argv + ["--out", str(out)]) == EXIT_CONFIG
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert f"more than {MAX_ROWS}" in capsys.readouterr().err
    assert not out.exists()
    assert len(_grid(0.0, MAX_ROWS - 1.0, 1.0, "threshold")) == MAX_ROWS
    with pytest.raises(ConfigError):
        _grid(0.0, float(MAX_ROWS), 1.0, "threshold")


@pytest.mark.parametrize("delay", ["inf", "nan"])
def test_non_finite_delay_flag_exits_2(tmp_path, delay, capsys):
    """0*inf would be nan, and min(1, nan) an HO cost of 1: refused instead,
    as a non-finite ho_delay_s in a config file is."""
    out = tmp_path / "x.csv"
    assert run(["throughput", "--delay", delay, "--out", str(out)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


#: Noise-free MC commands: the SINR does not depend on the BS intensity.
MC_COMMANDS = {
    "coverage": ["coverage", "--scheme", "skip-comp", "--mode", "mc",
                 "--tstep-db", "10", "--trials", "2000"],
    "table1": ["table1", "--trials", "2000"],
}


#: The same guard on the coherent estimate and the single-server
#: conditional one; table1 refuses eta 400 in its SE range first.
GUARDED_COMMANDS = {**MC_COMMANDS, "coverage-best": [
    "coverage", "--scheme", "best", "--mode", "mc", "--tstep-db", "10",
    "--trials", "2000"], "coverage-coherent": MC_COMMANDS["coverage"] + [
    "--coherent"]}
#: Three batches each, run on the calling thread under the caller's numpy
#: error state; table1 exits before its MC (above).
GUARDED_COMMANDS.update({f"{cmd}-3-batches": argv + ["--trials", "6000"]
                         for cmd, argv in list(GUARDED_COMMANDS.items())})


@pytest.mark.parametrize("cmd", sorted(GUARDED_COMMANDS))
def test_mc_gain_overflow_exits_3(tmp_path, cmd, capsys):
    # At eta = 400 the gain v^-200 of a BS nearer than v = 0.03 overflows to
    # inf (then inf/inf = nan), and that of the 500th BS is subnormal.
    out = tmp_path / "x.csv"
    code = run(GUARDED_COMMANDS[cmd] + ["--eta", "400", "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", sorted(MC_COMMANDS))
def test_mc_output_is_scale_free_from_lambda_1e_minus160_to_1e160(tmp_path, cmd):
    for seed in range(1, 7):
        rows = {}
        for lam in ("70", "1e-160", "1e-100", "1e150", "1e160"):
            out = tmp_path / f"{lam}.csv"
            assert run(MC_COMMANDS[cmd] + ["--lambda", lam, "--seed", str(seed),
                                           "--out", str(out)]) == EXIT_OK
            rows[lam] = read_rows(out)[1:]  # all but the config header
        assert all(r == rows["70"] for r in rows.values()), seed


@pytest.mark.parametrize("argv", [
    MC_COMMANDS["table1"], MC_COMMANDS["coverage"] + ["--coherent"]])
def test_raw_mc_prints_at_lambda_1e308(tmp_path, argv):
    """The conditional MC spectral efficiency of table1 and the coherent
    coverage work in v = pi*lambda*r^2, so noise-free they print the same at
    lambda 1e308 as at 70."""
    rows = {}
    for lam in ("70", "1e308"):
        out = tmp_path / f"{lam}.csv"
        assert run(argv + ["--lambda", lam, "--out", str(out)]) == EXIT_OK
        rows[lam] = read_rows(out)[1:]  # all but the config header
    assert rows["1e308"] == rows["70"]


def test_noisy_mc_prints_at_any_intensity(tmp_path):
    """nu = sigma^2/(P*(pi*lambda)^2) underflows to 0 at lambda = 1e200, where
    the output is the noise-free one, and overflows to inf at 1e-160, where
    every trial's coverage is 0 and the CI the one-trial floor, for the
    coherent estimate too."""
    def mc_rows(*extra):
        out = tmp_path / "x.csv"
        assert run(["coverage", "--mode", "mc", "--tstep-db", "10", "--trials",
                    "2000", *extra, "--out", str(out)]) == EXIT_OK
        return read_rows(out)[1:]  # all but the config header

    noisy = ["--config", NOISY_CONFIG]
    for scheme in ([], ["--scheme", "skip-comp", "--coherent"]):
        assert mc_rows(*scheme, *noisy, "--lambda", "1e200") \
            == mc_rows(*scheme, "--lambda", "1e200")
        cells = [row[3:5] for row in mc_rows(*scheme, *noisy, "--lambda",
                                             "1e-160")[1]]
        assert cells == [["0", "0.00098"]] * 4  # 1.96/2000


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
@pytest.mark.parametrize("cmd", [["distance", "--trials", "5"],
                                 ["coverage", "--mode", "mc", "--trials", "10"]],
                         ids=["distance", "coverage"])
def test_seed_outside_0_to_2_63_exits_2(tmp_path, cmd, seed, capsys):
    out = tmp_path / "x.csv"
    assert run(cmd + ["--seed", str(seed), "--out", str(out)]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seeds_give_different_streams(tmp_path):
    rows = []
    for seed in (2**63 - 2, 2**63 - 1):
        for cmd in (["distance", "--trials", "5"],
                    ["coverage", "--mode", "mc", "--trials", "10"]):
            out = tmp_path / "x.csv"
            assert run(cmd + ["--seed", str(seed), "--out", str(out)]) == EXIT_OK
            rows.append(read_rows(out)[2])
    assert rows[0] != rows[2]
    assert rows[1] != rows[3]


def test_throughput_integrates_each_spectral_efficiency_once(
        tmp_path, monkeypatch):
    calls = []
    se = throughput.spectral_efficiency

    def counted(scheme, params):
        calls.append(scheme.scheme_id)
        return se(scheme, params)

    monkeypatch.setattr(throughput, "spectral_efficiency", counted)
    assert run(["throughput", "--vstep", "50",
                "--out", str(tmp_path / "th.csv")]) == EXIT_OK
    assert sorted(calls) == ["best", "skip+ic", "skip-comp+ic"]


def test_validate_prints_every_check(capsys):
    assert run(["validate", "--trials", "1000"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    names = [c.name for c in checks.pdf_normalization(70.0)]
    names += ["best_connected_anchor"]
    names += [f"eta4_equivalence_T{t}{ic}" for ic in ("", "_ic")
              for t in checks.ETA4_THRESHOLDS]
    names += [f"mc_vs_analytic_{s.scheme_id}" for s in ANALYTIC_VARIANTS]
    assert [ln.split(":")[0] for ln in lines] == names
    assert all(ln.endswith(": pass") for ln in lines)


def test_validate_checks_mc_at_a_config_files_2000_trials(config_file, capsys):
    assert run(["validate", "--config", config_file]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("mc_vs_analytic_")] == [
        f"mc_vs_analytic_{s.scheme_id}: pass" for s in ANALYTIC_VARIANTS]


@pytest.mark.parametrize("off, code", [(4.0, 1), (2.0, EXIT_OK)])
def test_validate_judges_mc_in_its_printed_cis(off, code, monkeypatch, capsys):
    """With one skip cell `off` printed CIs from analytic, validate fails
    skip's check only beyond checks.MC_K_CI = 3, at 1000 trials as at any."""
    estimate = montecarlo.empirical_coverage

    def one_cell_off(scheme, params, sim, thresholds_db):
        curve = estimate(scheme, params, sim, thresholds_db)
        if scheme.scheme_id != "skip":
            return curve
        a = coverage.coverage_curve(scheme, params, thresholds_db).values[5]
        ci = curve.ci_halfwidths[5]
        values = list(curve.values)
        values[5] = a + off * ci if a < 0.5 else a - off * ci
        return dataclasses.replace(curve, values=tuple(values))

    monkeypatch.setattr(montecarlo, "empirical_coverage", one_cell_off)
    assert run(["validate", "--trials", "1000"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("mc_vs_analytic_")] == [
        f"mc_vs_analytic_{s.scheme_id}: "
        + ("FAIL" if s.scheme_id == "skip" and off > checks.MC_K_CI else "pass")
        for s in ANALYTIC_VARIANTS]


@pytest.mark.parametrize("flag", [["--out", "v.csv"], ["--format", "json"]],
                         ids=["out", "format"])
def test_validate_takes_no_output_flags(tmp_path, monkeypatch, flag, capsys):
    """validate writes no table, so it refuses the table writers' flags."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["validate", "--trials", "100", *flag])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("noise", [[], ["--config", NOISY_CONFIG]],
                         ids=["noise-free", "noisy"])
def test_validate_mc_vs_analytic_passes_at_eta_2_5(noise, capsys):
    """A raw K = 500 skip-comp pair read ~0.06 high here and failed."""
    assert run(["validate", "--eta", "2.5", "--trials", "20000", *noise]) \
        == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    mc = [ln for ln in lines if ln.startswith("mc_vs_analytic_")]
    assert len(mc) == 5
    assert all(ln.endswith(": pass") for ln in mc)


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"eta": 1.5}))
    assert run(["validate", "--config", str(bad)]) == EXIT_CONFIG


PDF_CHECKS = ["marginal_r1_normalization", "marginal_r2_normalization",
              "joint_r2_r3_normalization"]


@pytest.mark.parametrize("lam", ["1e-3", "70", "5e6", "1e9"])
def test_validate_pdf_checks_pass_at_any_intensity(lam, capsys):
    # The PDFs' mass sits at r ~ 1/sqrt(lambda), 3e-5 km at 1e9: an adaptive
    # rule over [0, inf) that misses it reads 0 with a tiny error estimate.
    assert run(["validate", "--lambda", lam, "--trials", "100"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for name in PDF_CHECKS:
        assert f"{name}: pass" in lines


def test_unresolved_pdf_check_exits_3_and_prints_no_number(monkeypatch, capsys):
    monkeypatch.setattr(checks, "PDF_NODES", 2)
    assert run(["validate", "--trials", "100"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert not any(name in captured.out for name in PDF_CHECKS)


def test_value_error_inside_the_computation_exits_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("coverage value out of [0,1]")

    monkeypatch.setattr(coverage, "analytic_coverage", broken)
    assert run(["coverage", "--mode", "analytic"]) == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["throughput", "--eta", "1000"],
    ["table1", "--eta", "100", "--trials", "100"],
    # The MC gains may overflow here; the SE range is refused first.
    ["table1", "--eta", "170", "--trials", "2000"],
])
def test_unrepresentable_se_range_exits_3_at_once(tmp_path, argv, capsys):
    # e^(20*eta) overflows above eta = 35.49; the node count grows with eta.
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert run(argv + ["--out", str(out)]) == EXIT_NUMERIC
    assert time.perf_counter() - start < 5.0
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_in_process_calls_share_one_parser_and_no_state(tmp_path, capsys):
    """A sequence of main calls in one process: the parser is built once, and
    each call writes the bytes that it writes alone in a fresh interpreter.
    The calls after an appended --delay, a store_true --ic, a JSON call and
    a call that exits 2 are the ones a parser's leftovers would change."""
    throughput = ["throughput", "--vstep", "50"]
    delays = [*throughput, "--delay", "0.7", "--delay", "2.0"]
    coverage_analytic = ["coverage", "--mode", "analytic", "--tstep-db", "5"]
    sequence = [
        ("delays", delays),
        ("throughput", throughput),
        ("ic", ["coverage", "--scheme", "skip", "--ic", "--mode", "analytic",
                "--tstep-db", "5", "--format", "json"]),
        ("coverage", coverage_analytic),
        ("json", [*coverage_analytic, "--format", "json"]),
        ("csv", coverage_analytic),
        ("bad-delay", [*throughput, "--delay", "nan"]),
        ("after-bad", throughput),
        ("delays-again", delays),
    ]
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["coverage", "--mode", "nope"])
    assert exc.value.code == EXIT_CONFIG
    codes = {name: main(argv + ["--out", str(tmp_path / name)])
             for name, argv in sequence}
    assert codes == {name: EXIT_CONFIG if name == "bad-delay" else EXIT_OK
                     for name, _ in sequence}
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(sequence))
    assert "HO delays must be finite" in capsys.readouterr().err

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    fresh = {}
    for name in ("throughput", "coverage", "json"):
        path = tmp_path / f"fresh-{name}"
        argv = dict(sequence)[name]
        proc = subprocess.run([sys.executable, "-m", "skipcomp", *argv,
                               "--out", str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        fresh[name] = path.read_bytes()
    out = {name: (tmp_path / name).read_bytes() for name, _ in sequence
           if name != "bad-delay"}
    assert out["throughput"] == out["after-bad"] == fresh["throughput"]
    assert out["coverage"] == out["csv"] == fresh["coverage"]
    assert out["json"] == fresh["json"]
    assert out["delays"] == out["delays-again"]
    # No appended --delay leaked into the call without one.
    assert {line.split(b",")[2] for line in out["throughput"].splitlines()[3:]} \
        == {b"0.7"}
    assert json.loads(out["ic"])["rows"][0][1] == "skip+ic"
    assert {line.split(b",")[1] for line in out["coverage"].splitlines()[3:]} \
        == {b"best"}


def minor_faults_per_call(argvs):
    """The ru_minflt of each ``main(argv)`` call, one per argv of ``argvs``,
    made one after another in a fresh interpreter."""
    script = f"""
import resource
from skipcomp.cli import main
for argv in {argvs!r}:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [int(line) for line in proc.stdout.split()]


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="the C library has no mallopt")
def test_repeated_mc_job_does_not_page_fault(tmp_path):
    """The third of three MC jobs in one process, each on its own seed so that
    each computes, reuses the heap the first two freed: glibc's dynamic
    thresholds alone give 600-750 minor page faults a job, the policy main
    sets leaves almost none."""
    argv = ["coverage", "--scheme", "skip", "--mode", "mc", "--eta", "3.5",
            "--trials", "2000", "--tmin-db", "-10", "--tmax-db", "20",
            "--tstep-db", "2", "--out", str(tmp_path / "x.csv")]
    assert minor_faults_per_call(
        [argv + ["--seed", str(seed)] for seed in (1, 2, 3)])[-1] < 100


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="the C library has no mallopt")
def test_repeated_table1_does_not_page_fault(tmp_path):
    """table1's threshold blocks stay below the mmap threshold and the
    process keeps its freed heap, so from the third call on a repeated call
    page-faults almost nowhere: ~5,000 minor faults each under glibc's
    dynamic thresholds, 0-1 with the policy main sets."""
    argv = ["table1", "--trials", "4000", "--out", str(tmp_path / "t.csv")]
    repeats = minor_faults_per_call([argv] * 10)[2:]
    assert max(repeats) < 100, repeats


def test_main_runs_where_libc_has_no_mallopt(tmp_path, monkeypatch):
    argv = ["coverage", "--mode", "analytic", "--tstep-db", "5"]
    assert main(argv + ["--out", str(tmp_path / "with")]) == EXIT_OK
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    keep_freed_heap.cache_clear()
    try:
        assert main(argv + ["--out", str(tmp_path / "without")]) == EXIT_OK
        assert keep_freed_heap() is False
    finally:
        keep_freed_heap.cache_clear()
    assert (tmp_path / "without").read_bytes() == (tmp_path / "with").read_bytes()


def test_cli_commands_do_not_load_scipy(tmp_path):
    # scipy is only a test dependency: importing scipy.special alone would
    # cost more start-up time than the rest of a CLI run's imports together.
    # Nor does any command start a thread.
    noisy = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                         "noisy_config.json")
    script = f"""
import sys
import threading
from skipcomp.cli import main
out = {str(tmp_path / "x.csv")!r}
try:
    main(["--version"])
except SystemExit as e:
    assert e.code == 0, e.code
for argv in (["coverage", "--mode", "analytic", "--eta", "3.5", "--config", {noisy!r}],
             ["coverage", "--mode", "mc", "--eta", "3.5", "--trials", "2000"],
             ["coverage", "--scheme", "skip-comp", "--coherent", "--mode", "mc",
              "--eta", "3.5", "--trials", "2000"],
             ["table1", "--trials", "2000"], ["throughput"],
             ["distance", "--trials", "100"]):
    assert main(argv + ["--out", out]) == 0, argv
assert main(["validate", "--trials", "100"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # The module entry point, as -X importtime lists every module it imports.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "skipcomp",
                           "--version"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "skipcomp" in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "skipcomp.cli" in imported
    assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]


@pytest.mark.parametrize("argv", [
    ["coverage", "--scheme", "skip-comp", "--mode", "analytic"],
    ["table1", "--trials", "2000"],
])
def test_unresolved_fixed_rule_exits_3(tmp_path, monkeypatch, capsys, argv):
    # 8 nodes over ln(r2/r3) do not resolve skip-comp coverage: the half-node
    # check must refuse the numbers instead of printing them.
    monkeypatch.setattr(coverage, "U_NODES", 8)
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()
