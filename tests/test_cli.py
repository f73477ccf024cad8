import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from skipcomp import checks, coverage, throughput
from skipcomp.cli import (
    CONFIG_TABLE,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    _csv_rows,
    build_config,
    load_config,
    main,
)


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
    coherent estimate's raw part, the excess over non-coherent, covers no
    trial there, and its CI is still floored at one trial in 2,000."""
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
    assert coh["mc"] == base["mc"]  # a zero excess
    for ci, ci_base in zip(coh["mc_ci_halfwidth"], base["mc_ci_halfwidth"]):
        assert ci == pytest.approx(math.hypot(ci_base, 1.96 / 2000), rel=1e-9)
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
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lambda": 70.0}))
    code = run(["coverage", "--config", str(bad),
                "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_flag_overrides_config(config_file):
    cfg = load_config(config_file, {"eta": 3.5, "trials": 99})
    assert cfg.network.eta == 3.5
    assert cfg.simulation.trials == 99
    assert cfg.network.lambda_bs == 70.0


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
    assert _csv_rows(rows) == [per_cell_csv_row(r) for r in rows]


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


#: Noise-free MC commands: the SINR does not depend on the BS intensity.
MC_COMMANDS = {
    "coverage": ["coverage", "--scheme", "skip-comp", "--mode", "mc",
                 "--tstep-db", "10", "--trials", "2000"],
    "table1": ["table1", "--trials", "2000"],
}


#: The same guard on the paired coherent estimate and the single-server
#: conditional one (table1 is raw; coverage is conditional skip-comp).
GUARDED_COMMANDS = {**MC_COMMANDS, "coverage-best": [
    "coverage", "--scheme", "best", "--mode", "mc", "--tstep-db", "10",
    "--trials", "2000"], "coverage-coherent": MC_COMMANDS["coverage"] + [
    "--coherent"]}
#: Three batches each, so the batches run on worker threads, where numpy's
#: error state is not the caller's.
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


def test_noisy_mc_prints_at_any_intensity(tmp_path):
    """nu = sigma^2/(P*(pi*lambda)^2) underflows to 0 at lambda = 1e200, where
    the output is the noise-free one, and overflows to inf at 1e-160, where
    every trial's coverage is 0 and the CI the one-trial floor."""
    def mc_rows(*extra):
        out = tmp_path / "x.csv"
        assert run(["coverage", "--mode", "mc", "--tstep-db", "10", "--trials",
                    "2000", *extra, "--out", str(out)]) == EXIT_OK
        return read_rows(out)[1:]  # all but the config header

    noisy = ["--config", NOISY_CONFIG]
    assert mc_rows(*noisy, "--lambda", "1e200") == mc_rows("--lambda", "1e200")
    cells = [row[3:5] for row in mc_rows(*noisy, "--lambda", "1e-160")[1]]
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
    names += [f"eta4_equivalence_T{t}" for t in checks.ETA4_THRESHOLDS]
    assert [ln.split(":")[0] for ln in lines[1:]] == names
    assert all(ln.endswith(": pass") for ln in lines[1:])


def test_validate_underpowered_mc_is_skipped(tmp_path, config_file, capsys):
    code = run(["validate", "--config", config_file])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "skipped: underpowered" in out
    assert "FAIL" not in out


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


def test_window_too_small_exits_2_before_the_analytic_curve(
        tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(coverage, "analytic_coverage",
                        lambda *args: calls.append(args))
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"window_radius_km": 0.1}))
    assert run(["coverage", "--mode", "both", "--config", str(small)]) == EXIT_CONFIG
    assert "window too small" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["throughput", "--eta", "1000"],
    ["table1", "--eta", "100", "--trials", "100"],
])
def test_unrepresentable_se_range_exits_3_at_once(tmp_path, argv, capsys):
    # e^(20*eta) overflows above eta = 35.49; the node count grows with eta.
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert run(argv + ["--out", str(out)]) == EXIT_NUMERIC
    assert time.perf_counter() - start < 5.0
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_analytic_and_mc_commands_do_not_load_scipy_integrate(tmp_path):
    # No command integrates adaptively; importing scipy.integrate would cost
    # about half of the start-up time of each.
    noisy = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                         "noisy_config.json")
    script = f"""
import sys
from skipcomp.cli import main
out = {str(tmp_path / "x.csv")!r}
for argv in (["coverage", "--mode", "analytic", "--eta", "3.5", "--config", {noisy!r}],
             ["table1", "--trials", "2000"], ["throughput"],
             ["validate", "--trials", "100"], ["distance", "--trials", "100"]):
    assert main(argv + ["--out", out]) == 0, argv
assert "scipy.integrate" not in sys.modules, "scipy.integrate was imported"
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


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
