import json

import pytest

from skipcomp import checks, throughput
from skipcomp.cli import (
    CONFIG_TABLE,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    build_config,
    load_config,
    main,
)


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


@pytest.mark.parametrize("cmd", sorted(MC_COMMANDS))
def test_mc_gain_overflow_exits_3(tmp_path, cmd, capsys):
    # d^-eta overflows to inf at lambda = 1e160; inf/inf would print nan or 0.
    out = tmp_path / "x.csv"
    code = run(MC_COMMANDS[cmd] + ["--lambda", "1e160", "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", sorted(MC_COMMANDS))
def test_mc_output_is_scale_free_up_to_lambda_1e150(tmp_path, cmd):
    rows = {}
    for lam in ("70", "1e150"):
        out = tmp_path / f"{lam}.csv"
        assert run(MC_COMMANDS[cmd] + ["--lambda", lam, "--out", str(out)]) \
            == EXIT_OK
        rows[lam] = read_rows(out)[1:]  # all but the config header
    assert rows["1e150"] == rows["70"]


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


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"eta": 1.5}))
    assert run(["validate", "--config", str(bad)]) == EXIT_CONFIG
