"""Command-line interface: subcommands, config fallback, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigengarch
from eigengarch import (
    ConvergenceError,
    _blas,
    fhs_forecast,
    fit_spectral_targeting,
    load_returns_csv,
    var_from_distribution,
)
from eigengarch.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run(["simulate", "--dgp", "case1", "--T", "600", "--seed", "7",
                "--out", out]) == 0
    return out


class TestSimulate:
    def test_panel_written(self, sim_dir):
        panel = load_returns_csv(sim_dir / "panel.csv")
        assert panel.values.shape == (600, 2)
        meta = json.loads((sim_dir / "simulate_meta.json").read_text())
        assert meta["dgp"] == "case1" and meta["seed"] == 7

    def test_bit_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--dgp", "case2", "--T", "100", "--seed", "3", "--out", a])
        run(["simulate", "--dgp", "case2", "--T", "100", "--seed", "3", "--out", b])
        assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()

    def test_bivariate_dgp_takes_p_two(self, tmp_path):
        assert run(["simulate", "--dgp", "case2", "--p", "2", "--T", "50",
                    "--out", tmp_path]) == 0
        assert load_returns_csv(tmp_path / "panel.csv").values.shape == (50, 2)

    def test_case3_needs_no_flag(self, tmp_path):
        assert run(["simulate", "--dgp", "case3", "--T", "50", "--seed", "1",
                    "--out", tmp_path]) == 0

    @pytest.mark.parametrize("flags", [
        ["--burn-in", "-3"],
        ["--T", "-5"],
        ["--T", "0"],
        ["--dgp", "benchmark", "--p", "0"],
        ["--dgp", "case1", "--p", "5"],
        ["--dgp", "case3", "--p", "1"],
    ])
    def test_bad_input_is_2_and_writes_nothing(self, flags, tmp_path, capsys):
        assert run(["simulate", *flags, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "panel.csv").exists()


class TestEstimate:
    def test_fit_report(self, sim_dir, tmp_path):
        assert run(["estimate", "--input", sim_dir / "panel.csv",
                    "--out", tmp_path]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["method"] == "STE"
        assert len(fit["kappas"]) == 2
        assert fit["total_nll"] == pytest.approx(sum(fit["equation_nlls"]), abs=1e-10)
        assert len(fit["standard_errors"]) == 2
        for entry in fit["standard_errors"]:
            assert ("w_se" in entry) or ("unavailable" in entry)
        assert fit["blas_threads"] == {name: 1 for name in _blas.thread_counts()}
        # one record per start of every equation fit
        for traces in fit["start_traces"]:
            assert len(traces) == 3
            assert all(t["evaluations"] > t["iterations"] for t in traces)
            assert all(t["kkt_residual"] >= 0.0 for t in traces)

    def test_qmle_method(self, sim_dir, tmp_path):
        assert run(["estimate", "--input", sim_dir / "panel.csv",
                    "--method", "qmle", "--diag-a", "--out", tmp_path]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["method"] == "joint-QMLE"
        assert fit["diag_a"] is True

    def test_qmle_standard_errors_unavailable(self, tmp_path):
        # the two-step sandwich does not apply to the joint fit
        out = tmp_path / "o"
        assert run(["simulate", "--dgp", "case1", "--T", "3000", "--seed", "4",
                    "--out", out]) == 0
        assert run(["estimate", "--input", out / "panel.csv", "--method", "qmle",
                    "--out", out]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert [e["equation"] for e in fit["standard_errors"]] == [0, 1]
        for entry in fit["standard_errors"]:
            assert "joint-QMLE" in entry["unavailable"]
            assert "w_se" not in entry

    def test_missing_input_is_validation_error(self, tmp_path):
        assert run(["estimate", "--out", tmp_path]) == 2
        assert run(["estimate", "--input", tmp_path / "nope.csv",
                    "--out", tmp_path]) == 2

    def test_demean_flag(self, sim_dir, tmp_path):
        assert run(["estimate", "--input", sim_dir / "panel.csv", "--demean",
                    "--out", tmp_path]) == 0


class TestForecast:
    def test_report(self, sim_dir, tmp_path):
        assert run(["forecast", "--input", sim_dir / "panel.csv",
                    "--horizon", "5", "--alpha", "0.05",
                    "--n-draws", "2000", "--seed", "1", "--out", tmp_path]) == 0
        fc = json.loads((tmp_path / "forecast.json").read_text())
        assert fc["horizon"] == 5
        assert fc["portfolios"][0]["portfolio"] == "EW"
        assert fc["portfolios"][0]["var"] > 0
        # one quantile convention in the report: the 5% quantile is -VaR(0.05)
        assert fc["portfolios"][0]["quantiles"]["q05"] == -fc["portfolios"][0]["var"]
        assert fc["blas_threads"] == {name: 1 for name in _blas.thread_counts()}

    def test_reproducible(self, sim_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["forecast", "--input", sim_dir / "panel.csv", "--seed", "5",
                 "--n-draws", "1500", "--out", out])
        assert (a / "forecast.json").read_text() == (b / "forecast.json").read_text()

    def test_portfolios_match_per_portfolio_forecasts(self, sim_dir, tmp_path):
        # every portfolio is priced from the one scenario set of the seed
        weights = tmp_path / "weights.csv"
        weights.write_text("ticker,EW,LS,G\nA1,0.5,1.0,1.5\nA2,0.5,-0.5,0.7\n")
        assert run(["forecast", "--input", sim_dir / "panel.csv", "--weights", weights,
                    "--horizon", "3", "--n-draws", "2000", "--seed", "4",
                    "--out", tmp_path]) == 0
        fc = json.loads((tmp_path / "forecast.json").read_text())
        panel = load_returns_csv(sim_dir / "panel.csv")
        fit = fit_spectral_targeting(panel)
        ws = {"EW": [0.5, 0.5], "LS": [1.0, -0.5], "G": [1.5, 0.7]}
        assert [pf["portfolio"] for pf in fc["portfolios"]] == list(ws)
        for pf in fc["portfolios"]:
            draws = fhs_forecast(fit, panel, np.array(ws[pf["portfolio"]]), h=3,
                                 n_draws=2000, rng_seed=4)
            assert pf["var"] == pytest.approx(var_from_distribution(draws, 0.05),
                                              rel=1e-12)
            for key, level in (("q01", 0.01), ("q05", 0.05), ("q50", 0.50)):
                assert pf["quantiles"][key] == pytest.approx(
                    -var_from_distribution(draws, level), rel=1e-12)

    def test_nonconverged_qmle_fit_is_3(self, sim_dir, tmp_path, monkeypatch, capsys):
        from eigengarch import estimation

        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 1)
        assert run(["forecast", "--input", sim_dir / "panel.csv", "--method", "qmle",
                    "--out", tmp_path]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not (tmp_path / "forecast.json").exists()


class TestBacktest:
    def test_report_and_var_paths(self, sim_dir, tmp_path):
        assert run(["backtest", "--input", sim_dir / "panel.csv",
                    "--window", "400", "--horizon", "1", "--refit-every", "100",
                    "--n-draws", "1500", "--seed", "2", "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "backtest.json").read_text())
        assert report["n_forecasts"] == 200
        assert report["mean_forecast_seconds"] >= 0.0
        assert report["portfolios"][0]["pi_hat"] <= 1.0
        with open(tmp_path / "var_paths.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "EW_realized", "EW_var", "EW_hit"]
        assert len(rows) == 201
        # emitted table round-trips numerically
        realized = np.array([float(r[1]) for r in rows[1:]])
        var_path = np.array([float(r[2]) for r in rows[1:]])
        hits = np.array([int(r[3]) for r in rows[1:]])
        np.testing.assert_array_equal(hits, (realized <= -var_path).astype(int))

    def test_nonconverged_qmle_refit_is_3(self, sim_dir, tmp_path, monkeypatch, capsys):
        from eigengarch import estimation

        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 1)
        assert run(["backtest", "--input", sim_dir / "panel.csv", "--method", "qmle",
                    "--window", "400", "--out", tmp_path]) == 3
        assert "origin 400" in capsys.readouterr().err

    def test_window_too_large(self, sim_dir, tmp_path):
        assert run(["backtest", "--input", sim_dir / "panel.csv",
                    "--window", "600", "--out", tmp_path]) == 2

    def test_weights_missing_an_asset(self, tmp_path, capsys):
        assert run(["simulate", "--dgp", "benchmark", "--p", "3", "--T", "300",
                    "--out", tmp_path]) == 0
        weights = tmp_path / "weights.csv"
        weights.write_text("ticker,EW\nA1,0.5\nA2,0.5\n")
        assert run(["backtest", "--input", tmp_path / "panel.csv", "--weights",
                    weights, "--window", "200", "--out", tmp_path]) == 2
        assert "['A3']" in capsys.readouterr().err

    def test_bundled_weights_against_other_labels(self, tmp_path, capsys):
        # a 25-column panel picks up the bundled 25-ticker weights by default
        assert run(["simulate", "--dgp", "benchmark", "--p", "25", "--T", "100",
                    "--out", tmp_path]) == 0
        assert run(["backtest", "--input", tmp_path / "panel.csv", "--diag-a",
                    "--window", "50", "--out", tmp_path]) == 2
        assert "'A1'" in capsys.readouterr().err


class TestBenchRe:
    def test_table_written(self, tmp_path):
        assert run(["bench-re", "--dims", "2", "--n-reps", "4", "--T", "500",
                    "--seed", "5", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "relative_efficiency.json").read_text())
        row = payload["rows"][0]
        assert row["p"] == 2 and row["n_params"] == 7
        assert row["time_ste"] > 0 and row["time_qmle"] > 0
        with open(tmp_path / "relative_efficiency.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "p"
        assert float(rows[1][3]) == pytest.approx(row["time_ste"])

    def test_ste_only(self, tmp_path):
        assert run(["bench-re", "--dims", "2", "--n-reps", "2", "--T", "500",
                    "--estimators", "ste", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "relative_efficiency.json").read_text())
        assert payload["rows"][0]["re"] is None


class TestDensityStudy:
    def test_outputs(self, tmp_path):
        assert run(["density-study", "--case", "1", "--n-reps", "6",
                    "--T", "800", "--seed", "4", "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "density_case1.json").read_text())
        assert summary["n"] == 6 and summary["truth_a11"] == 0.33
        with open(tmp_path / "density_case1_samples.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["w1", "a11", "w1_standardized", "a11_standardized"]
        assert len(rows) == 7

    @pytest.mark.parametrize("n_reps", ["0", "1"])
    def test_fewer_than_two_replications_is_2(self, n_reps, tmp_path, capsys):
        assert run(["density-study", "--case", "1", "--n-reps", n_reps,
                    "--T", "800", "--out", tmp_path]) == 2
        assert "at least 2 replications" in capsys.readouterr().err
        assert not (tmp_path / "density_case1.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_is_2(self, workers, tmp_path, capsys):
        assert run(["density-study", "--case", "1", "--n-reps", "4", "--T", "800",
                    "--workers", workers, "--out", tmp_path]) == 2
        assert "n_workers >= 1" in capsys.readouterr().err
        assert not (tmp_path / "density_case1.json").exists()


def test_every_json_report_records_blas_threads(sim_dir, tmp_path):
    panel = sim_dir / "panel.csv"
    for args in (["simulate", "--dgp", "case1", "--T", "100"],
                 ["estimate", "--input", panel],
                 ["forecast", "--input", panel, "--n-draws", "1000"],
                 ["backtest", "--input", panel, "--window", "400", "--refit-every", "100",
                  "--n-draws", "1000"],
                 ["bench-re", "--dims", "2", "--n-reps", "2", "--T", "500",
                  "--estimators", "ste"],
                 ["density-study", "--case", "1", "--n-reps", "2", "--T", "800"]):
        assert run([*args, "--out", tmp_path]) == 0
    reports = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in reports] == [
        "backtest.json", "density_case1.json", "fit.json", "forecast.json",
        "relative_efficiency.json", "simulate_meta.json"]
    for path in reports:
        assert json.loads(path.read_text())["blas_threads"] == {
            name: 1 for name in _blas.thread_counts()}, path.name


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dgp": "case2", "T": 120, "seed": 9}))
        out1 = tmp_path / "o1"
        assert run(["simulate", "--config", cfg, "--out", out1]) == 0
        meta = json.loads((out1 / "simulate_meta.json").read_text())
        assert meta["dgp"] == "case2" and meta["T"] == 120 and meta["seed"] == 9
        out2 = tmp_path / "o2"
        assert run(["simulate", "--config", cfg, "--T", "80", "--out", out2]) == 0
        meta2 = json.loads((out2 / "simulate_meta.json").read_text())
        assert meta2["T"] == 80 and meta2["dgp"] == "case2"

    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        assert run(["simulate", "--config", tmp_path / "nope.json",
                    "--out", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config")

    def test_malformed_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dgp": "case2",')
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config")


class TestBadValues:
    """Flags and config entries go through one parser: a bad value is exit 2."""

    @pytest.mark.parametrize("command, entry", [
        ("simulate", {"T": "abc"}),
        ("simulate", {"T": None}),
        ("simulate", {"T": [1, 2]}),
        ("estimate", {"diag_a": "false"}),
    ])
    def test_bad_config_value_is_2(self, command, entry, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(sim_dir / "panel.csv"), **entry}))
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("dims", ["2,x", "", ","])
    def test_bad_dims_is_2(self, dims, tmp_path, capsys):
        assert run(["bench-re", "--dims", dims, "--n-reps", "2", "--T", "500",
                    "--estimators", "ste", "--out", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "relative_efficiency.json").exists()

    def test_config_lists_for_dims_and_estimators(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [2], "estimators": ["ste"], "n_reps": 2,
                                   "T": 500}))
        assert run(["bench-re", "--config", cfg, "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "relative_efficiency.json").read_text())
        assert [row["p"] for row in payload["rows"]] == [2]
        assert payload["rows"][0]["re"] is None

    def test_process_exits_2_without_traceback(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": "abc"}))
        src = Path(eigengarch.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "eigengarch.cli", "simulate", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        assert run(["estimate", "--out", tmp_path]) == 2

    def test_convergence_error_is_3(self, monkeypatch, tmp_path):
        from eigengarch import cli

        def boom(opts):
            raise ConvergenceError("no convergence", traces=[{}])

        monkeypatch.setitem(cli.COMMANDS, "estimate", boom)
        assert run(["estimate", "--out", tmp_path]) == 3
