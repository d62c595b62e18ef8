"""End-to-end CLI flows: file round trips, exit codes, determinism."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dplc
from dplc.cli import (CONFIG_DEFAULTS, load_dataset_csv, main, run_records,
                      write_selection_table)

DATA_CSV = "data.csv"


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "seed": 7,
        "sim": {"n": 120, "p": 6, "r": 8, "s_beta": 2, "replicates": 2},
        "fit": {"arch": {"hidden_widths": [4], "dropout_rate": 0.0},
                "inner_steps": 10, "max_outer": 6,
                "lambda_grid": [0.05, 0.15, 0.45]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv):
    return main(list(argv))


def forbid_fitting(monkeypatch):
    """Make any fit fail the test: bad grids must be caught before one."""

    def no_fit(*args, **kwargs):
        raise AssertionError("a grid cell was fitted")

    monkeypatch.setattr("dplc.estimator.fit", no_fit)


def simulate_into(tmp_path, config, name="simdir"):
    out = tmp_path / name
    assert run("simulate", "--config", config, "--out", str(out)) == 0
    return out / "dataset.csv", out / "truth.json"


class TestSimulate:
    def test_writes_parseable_outputs(self, tmp_path, small_config):
        data_csv, truth_json = simulate_into(tmp_path, small_config)
        with open(data_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        assert set(rows[0]) == {"time", "status"} \
            | {"x_%d" % (j + 1) for j in range(6)} \
            | {"z_%d" % (k + 1) for k in range(8)}
        truth = json.loads(truth_json.read_text())
        assert len(truth["support"]) == 2
        assert 0.0 < truth["censoring_rate"] < 1.0

    def test_deterministic_bytes(self, tmp_path, small_config):
        a_csv, a_truth = simulate_into(tmp_path, small_config, "a")
        b_csv, b_truth = simulate_into(tmp_path, small_config, "b")
        assert a_csv.read_bytes() == b_csv.read_bytes()
        assert a_truth.read_bytes() == b_truth.read_bytes()

    def test_csv_keeps_generation_order(self, tmp_path, small_config):
        # The dataset stores its rows in time order; the file holds them
        # in the order the covariates were drawn.
        data_csv, _ = simulate_into(tmp_path, small_config)
        sim_cfg, _ = run_records(small_config)
        rng = np.random.default_rng(
            np.random.SeedSequence(sim_cfg.seed, spawn_key=(0,)))
        x, z = dplc.gen_covariates(sim_cfg, rng)
        loaded = load_dataset_csv(str(data_csv))
        assert np.array_equal(loaded[2], x) and np.array_equal(loaded[3], z)
        assert not np.all(np.diff(loaded[0]) >= 0)


class TestFit:
    def test_info_logs_each_lambda_default_stderr_repeats(self, tmp_path,
                                                         small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        env = dict(os.environ, PYTHONPATH=str(Path(dplc.__file__).parents[1]))
        env.pop("DPLC_LOG", None)

        def fit_stderr(name, **extra):
            return subprocess.run(
                [sys.executable, "-m", "dplc.cli", "fit", "--data",
                 str(data_csv), "--config", small_config,
                 "--out", str(tmp_path / name)],
                env=dict(env, **extra), capture_output=True, check=True).stderr

        quiet = fit_stderr("a")
        assert quiet == fit_stderr("b") and b"dplc.estimator" not in quiet
        lines = fit_stderr("c", DPLC_LOG="INFO").decode().splitlines()
        fits = [line for line in lines
                if line.startswith("INFO dplc.estimator: lambda=")]
        assert [line.split()[2] for line in fits] == \
            ["lambda=0.05", "lambda=0.15", "lambda=0.45"]
        labelled = [line.split(" lambda=")[0] for line in lines
                    if line.startswith("INFO dplc.estimator: ")
                    and line not in fits]
        assert labelled[:2] == ["INFO dplc.estimator: pilot",
                                "INFO dplc.estimator: round 1 fit"]
        assert labelled[2:] in ([], ["INFO dplc.estimator: round 2 fit"])

    def test_fit_then_predict_round_trip(self, tmp_path, small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        assert run("fit", "--data", str(data_csv), "--config", small_config,
                   "--out", str(fit_dir)) == 0
        bundle = json.loads((fit_dir / "model.json").read_text())
        assert bundle["format"] == "dplc-model"
        with open(fit_dir / "bic_path.csv") as fh:
            path_rows = list(csv.DictReader(fh))
        assert [float(r["lambda"]) for r in path_rows] == [0.05, 0.15, 0.45]

        pred_csv = tmp_path / "pred.csv"
        code = run("predict", "--model", str(fit_dir / "model.json"),
                   "--data", str(data_csv), "--out", str(pred_csv))
        assert code == 0
        with open(pred_csv) as fh:
            preds = list(csv.DictReader(fh))
        assert len(preds) == 120

    def test_row_order_leaves_outputs_unchanged(self, tmp_path, small_config,
                                                capsys):
        # With dropout, as in the default architecture, masks are drawn
        # per stored row.
        config = json.loads(Path(small_config).read_text())
        config["fit"]["arch"]["dropout_rate"] = 0.3
        Path(small_config).write_text(json.dumps(config))
        data_csv, _ = simulate_into(tmp_path, small_config)
        lines = data_csv.read_bytes().splitlines(keepends=True)
        reversed_csv = tmp_path / "reversed.csv"
        reversed_csv.write_bytes(lines[0] + b"".join(lines[:0:-1]))
        outputs = []
        for name, data in (("fit", data_csv), ("fit_reversed", reversed_csv)):
            capsys.readouterr()
            assert run("fit", "--data", str(data), "--config", small_config,
                       "--out", str(tmp_path / name)) == 0
            outputs.append([capsys.readouterr().out] + [
                (tmp_path / name / f).read_bytes()
                for f in ("model.json", "bic_path.csv", "selection.txt")])
        assert outputs[0] == outputs[1]

    def test_train_c_index_matches_predict(self, tmp_path, small_config,
                                           capsys):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        bundle = json.loads((fit_dir / "model.json").read_text())
        stored = bundle["diagnostics"]["c_index_train"]
        capsys.readouterr()
        run("predict", "--model", str(fit_dir / "model.json"),
            "--data", str(data_csv), "--out", str(tmp_path / "p.csv"))
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("c_index=")][0]
        assert abs(float(line.split("=", 1)[1]) - stored) < 1e-12

    def test_missing_status_column_exit_2(self, tmp_path, small_config,
                                          capsys):
        data_csv, _ = simulate_into(tmp_path, small_config)
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("status")
        stripped = tmp_path / "nostatus.csv"
        with open(stripped, "w", newline="") as fh:
            csv.writer(fh).writerows([r[:drop] + r[drop + 1:] for r in rows])
        code = run("fit", "--data", str(stripped), "--config", small_config,
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "'status'" in capsys.readouterr().err

    def test_missing_cell_names_line_and_column(self, tmp_path, small_config,
                                                capsys):
        data_csv, _ = simulate_into(tmp_path, small_config)
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("x_3")
        rows[5][col] = ""
        broken = tmp_path / "hole.csv"
        with open(broken, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = run("fit", "--data", str(broken), "--config", small_config,
                   "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert "line 6" in err and "x_3" in err and "missing" in err

    @pytest.mark.parametrize("events", ["none", "latest_only"])
    def test_undefined_train_c_index_is_null(self, tmp_path, small_config,
                                             capsys, events):
        data_csv, _ = simulate_into(tmp_path, small_config)
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        time, status = rows[0].index("time"), rows[0].index("status")
        latest = max(rows[1:], key=lambda row: float(row[time]))
        for row in rows[1:]:
            row[status] = "1" if events == "latest_only" and row is latest \
                else "0"
        edited = tmp_path / "edited.csv"
        with open(edited, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        fit_dir = tmp_path / "fit"
        capsys.readouterr()
        assert run("fit", "--data", str(edited), "--config", small_config,
                   "--out", str(fit_dir)) == 0
        captured = capsys.readouterr()
        assert "train c_index=" not in captured.out
        assert "c_index not reported: no comparable pairs" in captured.err
        bundle = json.loads((fit_dir / "model.json").read_text())
        assert bundle["diagnostics"]["c_index_train"] is None

    def test_separable_data_fit_has_no_traceback(self, tmp_path):
        # x_1 orders the event times, so at lambda 0 the partial likelihood
        # has no maximum and the predictor spread keeps growing
        z = np.random.default_rng(0).standard_normal(40)
        data = write_rows(tmp_path / "separable.csv",
                          [[i + 1, 1, (40 - i) / 10.0, z[i]]
                           for i in range(40)])
        code = run("fit", "--data", data, "--out", str(tmp_path / "fit"),
                   "--lambda-grid", "0")
        assert code in (0, 3)

    def test_coefficient_past_exp_range_exit_0(self, tmp_path):
        # x_1, a true feature, shrunk a thousandfold: its fitted
        # coefficient grows past 709, where exp(beta) overflows a float
        sim_dir = tmp_path / "sim"
        assert run("simulate", "--seed", "1", "--out", str(sim_dir)) == 0
        with open(sim_dir / "dataset.csv") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("x_1")
        for row in rows[1:]:
            row[col] = repr(float(row[col]) * 1e-3)
        data = tmp_path / "scaled.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        fit_dir = tmp_path / "fit"
        assert run("fit", "--data", str(data), "--out", str(fit_dir),
                   "--lambda-grid", "0.05,0.1") == 0
        table = (fit_dir / "selection.txt").read_text().splitlines()
        feature, beta, ratio = table[1].split("\t")
        assert (feature, ratio) == ("x_1", "inf") and float(beta) > 709.8

    def test_numerical_failure_exit_3(self, tmp_path, small_config, capsys,
                                      monkeypatch):
        from dplc import NumericalDivergence

        def diverge(*args, **kwargs):
            raise NumericalDivergence("divergence in the lambda path")

        monkeypatch.setattr("dplc.cli.tune_lambda", diverge)
        data_csv, _ = simulate_into(tmp_path, small_config)
        capsys.readouterr()
        assert run("fit", "--data", str(data_csv), "--config", small_config,
                   "--out", str(tmp_path / "fit")) == 3
        assert capsys.readouterr().err == \
            "numerical failure: divergence in the lambda path\n"

    def test_beta_cap_divergence_exit_3(self, tmp_path, capsys,
                                        monkeypatch):
        # cd_fit reads BETA_CAP at call time, so a cap below the fitted
        # coefficients sends a real fit through the divergence guard
        sim_dir = tmp_path / "sim"
        assert run("simulate", "--seed", "1", "--out", str(sim_dir)) == 0
        monkeypatch.setattr("dplc.coordinate_descent.BETA_CAP", 0.5)
        capsys.readouterr()
        fit_dir = tmp_path / "fit"
        assert run("fit", "--data", str(sim_dir / "dataset.csv"),
                   "--out", str(fit_dir), "--lambda-grid", "0.05,0.1") == 3
        assert capsys.readouterr().err == ("numerical failure: divergence; "
                                           "reduce step or increase lambda\n")
        assert not fit_dir.exists()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"fit": {"max_outre": 3}}))
        code = run("simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
        assert code == 2
        assert "fit.max_outre" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"seed": 1,,}')
        code = run("simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_arch_grid_flag_tunes_architecture(self, tmp_path, small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        assert run("fit", "--data", str(data_csv), "--config", small_config,
                   "--out", str(fit_dir), "--lambda-grid", "0.1,0.4",
                   "--arch-grid", "depths=2;widths=2;dropout=0.0;lr=0.02") == 0
        bundle = json.loads((fit_dir / "model.json").read_text())
        assert bundle["config"]["arch"]["hidden_widths"] == [2, 2]
        assert bundle["config"]["gamma"] == 0.02

    def test_outputs_contain_no_numpy_reprs(self, tmp_path, small_config,
                                            capsys):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        stdout = capsys.readouterr().out
        assert "np.float" not in stdout
        for name in ("model.json", "bic_path.csv", "selection.txt"):
            assert "np.float" not in (fit_dir / name).read_text()
        with open(fit_dir / "bic_path.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["bic"]) == float(r["bic"]) for r in rows)

    def test_lambda_grid_flag_overrides(self, tmp_path, small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        assert run("fit", "--data", str(data_csv), "--config", small_config,
                   "--out", str(fit_dir), "--lambda-grid", "0.1,0.4") == 0
        with open(fit_dir / "bic_path.csv") as fh:
            lams = [float(r["lambda"]) for r in csv.DictReader(fh)]
        assert lams == [0.1, 0.4]

    def test_model_echoes_the_flag_grid(self, tmp_path, small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        assert run("fit", "--data", str(data_csv), "--config", small_config,
                   "--out", str(fit_dir), "--lambda-grid", "0.1,0.4") == 0
        with open(fit_dir / "bic_path.csv") as fh:
            lams = [float(r["lambda"]) for r in csv.DictReader(fh)]
        echo = json.loads((fit_dir / "model.json").read_text())["config"]
        assert echo["lambda_grid"] == lams

    def test_repeated_lambda_saves_bic_minimizer(self, tmp_path, small_config,
                                                 capsys):
        # bic_path.csv holds the chain's BICs at the last round's network,
        # a repeated lambda continuing from its own last entry; the saved
        # model is tune_lambda's fit at the pick, with that fit's own BIC.
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        capsys.readouterr()
        assert run("fit", "--data", str(data_csv), "--config", small_config,
                   "--out", str(fit_dir), "--lambda-grid", "0.05,0.05,0.05") == 0
        with open(fit_dir / "bic_path.csv") as fh:
            rows = list(csv.DictReader(fh))
        times, status, x, z = load_dataset_csv(str(data_csv))[:4]
        best, path = dplc.tune_lambda(
            dplc.SurvivalDataset(times=times, status=status, x=x, z=z),
            run_records(small_config, None, "0.05,0.05,0.05")[1])
        assert [(float(r["lambda"]), float(r["bic"])) for r in rows] == \
            [(0.05, m.diagnostics["bic"]) for m in path]
        saved = json.loads((fit_dir / "model.json").read_text())
        assert saved["diagnostics"]["lambda_selected"] == best.lam == 0.05
        assert saved["diagnostics"]["bic"] == best.diagnostics["bic"]
        assert saved["beta"] == [[int(j), float(best.beta_hat[j])]
                                 for j in best.support]
        assert "(bic=%r)" % best.diagnostics["bic"] in capsys.readouterr().out

    @pytest.mark.parametrize("grid", ["-1,0.5", "0.1,inf", "nan"])
    def test_bad_lambda_exit_2(self, tmp_path, small_config, capsys, grid):
        data_csv, _ = simulate_into(tmp_path, small_config)
        code = run("fit", "--data", str(data_csv), "--config", small_config,
                   "--out", str(tmp_path / "fit"), "--lambda-grid=" + grid)
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err and ">= 0" in err


    @pytest.mark.parametrize("command", ["fit", "benchmark"])
    def test_empty_lambda_grid_flag_exit_2(self, tmp_path, small_config,
                                           capsys, command):
        data_csv, _ = simulate_into(tmp_path, small_config)
        capsys.readouterr()
        argv = [command, "--config", small_config, "--lambda-grid", "",
                "--out", str(tmp_path / "o")]
        if command == "fit":
            argv += ["--data", str(data_csv)]
        assert run(*argv) == 2
        assert "input error: invalid fit config: lambda_grid must be " \
            "non-empty and ascending\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("arch_grid, message", [
        ("depths=1;widths=2;dropout=0.0,1.5", "dropout_rate"),
        ("depths=1;widths=2;dropout=0.0;lr=0.01,0", "gamma"),
        ("depths=1;widths=2;dropout=0.0;lr=nan", "gamma"),
        ("depths=1;widths=2;dropout=0.0;lr=inf", "gamma"),
        ("depths=1;widths=0,2;dropout=0.0", "widths"),
        ("depths=-1,1;widths=2;dropout=0.0", "depths"),
        ("depths=1;widths=2;lr=", "empty grid"),
    ])
    def test_bad_arch_grid_exit_2_before_fitting(self, tmp_path, small_config,
                                                 capsys, monkeypatch,
                                                 arch_grid, message):
        data_csv, _ = simulate_into(tmp_path, small_config)
        capsys.readouterr()
        forbid_fitting(monkeypatch)
        code = run("fit", "--data", str(data_csv), "--config", small_config,
                   "--out", str(tmp_path / "fit"), "--arch-grid", arch_grid)
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err
        assert not (tmp_path / "fit").exists()


class TestConfig:
    @pytest.mark.parametrize("command, text, key", [
        ("fit", '{"fit": {"arch": {"hidden_widths": [null]}}}',
         "fit.arch.hidden_widths[0]"),
        ("fit", '{"fit": {"arch": {"hidden_widths": [[4]]}}}',
         "fit.arch.hidden_widths[0]"),
        ("simulate", '{"sim": {"n": Infinity}}', "sim.n"),
        ("fit", '{"fit": {"max_outer": Infinity}}', "fit.max_outer"),
        ("simulate", '{"sim": {"rho": NaN}}', "sim.rho"),
        ("fit", '{"fit": {"gamma": NaN}}', "fit.gamma"),
        ("fit", '{"fit": {"lambda_grid": [0.1, -Infinity]}}',
         "fit.lambda_grid[1]"),
        ("fit", '{"fit": {"max_outer": 2.7}}', "fit.max_outer"),
        ("simulate", '{"seed": 1.5}', "seed"),
    ])
    def test_bad_value_exit_2_names_key(self, tmp_path, small_config, capsys,
                                        command, text, key):
        data_csv, _ = simulate_into(tmp_path, small_config)
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        capsys.readouterr()
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "fit":
            argv += ["--data", str(data_csv)]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "config key %s " % key in err

    @pytest.mark.parametrize("command", ["simulate", "fit", "benchmark"])
    @pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "config"])
    def test_negative_seed_exit_2(self, tmp_path, small_config, capsys,
                                  command, by_flag):
        data_csv, _ = simulate_into(tmp_path, small_config)
        cfg = json.loads(open(small_config).read())
        argv = [command, "--out", str(tmp_path / "o")]
        if by_flag:
            argv += ["--seed", "-1"]
        else:
            cfg["seed"] = -1
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
        if command == "fit":
            argv += ["--data", str(data_csv)]
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "seed must be >= 0" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, reason", [
        ('{"sim": {"n": 5}}', "r must be <= n"),
        ('{"sim": {"g0_kind": "nonlinear", "r": 4}}',
         "nonlinear g0 needs r >= 8"),
    ])
    def test_sim_config_that_cannot_generate_exit_2(self, tmp_path, capsys,
                                                    text, reason):
        cfg = tmp_path / "sim.json"
        cfg.write_text(text)
        for command in ("simulate", "benchmark"):
            out = tmp_path / command
            assert run(command, "--config", str(cfg), "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert "input error: invalid sim config: %s" % reason in err
            assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"network": {"learning_rate": 0.02}}', "network"),
        ('{"solver": {"max_outer": 6}}', "solver"),
        ('{"scad": {"lam": 0.3}}', "scad"),
        ('{"fit": {"scad": {"lam": 1e400}}}', "fit.scad"),
        ('{"fit": {"fit_g": false}}', "fit.fit_g"),
        ('{"sim": {"seed": 3}}', "sim.seed"),
        ('{"sim": {"mu": 1.0}}', "sim.mu"),
        ('{"fit": {"arch": {"input_dim": 8}}}', "fit.arch.input_dim"),
        ('{"lambda_grid": [0.1, 0.4]}', "lambda_grid"),
        ('{"fit": {"adam": {"gamma": 0.02}}}', "fit.adam"),
        ('{"fit": {"adam_tol": 1e-7}}', "fit.adam_tol"),
        ('{"fit": {"cd_tol": 1e-5}}', "fit.cd_tol"),
        ('{"fit": {"outer_tol": 1e-3}}', "fit.outer_tol"),
        ('{"benchmark": {"threads": 2.5}}', "benchmark"),
        ('{"tune_arch": {"depth_grid": [1.5]}}', "tune_arch"),
    ])
    def test_keys_outside_the_schema_exit_2(self, tmp_path, capsys, text,
                                            key):
        cfg = tmp_path / "old.json"
        cfg.write_text(text)
        code = run("simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown config key: %s\n" % key in capsys.readouterr().err

    def test_model_config_echo_loads_as_fit_section(self, tmp_path,
                                                    small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        assert run("fit", "--data", str(data_csv), "--config", small_config,
                   "--out", str(fit_dir)) == 0
        echo = json.loads((fit_dir / "model.json").read_text())["config"]
        seed = echo.pop("seed")
        assert echo.pop("fit_g") is True
        path = tmp_path / "echo.json"
        path.write_text(json.dumps({"fit": echo}))
        _, rebuilt = run_records(str(path), seed)
        _, original = run_records(small_config)
        assert rebuilt == original

    def test_readme_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Run configuration", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        defaults = json.loads(json.dumps(CONFIG_DEFAULTS))
        assert json.loads(block) == defaults

    def test_readme_arch_grid_comment_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        comment = re.search(r"a grid left out\n# is (.*)\n", readme).group(1)
        stated = {name: [float(v) for v in values.split(",")]
                  for name, values in re.findall(r"(\w+)=([\d.,]*\d)",
                                                 comment)}
        assert stated == {name: default for name, (_, _, default)
                          in dplc.cli.ARCH_GRIDS.items()}


class TestUnwritableOutput:
    @pytest.mark.parametrize("command",
                             ["simulate", "fit", "predict", "benchmark"])
    def test_exit_2_names_the_path(self, tmp_path, small_config, capsys,
                                   command):
        data_csv, _ = simulate_into(tmp_path, small_config)
        if command == "predict":
            fit_dir = tmp_path / "fit"
            assert run("fit", "--data", str(data_csv), "--config",
                       small_config, "--out", str(fit_dir)) == 0
            out = tmp_path / "nodir" / "p.csv"
            argv = ["predict", "--model", str(fit_dir / "model.json"),
                    "--data", str(data_csv)]
        else:
            out = tmp_path / "a_file"
            out.write_text("")
            argv = [command, "--config", small_config]
            if command == "fit":
                argv += ["--data", str(data_csv)]
        capsys.readouterr()
        assert run(*argv, "--out", str(out)) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("input error: ") and str(out) in last

    @pytest.mark.parametrize("command, out", [
        ("fit", "a_file"), ("fit", "a_file/fit"),
        ("predict", "nodir/p.csv"), ("predict", "a_dir"),
    ])
    def test_out_checked_before_the_work(self, tmp_path, small_config,
                                         monkeypatch, capsys, command, out):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        if command == "predict":
            assert run("fit", "--data", str(data_csv), "--config",
                       small_config, "--out", str(fit_dir)) == 0
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_dir").mkdir()
        before = sorted(tmp_path.rglob("*"))

        def too_soon(*args, **kwargs):
            raise AssertionError("ran before --out was checked")

        monkeypatch.setattr("dplc.cli.tune_lambda", too_soon)
        monkeypatch.setattr("dplc.cli.predict_eta", too_soon)
        out = tmp_path / out
        argv = [command, "--data", str(data_csv), "--out", str(out)]
        argv += (["--config", small_config] if command == "fit"
                 else ["--model", str(fit_dir / "model.json")])
        capsys.readouterr()
        assert run(*argv) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("input error: ") and str(out) in last
        assert sorted(tmp_path.rglob("*")) == before


class TestSelectionTable:
    def test_hazard_ratio_formatting(self, tmp_path):
        path = tmp_path / "sel.txt"
        # exp(800) is past the float range: its ratio is written as inf
        beta = np.array([0.5, 0.0, -0.25, 800.0])
        write_selection_table(path, beta, np.array([0, 2, 3]),
                              ["x_a", "x_b", "x_c", "x_d"])
        lines = path.read_text().splitlines()
        assert lines[0] == "feature\tbeta\thazard_ratio"
        assert lines[1] == "x_d\t800\tinf"
        assert lines[2] == "x_a\t0.5\t1.6487"
        assert lines[3] == "x_c\t-0.25\t0.7788"


class TestImport:
    def test_cli_import_leaves_out_multiprocessing(self):
        # only a benchmark run on more than one worker starts a process
        # pool, so the other commands do not pay for loading it
        env = dict(os.environ, PYTHONPATH=str(Path(dplc.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, dplc.cli; "
             "print('multiprocessing' in sys.modules)"],
            env=env, capture_output=True, check=True, text=True).stdout
        assert out == "False\n"


class TestPredict:
    def test_shuffled_columns_same_predictions(self, tmp_path, small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        perm = list(np.random.default_rng(0).permutation(len(rows[0])))
        shuffled = tmp_path / "shuffled.csv"
        with open(shuffled, "w", newline="") as fh:
            csv.writer(fh).writerows([[row[k] for k in perm] for row in rows])
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        run("predict", "--model", str(fit_dir / "model.json"),
            "--data", str(data_csv), "--out", str(p1))
        run("predict", "--model", str(fit_dir / "model.json"),
            "--data", str(shuffled), "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rows_exit_2(self, tmp_path, small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        empty = tmp_path / "empty.csv"
        with open(data_csv) as fh:
            header = fh.readline()
        empty.write_text(header)
        code = run("predict", "--model", str(fit_dir / "model.json"),
                   "--data", str(empty), "--out", str(tmp_path / "p.csv"))
        assert code == 2

    def test_column_mismatch_exit_2(self, tmp_path, small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        rows[0][rows[0].index("x_6")] = "x_99"
        renamed = tmp_path / "renamed.csv"
        with open(renamed, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = run("predict", "--model", str(fit_dir / "model.json"),
                   "--data", str(renamed), "--out", str(tmp_path / "p.csv"))
        assert code == 2

    @pytest.mark.parametrize("case", ["short_x", "no_z", "list", "duplicate"])
    def test_invalid_columns_record_exit_2(self, tmp_path, small_config,
                                           capsys, case):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        bundle = json.loads((fit_dir / "model.json").read_text())
        columns = bundle["columns"]
        dropped = []
        if case == "short_x":
            dropped = columns["x"][3:]
            columns["x"] = columns["x"][:3]
        elif case == "no_z":
            del columns["z"]
        elif case == "list":
            bundle["columns"] = columns["x"] + columns["z"]
        else:
            dropped = [columns["x"][1]]
            columns["x"][1] = columns["x"][0]
        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps(bundle))
        # the data carries exactly the names the record lists
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        keep = [k for k, name in enumerate(rows[0]) if name not in dropped]
        edited = tmp_path / "edited.csv"
        with open(edited, "w", newline="") as fh:
            csv.writer(fh).writerows([[row[k] for k in keep] for row in rows])
        capsys.readouterr()
        pred_csv = tmp_path / "p.csv"
        assert run("predict", "--model", str(model_json), "--data",
                   str(edited), "--out", str(pred_csv)) == 2
        assert "invalid model file: columns" in capsys.readouterr().err
        assert not pred_csv.exists()

    @pytest.mark.parametrize("case", ["list_root", "index_past_p",
                                      "negative_index", "float_index",
                                      "repeated_index", "nan_value",
                                      "float_p", "huge_p", "list_network",
                                      "nan_weight", "inf_bias", "nan_offset",
                                      "huge_int_weight", "float_input_dim",
                                      "float_width", "string_dropout"])
    def test_invalid_model_record_exit_2(self, tmp_path, small_config,
                                         capsys, case):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        bundle = json.loads((fit_dir / "model.json").read_text())
        edits = {"index_past_p": [[99, 1.0]], "negative_index": [[-1, 1.0]],
                 "float_index": [[1.7, 1.0]],
                 "repeated_index": [[0, 1.0], [0, 2.0]],
                 "nan_value": [[0, float("nan")]]}
        if case == "list_root":
            bundle = [1, 2]
        elif case == "float_p":
            bundle["p"] = float(bundle["p"])
        elif case == "huge_p":
            # must fail on the column count, not by allocating p floats
            bundle["p"] = 10 ** 13
        elif case == "list_network":
            bundle["network"] = [bundle["network"]]
        elif case == "nan_weight":
            bundle["network"]["weights"][0][0][0] = float("nan")
        elif case == "inf_bias":
            bundle["network"]["biases"][0][0] = float("inf")
        elif case == "nan_offset":
            bundle["network"]["center_offset"] = float("nan")
        elif case == "huge_int_weight":
            bundle["network"]["weights"][0][0][0] = 10 ** 400
        elif case == "float_input_dim":
            bundle["network"]["input_dim"] += 0.9
        elif case == "float_width":
            bundle["network"]["hidden_widths"][0] += 0.6
        elif case == "string_dropout":
            bundle["network"]["dropout_rate"] = \
                str(bundle["network"]["dropout_rate"])
        else:
            bundle["beta"] = edits[case]
        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps(bundle))
        capsys.readouterr()
        pred_csv = tmp_path / "p.csv"
        assert run("predict", "--model", str(model_json), "--data",
                   str(data_csv), "--out", str(pred_csv)) == 2
        assert "input error: invalid model file: " in capsys.readouterr().err
        assert not pred_csv.exists()

    def test_missing_columns_exit_2_before_allocating_p(self, tmp_path,
                                                        small_config, capsys):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        bundle = json.loads((fit_dir / "model.json").read_text())
        del bundle["columns"]
        bundle["p"] = 10 ** 13
        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert run("predict", "--model", str(model_json), "--data",
                   str(data_csv), "--out", str(tmp_path / "p.csv")) == 2
        assert "model file lacks column names" in capsys.readouterr().err

    def test_predict_without_outcome_columns(self, tmp_path, small_config):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        keep = [k for k, name in enumerate(rows[0])
                if name not in ("time", "status")]
        bare = tmp_path / "bare.csv"
        with open(bare, "w", newline="") as fh:
            csv.writer(fh).writerows([[row[k] for k in keep] for row in rows])
        assert run("predict", "--model", str(fit_dir / "model.json"),
                   "--data", str(bare), "--out", str(tmp_path / "p.csv")) == 0

    @pytest.mark.parametrize("keep", ["censored", "one_row"])
    def test_undefined_c_index_is_skipped(self, tmp_path, small_config,
                                          capsys, keep):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        if keep == "censored":
            status = rows[0].index("status")
            rows = rows[:1] + [r[:status] + ["0"] + r[status + 1:]
                               for r in rows[1:]]
        else:
            rows = rows[:2]
        edited = tmp_path / "edited.csv"
        with open(edited, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        pred_csv = tmp_path / "p.csv"
        assert run("predict", "--model", str(fit_dir / "model.json"),
                   "--data", str(edited), "--out", str(pred_csv)) == 0
        captured = capsys.readouterr()
        assert "c_index=" not in captured.out
        assert "wrote %d predictions" % (len(rows) - 1) in captured.out
        assert "c_index not reported" in captured.err
        with open(pred_csv) as fh:
            assert len(list(csv.DictReader(fh))) == len(rows) - 1


    def test_nonfinite_linear_predictor_exit_3(self, tmp_path, small_config,
                                               capsys):
        data_csv, _ = simulate_into(tmp_path, small_config)
        fit_dir = tmp_path / "fit"
        run("fit", "--data", str(data_csv), "--config", small_config,
            "--out", str(fit_dir))
        bundle = json.loads((fit_dir / "model.json").read_text())
        beta = dict(bundle["beta"])
        # beta'x overflows when every selected cell is the largest finite
        # float with beta's sign, which takes only sum|beta| > 1
        big = sys.float_info.max
        assert sum(abs(b) for b in beta.values()) * big == np.inf
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        for j, b in beta.items():
            col = rows[0].index(bundle["columns"]["x"][j])
            for row in rows[1:]:
                row[col] = repr(big if b > 0 else -big)
        huge = tmp_path / "huge.csv"
        with open(huge, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        pred_csv = tmp_path / "p.csv"
        assert run("predict", "--model", str(fit_dir / "model.json"),
                   "--data", str(huge), "--out", str(pred_csv)) == 3
        captured = capsys.readouterr()
        assert "non-finite linear predictor" in captured.err
        assert "c_index=" not in captured.out
        assert not pred_csv.exists()


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["time", "status", "x_1", "z_1"]] + rows)
    return str(path)


class TestLoadDatasetCsv:
    GOOD = ["2.5", "1", "0.25", "-1"]

    @pytest.mark.parametrize("cell", [" 1.5 ", "1_000", "+3", "1e5", "1.0\t",
                                      "\xa02", ".5", "7."])
    def test_odd_valid_cells_parse_like_float(self, tmp_path, cell):
        path = write_rows(tmp_path / "d.csv",
                          [self.GOOD, ["1.0", "0", cell, cell]])
        times, status, x, z, x_names, z_names = load_dataset_csv(path)
        assert x[:, 0].tolist() == [0.25, float(cell.strip())]
        assert z[:, 0].tolist() == [-1.0, float(cell.strip())]
        assert times.tolist() == [2.5, 1.0] and status.tolist() == [1.0, 0.0]
        assert (x_names, z_names) == (["x_1"], ["z_1"])

    @pytest.mark.parametrize("cell, text", [
        ("", "missing value"),
        ("   ", "missing value"),
        ("abc", "not a number: 'abc'"),
        (" abc ", "not a number: 'abc'"),
        ("nan", "non-finite value"),
        ("-inf", "non-finite value"),
        ("1e400", "non-finite value"),
    ])
    def test_bad_cell_exit_2_names_line_and_column(self, tmp_path, capsys,
                                                   cell, text):
        path = write_rows(tmp_path / "d.csv",
                          [self.GOOD, self.GOOD, ["1.0", "0", "0.5", cell]])
        assert run("fit", "--data", path, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == \
            "input error: %s line 4, column 'z_1': %s\n" % (path, text)

    @pytest.mark.parametrize("rows, where", [
        ([["1.0", "0", "abc", "nan"], ["", "1", "0", "0"]],
         "line 2, column 'x_1': not a number: 'abc'"),
        ([["1.0", "0", "1e400", "abc"], ["", "1", "0", "0"]],
         "line 2, column 'x_1': non-finite value"),
        ([["1.0", "1", "0", "0"], ["-inf", "1", "x", ""]],
         "line 3, column 'time': non-finite value"),
        ([["1.0", "1", "0", "0"], ["1.0", " ", "inf", "x"]],
         "line 3, column 'status': missing value"),
        ([["1.0", "1", "0", "nan"], ["1.0", "1"]],
         "line 2, column 'z_1': non-finite value"),
        ([["1.0", "1", "0", "0"], ["1.0", "1"], ["1.0", "1", "x", "0"]],
         "line 3: expected 4 cells, got 2"),
    ])
    def test_first_error_in_file_order(self, tmp_path, capsys, rows, where):
        path = write_rows(tmp_path / "d.csv", rows)
        assert run("fit", "--data", path, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == \
            "input error: %s %s\n" % (path, where)

    def test_utf8_bom_is_dropped(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [self.GOOD])
        with open(path, "rb") as fh:
            text = fh.read()
        with open(path, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + text)
        times, _, x, _, x_names, _ = load_dataset_csv(path)
        assert times.tolist() == [2.5] and x_names == ["x_1"]


class TestFileEncoding:
    ROWS = b"time,status,x_1,z_1\n" + b"1.5,1,0.25,-1\n" * 3000

    @pytest.mark.parametrize("bad, prefix, content", [
        ("data", "", b"time,\xffstatus,x_1,z_1\n1.5,1,0.25,-1\n"),
        ("data", "", ROWS + b"1.5,1,\xe9,-1\n"),
        ("config", "config ", b'{"seed": 1, "sim": {"\xff": 2}}'),
        ("model", "model ", b'{"p": 1, "beta": "\xff"}'),
    ], ids=["data_header", "data_row", "config", "model"])
    def test_non_utf8_file_exit_2_names_it(self, tmp_path, capsys, bad,
                                           prefix, content):
        good = tmp_path / "good.csv"
        good.write_bytes(self.ROWS)
        path = tmp_path / ("bad_" + bad)
        path.write_bytes(content)
        out = str(tmp_path / "out")
        argv = {"data": ["fit", "--data", str(path), "--out", out],
                "config": ["fit", "--data", str(good), "--config", str(path),
                           "--out", out],
                "model": ["predict", "--model", str(path), "--data", str(good),
                          "--out", out]}[bad]
        assert run(*argv) == 2
        reason = "invalid continuation byte" if b"\xe9" in content \
            else "invalid start byte"
        assert capsys.readouterr().err == "input error: %s%s: not UTF-8 " \
            "text (%s)\n" % (prefix, path, reason)

    @pytest.mark.parametrize("what", ["config", "model"])
    @pytest.mark.parametrize("content, message", [
        (None, "cannot read {what}: [Errno 2] No such file or directory: "
               "'{path}'"),
        ('{"seed": 1,,}', "{what} {path} line 1 column 12: Expecting "
                          "property name enclosed in double quotes"),
        ('{\n  "p": 1\n  "beta": []}', "{what} {path} line 3 column 3: "
                                       "Expecting ',' delimiter"),
    ], ids=["missing", "double_comma", "no_comma"])
    def test_unreadable_json_file_exit_2_names_it(self, tmp_path, capsys,
                                                  what, content, message):
        good = tmp_path / "good.csv"
        good.write_bytes(self.ROWS)
        path = tmp_path / ("bad_" + what)
        if content is not None:
            path.write_text(content)
        out = str(tmp_path / "out")
        argv = {"config": ["fit", "--data", str(good), "--config", str(path),
                           "--out", out],
                "model": ["predict", "--model", str(path), "--data",
                          str(good), "--out", out]}[what]
        assert run(*argv) == 2
        assert capsys.readouterr().err == "input error: %s\n" \
            % message.format(what=what, path=path)


class TestBenchmark:
    def test_outputs_and_determinism(self, tmp_path, small_config):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        for out in (out1, out2):
            assert run("benchmark", "--config", small_config,
                       "--out", str(out)) == 0
        for name in ("replicates.csv", "summary.json", "cindex_long.csv",
                     "selection_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        with open(out1 / "replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 2 replicates x (dplc + cox_scad baseline)
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"dplc", "cox_scad"}
        with open(out1 / "selection_summary.csv") as fh:
            header = next(csv.reader(fh))
        for concept in ("selected_features", "fpn", "fpr_pct", "fnn",
                        "fnr_pct"):
            assert concept in header
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["summary"]["dplc"]["replicates_ok"] == 2

    def test_counts_fits_not_converged(self, tmp_path, small_config):
        # A dplc path runs the pilot, two three-value chains, and round 1's
        # alternating fit; on this data round 2 keeps round 1's pick, so
        # no second fit runs.  One outer iteration can never make the
        # stable window, so the pilot and the fit are counted, and no chain
        # entry is capped.  One sweep caps every chain entry, of both
        # methods, and the fit's coordinate-descent calls; the pilot's
        # calls converge at beta = 0, but its outer loop does not settle
        # within this config's max_outer of 6.
        for limit, counts in (("max_outer", {"dplc": 2, "cox_scad": 0}),
                              ("max_sweeps", {"dplc": 8, "cox_scad": 3})):
            cfg = json.loads(open(small_config).read())
            cfg["fit"][limit] = 1
            path = tmp_path / ("%s.json" % limit)
            path.write_text(json.dumps(cfg))
            out = tmp_path / limit
            assert run("benchmark", "--config", str(path),
                       "--out", str(out)) == 0
            with open(out / "replicates.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 4
            assert all(r["error"] == "" and
                       r["fits_not_converged"] == str(counts[r["method"]])
                       for r in rows)
            summary = json.loads((out / "summary.json").read_text())
            assert {m: e["fits_not_converged"]
                    for m, e in summary["summary"].items()} \
                == {m: 2 * c for m, c in counts.items()}

    def test_threads_flag_same_bytes(self, tmp_path, small_config):
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        assert run("benchmark", "--config", small_config, "--out",
                   str(seq_dir), "--threads", "1") == 0
        assert run("benchmark", "--config", small_config, "--out",
                   str(par_dir), "--threads", "2") == 0
        for name in ("replicates.csv", "summary.json", "cindex_long.csv"):
            assert (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()

    def test_zero_threads_exit_2(self, tmp_path, small_config, capsys):
        out = tmp_path / "b"
        assert run("benchmark", "--config", small_config, "--out", str(out),
                   "--threads", "0") == 2
        assert "input error: --threads must be >= 1" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_interrupted_run_leaves_valid_partial_csv(self, tmp_path,
                                                      small_config,
                                                      monkeypatch):
        import dplc.cli as cli_mod
        from dplc.simulation import ReplicateRow

        def fake_run(sim_cfg, methods, n_workers=1, row_callback=None):
            row_callback(ReplicateRow(replicate=0, method="dplc",
                                      censoring_rate=0.3, c_index_test=0.5))
            raise KeyboardInterrupt()

        monkeypatch.setattr(cli_mod, "run_experiment", fake_run)
        out = tmp_path / "b"
        with pytest.raises(KeyboardInterrupt):
            run("benchmark", "--config", small_config, "--out", str(out))
        with open(out / "replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["method"] == "dplc"

    def test_rows_on_disk_when_each_is_delivered(self, tmp_path,
                                                 small_config, monkeypatch):
        import dplc.cli as cli_mod
        from dplc.simulation import REPLICATE_FIELDS, fmt_value

        real_run = cli_mod.run_experiment
        out = tmp_path / "b"
        delivered, on_disk = [], []

        def spying_run(sim_cfg, methods, n_workers=1, row_callback=None):
            def spy(row):
                row_callback(row)
                delivered.append([fmt_value(getattr(row, f))
                                  for f in REPLICATE_FIELDS])
                with open(out / "replicates.csv", newline="") as fh:
                    on_disk.append(list(csv.reader(fh)))
            return real_run(sim_cfg, methods, n_workers, spy)

        monkeypatch.setattr(cli_mod, "run_experiment", spying_run)
        assert run("benchmark", "--config", small_config,
                   "--out", str(out)) == 0
        assert len(on_disk) == 4  # 2 replicates x 2 methods
        for k, rows in enumerate(on_disk):
            assert rows == [REPLICATE_FIELDS] + delivered[:k + 1]

    def test_negative_lambda_in_config_exit_2(self, tmp_path, small_config,
                                              capsys):
        cfg = json.loads(open(small_config).read())
        cfg["fit"]["lambda_grid"] = [-1, 0.5]
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(cfg))
        code = run("benchmark", "--config", str(path),
                   "--out", str(tmp_path / "b"))
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err and "lambda_grid" in err


class TestFloatRoundTrip:
    def test_csv_cells_round_trip_exactly(self, tmp_path):
        from dplc.simulation import fmt_value
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.standard_normal(50) * 10.0 ** k
                                 for k in (-8, 0, 8)])
        for v in values:
            assert float(fmt_value(float(v))) == float(v)
