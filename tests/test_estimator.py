"""Alternating estimator, BIC tuning, and model persistence."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from dplc import (FitConfig, NetworkArch, SimConfig,
                  cd_fit, estimator, fit, init_network, model_from_dict,
                  model_to_dict, predict_eta,
                  simulate_dataset, tune_architecture, tune_lambda,
                  zero_network)
from dplc import network
from dplc.estimator import FittedModel
from dplc.survival import cox_terms

from conftest import make_dataset


LAM = 0.15  # the penalty strength of the single fits below
# sim_data(1, n=80, p=4) at quick_cfg() selects nothing from 1.0 on
NULL_TAIL_GRID = (0.1, 0.3, 1.0, 3.0, 5.0)


def quick_cfg(hidden=(4, 4), dropout=0.0, gamma=0.02, max_outer=8, seed=0,
              **kw):
    return FitConfig(arch=NetworkArch(hidden, dropout),
                     gamma=gamma,
                     max_outer=max_outer, seed=seed, **kw)


def sim_data(seed, n=200, p=10, s_beta=2, g0_kind="linear", r=8):
    cfg = SimConfig(n=n, p=p, r=r, s_beta=s_beta, g0_kind=g0_kind, seed=seed)
    return simulate_dataset(cfg, 0)


class TestFit:
    def test_dominant_penalty_gives_pure_network_fit(self):
        data = sim_data(3, n=150, p=5, s_beta=0, g0_kind="nonlinear")
        model = fit(data.dataset, quick_cfg(), 5.0)
        assert np.all(model.beta_hat == 0.0)
        assert model.support.size == 0
        # the network still carries signal: its outputs are not constant
        assert np.std(predict_eta(model, data.dataset.x, data.dataset.z)) > 0

    def test_deterministic_bitwise(self):
        data = sim_data(5, n=120, p=8)
        cfg = quick_cfg(dropout=0.3, seed=11)
        a = fit(data.dataset, cfg, LAM)
        b = fit(data.dataset, cfg, LAM)
        assert np.array_equal(a.beta_hat, b.beta_hat)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.net.weights, b.net.weights))
        assert a.net.center_offset == b.net.center_offset

    def test_sweep_cap_makes_a_settled_fit_unconverged(self):
        # data on which the capped fit's loss path settles early
        ds = simulate_dataset(SimConfig(n=100, p=10, seed=2), 0).dataset
        cfg = FitConfig(arch=NetworkArch((4, 4), 0.3))
        capped = fit(ds, replace(cfg, max_sweeps=1), 0.1).diagnostics
        # The loss-path stopping rule held before max_outer ...
        assert capped["outer_iters"] < cfg.max_outer
        # ... but every coordinate descent call ran out of sweeps.
        assert capped["cd_sweeps"] == [1] * capped["outer_iters"]
        assert capped["converged"] is False
        assert fit(ds, cfg, 0.1).diagnostics["converged"] is True

    @pytest.mark.parametrize("max_sweeps", [1, 100])
    def test_baseline_fit_is_one_cd_call(self, max_sweeps, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("the network was trained")

        calls = []

        def counted_cd_fit(*args, **kwargs):
            calls.append(args)
            return cd_fit(*args, **kwargs)

        monkeypatch.setattr("dplc.estimator.adam_fit", no_training)
        monkeypatch.setattr("dplc.estimator.cd_fit", counted_cd_fit)
        ds = simulate_dataset(SimConfig(n=100, p=10, seed=1), 0).dataset
        cfg = FitConfig(fit_g=False, max_sweeps=max_sweeps)
        model = fit(ds, cfg, 0.1)
        assert len(calls) == 1
        info = {}
        beta = cd_fit(ds, np.zeros(ds.n), None, 0.1,
                      max_sweeps=cfg.max_sweeps, info=info)
        assert model.beta_hat.tobytes() == beta.tobytes()
        diag = model.diagnostics
        assert diag["outer_iters"] == 1
        assert len(diag["loss_path"]) == 2
        assert diag["cd_sweeps"] == [info["sweeps"]]
        assert diag["converged"] is info["converged"]
        assert info["converged"] is (max_sweeps == 100)

    def test_support_matches_nonzeros(self):
        data = sim_data(7, n=200, p=12, s_beta=3)
        model = fit(data.dataset, quick_cfg(), 0.1)
        assert np.array_equal(model.support, np.flatnonzero(model.beta_hat))

    def test_support_follows_an_edit_of_beta_hat(self):
        data = sim_data(7, n=200, p=12, s_beta=3)
        model = fit(data.dataset, quick_cfg(), 0.1)
        j = int(np.flatnonzero(model.beta_hat == 0.0)[0])
        model.beta_hat[j] = 0.5
        model.beta_hat[model.support[model.support != j][0]] = 0.0
        assert np.array_equal(model.support, np.flatnonzero(model.beta_hat))
        assert model.n_selected == np.count_nonzero(model.beta_hat)

    def test_one_network_and_kernel_pass_per_outer_iteration(self,
                                                             monkeypatch):
        calls = {"raw_forward": 0, "cox_terms": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(network, "_raw_forward",
                            counted("raw_forward", network._raw_forward))
        monkeypatch.setattr(estimator, "cox_terms",
                            counted("cox_terms", cox_terms))
        data = sim_data(5, n=120, p=8)
        model = fit(data.dataset, quick_cfg(dropout=0.3, seed=3), LAM)
        outer = model.diagnostics["outer_iters"]
        assert outer > 1
        assert calls == {"raw_forward": outer + 1, "cox_terms": outer + 1}

    def test_loss_trace_mostly_nonincreasing(self):
        # Deterministic Adam (dropout off): the alternation should descend.
        total, ok = 0, 0
        for seed in range(6):
            data = sim_data(seed, n=250, p=15, s_beta=3)
            model = fit(data.dataset, quick_cfg(max_outer=12, seed=seed), LAM)
            path = model.diagnostics["loss_path"]
            steps = [path[k + 1] <= path[k] + 1e-6 for k in range(len(path) - 1)]
            total += len(steps)
            ok += sum(steps)
        assert ok / total >= 0.95

    def test_linear_truth_recovers_strongest_features(self):
        hits = 0
        for seed in range(20):
            cfg_sim = SimConfig(n=300, p=20, r=8, s_beta=3, g0_kind="linear",
                                seed=100 + seed)
            data = simulate_dataset(cfg_sim, 0)
            top2 = data.support0[np.argsort(-np.abs(data.beta0[data.support0]))][:2]
            _, path = tune_lambda(data.dataset, quick_cfg(
                seed=seed, lambda_grid=(0.05, 0.1, 0.2, 0.4, 0.8)))
            best = min(path, key=lambda m: m.diagnostics["bic"])
            if set(top2) <= set(best.support):
                hits += 1
        assert hits >= 18

    def test_network_fit_disabled(self):
        data = sim_data(9, n=150, p=8)
        model = fit(data.dataset, replace(quick_cfg(), fit_g=False), LAM)
        z_out = predict_eta(model, np.zeros((4, 8)), np.ones((4, 8)))
        assert np.all(z_out == 0.0)

    def test_default_path_converges(self):
        data = simulate_dataset(SimConfig(seed=1), 0)
        _, path = tune_lambda(data.dataset, FitConfig())
        assert sum(m.diagnostics["converged"] for m in path) >= 10
        _, path = tune_lambda(data.dataset, FitConfig(fit_g=False))
        assert all(m.diagnostics["converged"] for m in path)

    def test_outer_cap_reports_not_converged(self):
        data = simulate_dataset(SimConfig(seed=1), 0)
        model = fit(data.dataset, FitConfig(max_outer=2), 0.5)
        assert model.diagnostics["converged"] is False
        assert model.diagnostics["outer_iters"] == 2

    @pytest.mark.parametrize("lam", [-0.1, np.inf, np.nan])
    def test_rejects_bad_lambda_before_training(self, lam, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("the network was trained")

        monkeypatch.setattr("dplc.estimator.adam_fit", no_training)
        data = sim_data(1, n=60, p=4)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            fit(data.dataset, quick_cfg(), lam)

    def test_loss_path_penalizes_the_standardized_beta(self):
        # Coordinate descent penalizes beta * scale, so rescaling the x
        # columns leaves the objective, and with it the loss path, alone.
        ds = simulate_dataset(SimConfig(seed=1), 0).dataset
        rescaled = make_dataset(ds.times, ds.status,
                                x=ds.x * np.geomspace(0.01, 100, ds.p), z=ds.z)
        a = fit(ds, FitConfig(seed=1), 0.1)
        b = fit(rescaled, FitConfig(seed=1), 0.1)
        assert np.array_equal(a.support, b.support)
        assert a.diagnostics["outer_iters"] == b.diagnostics["outer_iters"]
        assert b.diagnostics["loss_path"] == pytest.approx(
            a.diagnostics["loss_path"], rel=1e-12)

    def test_arch_mismatch_rejected(self):
        data = sim_data(1, n=60, p=4, r=8)
        net = init_network(NetworkArch((4,), 0.0), 5, seed=0)
        with pytest.raises(ValueError, match=r"takes 5 .* r=8"):
            fit(data.dataset, quick_cfg(), LAM, net_init=net)

    @pytest.mark.parametrize("gamma", [0.0, -0.01, float("nan"),
                                       float("inf")])
    def test_config_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            FitConfig(gamma=gamma)

    def test_config_rejects_bad_lambda_grid(self):
        for grid in ([], [0.5, 0.1]):
            with pytest.raises(ValueError, match="non-empty and ascending"):
                FitConfig(lambda_grid=grid)
        for grid in ([-0.1, 0.5], [0.1, np.inf], [np.nan]):
            with pytest.raises(ValueError, match="finite and >= 0"):
                FitConfig(lambda_grid=grid)

    def test_config_stores_lambda_grid_as_float_tuple(self):
        cfg = FitConfig(lambda_grid=[0, np.float64(0.5), 2])
        assert cfg.lambda_grid == (0.0, 0.5, 2.0)
        assert all(type(lam) is float for lam in cfg.lambda_grid)
        default = FitConfig().lambda_grid
        assert len(default) == 12 and (default[0], default[-1]) == (0.05, 5.0)


class TestPredictEta:
    def test_null_model_predicts_zero(self):
        model = FittedModel(beta_hat=np.zeros(3), net=zero_network(2),
                            lam=None, diagnostics={})
        assert np.all(predict_eta(model, np.ones((5, 3)), np.ones((5, 2))) == 0.0)

    def test_monotone_in_positive_coefficient(self):
        data = sim_data(2, n=150, p=6, s_beta=2)
        model = fit(data.dataset, quick_cfg(), 0.05)
        j = int(model.support[np.argmax(model.beta_hat[model.support])])
        assert model.beta_hat[j] > 0
        x = data.dataset.x[:3].copy()
        x[:, j] = np.abs(x[:, j]) + 0.5  # positive feature values
        z = data.dataset.z[:3]
        eta1 = predict_eta(model, x, z)
        x2 = x.copy()
        x2[:, j] *= 2.0
        eta2 = predict_eta(model, x2, z)
        assert np.all(eta2 > eta1)

    def test_ranking_invariant_to_centering(self):
        data = sim_data(4, n=100, p=5, s_beta=2)
        model = fit(data.dataset, quick_cfg(), LAM)
        eta1 = predict_eta(model, data.dataset.x, data.dataset.z)
        model.net.center_offset += 3.7
        eta2 = predict_eta(model, data.dataset.x, data.dataset.z)
        assert np.array_equal(np.argsort(eta1), np.argsort(eta2))

    def test_dimension_mismatch(self):
        model = FittedModel(beta_hat=np.zeros(3), net=zero_network(2),
                            lam=None, diagnostics={})
        with pytest.raises(ValueError):
            predict_eta(model, np.ones((2, 4)), np.ones((2, 2)))


class TestBic:
    def test_matches_formula(self):
        data = sim_data(6, n=100, p=6, s_beta=2)
        model = fit(data.dataset, quick_cfg(), 0.1)
        ds = data.dataset
        eta = predict_eta(model, ds.x, ds.z)
        q = cox_terms(eta, ds)[0]
        assert model.n_selected > 0
        expected = 2.0 * ds.n * q + np.log(ds.n) * model.n_selected
        assert model.diagnostics["bic"] == expected

    def test_arithmetic_example(self):
        # average log partial likelihood -0.5, n=100, 3 selected
        assert -2 * 100 * (-0.5) + 3 * np.log(100) == pytest.approx(113.8155,
                                                                    abs=1e-4)

    def test_zero_support_is_pure_likelihood(self):
        data = sim_data(8, n=80, p=5, s_beta=0)
        model = fit(data.dataset, quick_cfg(), 5.0)
        assert model.support.size == 0
        ds = data.dataset
        eta = predict_eta(model, ds.x, ds.z)
        q = cox_terms(eta, ds)[0]
        assert model.diagnostics["bic"] == 2.0 * ds.n * q


class TestTuneLambda:
    def test_single_value_grid(self):
        data = sim_data(1, n=80, p=4)
        best, path = tune_lambda(data.dataset, quick_cfg(lambda_grid=[0.3]))
        assert best.lam == 0.3 and len(path) == 1 and path[0] is best

    def test_path_holds_the_fitted_models_in_grid_order(self):
        data = sim_data(1, n=80, p=4)
        cfg = quick_cfg(max_outer=3, lambda_grid=[0.1, 0.3])
        best, path = tune_lambda(data.dataset, cfg)
        assert [m.lam for m in path] == [0.1, 0.3]
        assert any(m is best for m in path)
        cold = fit(data.dataset, cfg, 0.1)
        assert np.array_equal(path[0].beta_hat, cold.beta_hat)

    def test_logs_one_line_per_lambda(self, caplog):
        # The fit at 1.0 is the first converged null fit, so the last two
        # grid points reuse it and show that no fit ran.
        data = sim_data(1, n=80, p=4)
        with caplog.at_level(logging.INFO, logger="dplc.estimator"):
            _, path = tune_lambda(data.dataset, quick_cfg(
                lambda_grid=NULL_TAIL_GRID))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "dplc.estimator"]
        assert len(lines) == len(NULL_TAIL_GRID)
        for line, model in zip(lines, path):
            info = model.diagnostics
            assert line.startswith(
                "lambda=%g selected=%d bic=%.6g outer_iters=%d converged=%s "
                "seconds=" % (model.lam, model.n_selected, info["bic"],
                              info["outer_iters"], info["converged"]))
        null = path[2]
        assert null.n_selected == 0 and null.diagnostics["converged"]
        assert null.diagnostics["outer_iters"] > 0
        for model in path[3:]:
            assert model.diagnostics == {
                "loss_path": null.diagnostics["loss_path"][-1:],
                "outer_iters": 0, "cd_sweeps": [],
                "converged": null.diagnostics["converged"],
                "bic": null.diagnostics["bic"]}

    def test_reused_entries_are_separate_models(self):
        data = sim_data(1, n=80, p=4)
        _, path = tune_lambda(data.dataset, quick_cfg(
            lambda_grid=NULL_TAIL_GRID))
        assert [m.lam for m in path] == list(NULL_TAIL_GRID)
        before = [(m.beta_hat.copy(), m.net.params.copy(),
                   m.net.center_offset) for m in path]
        path[3].beta_hat[0] = 1.0
        path[3].net.center_offset += 1.0
        path[3].net.params += 1.0
        for k, (beta, params, offset) in enumerate(before):
            if k != 3:
                assert np.array_equal(path[k].beta_hat, beta)
                assert np.array_equal(path[k].net.params, params)
                assert path[k].net.center_offset == offset

    def test_unconverged_null_fit_is_not_reused(self, monkeypatch):
        # One outer iteration never reaches the stable window, so no fit
        # converges and every grid point is fitted, null or not.
        data = sim_data(1, n=80, p=4)
        fits = []

        def counted(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(estimator, "fit", counted)
        _, path = tune_lambda(data.dataset, quick_cfg(
            max_outer=1, lambda_grid=NULL_TAIL_GRID))
        assert len(fits) == len(NULL_TAIL_GRID)
        assert all(a is b for a, b in zip(fits, path))
        assert path[2].n_selected == 0
        assert not path[2].diagnostics["converged"]

    def test_repeated_lambda_returns_bic_minimizer(self):
        # Warm starts keep moving the fit, so a repeated lambda gives
        # different BICs; the chosen entry is the minimizer, not the
        # first entry with the chosen lambda.
        data = sim_data(0, n=100, p=5)
        best, path = tune_lambda(data.dataset, quick_cfg(
            max_outer=3, lambda_grid=[0.1, 0.1, 0.1]))
        bics = [m.diagnostics["bic"] for m in path]
        assert len(set(bics)) == 3
        assert best is path[int(np.argmin(bics))]

    def test_tie_broken_toward_larger_lambda(self):
        # With no events every fit is null and all BIC values tie.
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0],
                          x=np.eye(4)[:, :3],
                          z=np.linspace(0, 1, 8).reshape(4, 2))
        best, path = tune_lambda(ds, quick_cfg(lambda_grid=[0.1, 0.5, 2.0]))
        assert len({m.diagnostics["bic"] for m in path}) == 1
        assert best is path[-1]

    def test_null_signal_selects_sparse_models(self):
        wins = 0
        for seed in range(20):
            cfg_sim = SimConfig(n=300, p=20, r=8, s_beta=0, g0_kind="zero",
                                seed=300 + seed)
            data = simulate_dataset(cfg_sim, 0)
            _, path = tune_lambda(data.dataset, quick_cfg(
                hidden=(4,), seed=seed,
                lambda_grid=(0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)))
            low = min(m.diagnostics["bic"] for m in path)
            chosen = max((m for m in path if m.diagnostics["bic"] == low),
                         key=lambda m: m.lam)
            if chosen.n_selected <= 2:
                wins += 1
        assert wins >= 18

    def test_bic_minimum_usually_interior(self):
        interior = 0
        runs = 8
        grid = (0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
        for seed in range(runs):
            cfg_sim = SimConfig(n=250, p=20, r=8, s_beta=4, g0_kind="linear",
                                seed=600 + seed)
            data = simulate_dataset(cfg_sim, 0)
            best, _ = tune_lambda(data.dataset,
                                  quick_cfg(seed=seed, lambda_grid=grid))
            if grid[0] < best.lam < grid[-1]:
                interior += 1
        assert interior > runs / 2

    def test_warm_path_mostly_matches_cold_fits(self):
        # Audited over the BIC-active penalty range; at larger penalties the
        # nonconvex path shows genuine hysteresis between warm and cold runs.
        agree, total = 0, 0
        grid = (0.05, 0.1, 0.2, 0.4)
        for seed in range(6):
            data = sim_data(40 + seed, n=300, p=10, s_beta=2)
            cfg = quick_cfg(seed=seed, lambda_grid=grid)
            _, path = tune_lambda(data.dataset, cfg)
            for model in path:
                cold = fit(data.dataset, cfg, model.lam)
                total += 1
                if np.array_equal(model.support, cold.support):
                    agree += 1
        assert agree / total >= 0.9


class TestTuneArchitecture:
    def test_single_cell_grid(self):
        data = sim_data(2, n=100, p=5)
        cfg = quick_cfg(seed=5)
        best, table = tune_architecture(data.dataset, [2], [4], [0.0], [0.01],
                                        cfg)
        # the winning cell's config is cfg with only arch and gamma set
        assert best == replace(cfg, arch=NetworkArch((4, 4), 0.0),
                               gamma=0.01)
        assert len(table) == 1

    def test_tie_break_prefers_smaller_network(self):
        # No events: every cell scores an identical (zero) likelihood.
        n = 15
        ds = make_dataset(np.arange(1.0, n + 1.0), [0] * n,
                          x=np.arange(n, dtype=float).reshape(n, 1),
                          z=np.linspace(0, 1, 2 * n).reshape(n, 2))
        best, table = tune_architecture(ds, [2, 1], [8, 2], [0.0], [0.01],
                                        quick_cfg())
        assert best.arch.hidden_widths == (2,)
        # one row per cell, in the sorted scan order
        assert [(row["depth"], row["width"]) for row in table] == \
            [(1, 2), (1, 8), (2, 2), (2, 8)]

    def test_cells_are_fitted_at_the_bic_pick(self):
        # Every cell is fitted at the lam that BIC picks along the grid on
        # the search's training split, where the default data select
        # features; a lam above lambda_max would leave every beta at zero.
        data = simulate_dataset(SimConfig(seed=0), 0)
        _, table = tune_architecture(data.dataset, [1], [2, 4], [0.3],
                                     [0.01], FitConfig(seed=0))
        assert len(table) == 2
        assert all(row["lam"] in FitConfig().lambda_grid for row in table)
        assert all(row["selected"] >= 1 for row in table)

    def test_linear_truth_prefers_shallow(self):
        shallow = 0
        runs = 20
        for seed in range(runs):
            cfg_sim = SimConfig(n=200, p=8, r=8, s_beta=2, g0_kind="linear",
                                seed=900 + seed)
            data = simulate_dataset(cfg_sim, 0)
            best, _ = tune_architecture(data.dataset, [1, 2, 3], [4], [0.0],
                                        [0.02], quick_cfg(seed=seed))
            if len(best.arch.hidden_widths) <= 2:
                shallow += 1
        assert shallow > runs / 2


class TestPersistence:
    def test_round_trip(self):
        data = sim_data(12, n=120, p=8, s_beta=2)
        cfg = quick_cfg(dropout=0.3)
        model = fit(data.dataset, cfg, 0.1)
        blob = json.dumps(model_to_dict(model, cfg,
                                        x_names=[f"x_{j}" for j in range(8)],
                                        z_names=[f"z_{k}" for k in range(8)]))
        back = model_from_dict(json.loads(blob))
        assert back.lam == model.lam == 0.1
        assert np.array_equal(back.beta_hat, model.beta_hat)
        assert np.array_equal(back.support, model.support)
        eta_a = predict_eta(model, data.dataset.x, data.dataset.z)
        eta_b = predict_eta(back, data.dataset.x, data.dataset.z)
        assert np.array_equal(eta_a, eta_b)

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "nope"})

    def test_rejects_missing_columns_before_allocating_p(self):
        data = sim_data(12, n=120, p=8, s_beta=2)
        cfg = quick_cfg()
        record = model_to_dict(fit(data.dataset, cfg, 0.1), cfg,
                               x_names=[f"x_{j}" for j in range(8)],
                               z_names=[f"z_{k}" for k in range(8)])
        del record["columns"]
        record["p"] = 10 ** 13
        with pytest.raises(ValueError, match="lacks column names"):
            model_from_dict(record)
