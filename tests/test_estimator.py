"""Alternating estimator, BIC tuning, and model persistence."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from dplc import (FitConfig, NetworkArch, SimConfig,
                  cd_fit, estimator, fit, forward, init_network,
                  model_from_dict, model_to_dict, predict_eta,
                  simulate_dataset, tune_architecture, tune_lambda,
                  zero_network)
from dplc import network
from dplc.estimator import FittedModel
from dplc.survival import cox_terms

from conftest import make_dataset, replay_tune_lambda


LAM = 0.15  # the penalty strength of the single fits below
# sim_data(1, n=80, p=4)'s path at quick_cfg() selects nothing from 1.0 on
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

    def test_default_path_converges(self):
        data = simulate_dataset(SimConfig(seed=1), 0)
        _, path = tune_lambda(data.dataset, FitConfig())
        assert sum(m.diagnostics["converged"] for m in path) >= 10
        _, path = tune_lambda(data.dataset, FitConfig(arch=None))
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

    def test_baseline_config_is_rejected_before_any_call(self, monkeypatch):
        def no_call(*args, **kwargs):
            raise AssertionError("fit ran a step")

        monkeypatch.setattr("dplc.estimator.adam_fit", no_call)
        monkeypatch.setattr("dplc.estimator.cd_fit", no_call)
        data = sim_data(1, n=60, p=4)
        with pytest.raises(ValueError, match="tune_lambda"):
            fit(data.dataset, replace(quick_cfg(), arch=None), LAM)

    @pytest.mark.filterwarnings("error")
    def test_rejects_finite_start_whose_predictor_overflows(self):
        # As cd_fit's own check: beta_init is finite, x @ beta is not.
        data = sim_data(1, n=60, p=5)
        with pytest.raises(ValueError, match="^non-finite predictor$"):
            fit(data.dataset, quick_cfg(), LAM, beta_init=np.full(5, 1e308))

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_start_fits_without_warning(self):
        # As cd_fit's own case: x @ beta is finite, the first CD step huge.
        ds = simulate_dataset(SimConfig(n=50, p=5, s_beta=2, seed=1),
                              0).dataset
        model = fit(ds, FitConfig(), 0.1, beta_init=np.full(5, 1e300))
        assert np.isfinite(model.beta_hat).all()
        assert model.diagnostics["outer_iters"] >= 1

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
    @pytest.mark.parametrize("max_sweeps", [1, 100])
    def test_baseline_is_one_cd_call_per_lambda(self, max_sweeps,
                                                monkeypatch):
        # g = 0: no network is trained and no alternating fit runs.
        def no_call(*args, **kwargs):
            raise AssertionError("the baseline ran a fit")

        calls = []

        def recorded_cd_fit(*args, **kwargs):
            calls.append((args, kwargs.setdefault("info", {})))
            return cd_fit(*args, **kwargs)

        monkeypatch.setattr("dplc.estimator.adam_fit", no_call)
        monkeypatch.setattr("dplc.estimator.fit", no_call)
        monkeypatch.setattr("dplc.estimator.cd_fit", recorded_cd_fit)
        ds = simulate_dataset(SimConfig(n=100, p=10, seed=1), 0).dataset
        cfg = FitConfig(arch=None, max_sweeps=max_sweeps)
        best, path = tune_lambda(ds, cfg)
        assert len(calls) == len(path) == len(cfg.lambda_grid)
        beta = None
        for model, (args, info) in zip(path, calls):
            assert not args[1].any()
            assert args[3] == model.lam
            beta = cd_fit(ds, np.zeros(ds.n), beta, model.lam,
                          max_sweeps=max_sweeps)
            assert model.beta_hat.tobytes() == beta.tobytes()
            diag = model.diagnostics
            assert diag["cd_sweeps"] == [info["sweeps"]]
            assert diag["converged"] is info["converged"]
        # The first call moves beta off zero, so one sweep cannot settle it.
        flags = [info["converged"] for _, info in calls]
        assert flags[0] is (max_sweeps == 100)
        assert max_sweeps == 1 or all(flags)
        assert any(best is model for model in path)

    def test_baseline_ignores_z(self):
        data = sim_data(9, n=150, p=8)
        best, _ = tune_lambda(data.dataset, replace(quick_cfg(), arch=None))
        assert best.n_selected > 0
        x = np.random.default_rng(9).standard_normal((4, 8))
        for z in (np.zeros((4, 8)), np.ones((4, 8))):
            assert np.array_equal(predict_eta(best, x, z), x @ best.beta_hat)

    def test_single_value_grid(self):
        # The path is the one chain entry; best is the alternating fit at
        # its lam, except for the baseline, whose entry is the answer.
        data = sim_data(1, n=80, p=4)
        best, path = tune_lambda(data.dataset, quick_cfg(lambda_grid=[0.3]))
        assert best.lam == path[0].lam == 0.3 and len(path) == 1
        assert best.diagnostics["outer_iters"] >= 1
        best, path = tune_lambda(data.dataset, replace(
            quick_cfg(lambda_grid=[0.3]), arch=None))
        assert best.lam == 0.3 and len(path) == 1 and path[0] is best

    def test_path_holds_the_fitted_models_in_grid_order(self):
        # Each entry is the chained cd_fit call at its round's network,
        # and carries that network.
        ds = sim_data(1, n=80, p=4).dataset
        cfg = quick_cfg(max_outer=3, lambda_grid=[0.1, 0.3])
        _, path = tune_lambda(ds, cfg)
        _, entries, nets = replay_tune_lambda(ds, cfg)
        assert [m.lam for m in path] == [0.1, 0.3]
        g_vals = forward(nets[-1], ds.z)
        beta = None
        for model, (lam, beta_ref, bic) in zip(path, entries):
            assert np.array_equal(model.net.params, nets[-1].params)
            assert np.array_equal(forward(model.net, ds.z), g_vals)
            info = {}
            beta = cd_fit(ds, g_vals, beta, model.lam,
                          max_sweeps=cfg.max_sweeps, info=info)
            assert np.array_equal(model.beta_hat, beta)
            assert np.array_equal(beta, beta_ref)
            assert model.diagnostics == {"cd_sweeps": [info["sweeps"]],
                                         "converged": info["converged"],
                                         "bic": bic}

    def test_logs_one_line_per_lambda(self, caplog):
        # One line per grid value of the path, and one labelled line each
        # for the pilot and each alternating fit at a pick.
        data = sim_data(1, n=80, p=4)
        cfg = quick_cfg(lambda_grid=NULL_TAIL_GRID)
        with caplog.at_level(logging.INFO, logger="dplc.estimator"):
            best, path = tune_lambda(data.dataset, cfg)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "dplc.estimator"]
        entries = [line for line in lines if line.startswith("lambda=")]
        assert len(entries) == len(NULL_TAIL_GRID)
        for line, model in zip(entries, path):
            info = model.diagnostics
            assert line.startswith(
                "lambda=%g selected=%d bic=%.6g sweeps=%d converged=%s "
                "seconds=" % (model.lam, model.n_selected, info["bic"],
                              info["cd_sweeps"][0], info["converged"]))
        labelled = [line for line in lines if line not in entries]
        assert labelled[0].startswith("pilot lambda=1000 selected=0 bic=")
        assert labelled[1].startswith("round 1 fit lambda=")
        assert lines.index(labelled[1]) == 1  # round 1's chain is DEBUG
        info = best.diagnostics
        assert labelled[-1].startswith(
            "round %d fit lambda=%g selected=%d bic=%.6g outer_iters=%d "
            "converged=%s seconds=" % (len(labelled) - 1, best.lam,
                                       best.n_selected, info["bic"],
                                       info["outer_iters"], info["converged"]))
        assert len(labelled) in (2, 3)

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
        # No entry reuses another: every grid value of both chains gets
        # its own cd_fit call, the null tail included.  One outer
        # iteration never reaches the stable window, so the pilot and
        # each alternating fit are unconverged, and fits_not_converged
        # counts them with the unconverged chain entries.
        data = sim_data(1, n=80, p=4)
        fits, calls = [], []

        def counted(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        def recorded(*args, **kwargs):
            calls.append(kwargs.setdefault("info", {}))
            return cd_fit(*args, **kwargs)

        monkeypatch.setattr(estimator, "fit", counted)
        monkeypatch.setattr(estimator, "cd_fit", recorded)
        info = {}
        best, path = tune_lambda(data.dataset, quick_cfg(
            max_outer=1, lambda_grid=NULL_TAIL_GRID), info=info)
        assert fits[0].lam == estimator.PILOT_LAM and best is fits[-1]
        assert len(fits) in (2, 3)
        assert not any(m.diagnostics["converged"] for m in fits)
        # the calls: the pilot's, chain 1, round 1's fit, chain 2 and, if
        # round 2 refits, its fit's, one each per alternating fit
        k = len(NULL_TAIL_GRID)
        assert len(calls) == 2 * k + len(fits)
        chains = calls[1:k + 1] + calls[k + 2:2 * k + 2]
        assert [m.diagnostics["cd_sweeps"] for m in path] == \
            [[c["sweeps"]] for c in chains[k:]]
        assert path[-1].n_selected == 0 and path[-1].diagnostics["converged"]
        assert info["fits_not_converged"] == len(fits) + sum(
            not c["converged"] for c in chains)

    def test_repeated_lambda_returns_bic_minimizer(self):
        # A repeated lambda continues the chain from its own last fit, and
        # the fit at the pick starts from the BIC minimizer among them
        # (the later of equal BICs), as the replay does.
        ds = sim_data(0, n=100, p=5).dataset
        cfg = quick_cfg(max_outer=3, lambda_grid=[0.1, 0.1, 0.1])
        best, path = tune_lambda(ds, cfg)
        replayed, entries, _ = replay_tune_lambda(ds, cfg)
        assert [m.diagnostics["bic"] for m in path] == \
            [bic for _, _, bic in entries]
        assert best.lam == 0.1
        assert np.array_equal(best.beta_hat, replayed.beta_hat)
        assert np.array_equal(best.net.params, replayed.net.params)
        assert best.diagnostics == replayed.diagnostics

    def test_tie_broken_toward_larger_lambda(self):
        # With no events every entry is null and all BIC values tie.
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0],
                          x=np.eye(4)[:, :3],
                          z=np.linspace(0, 1, 8).reshape(4, 2))
        dplc = quick_cfg(lambda_grid=[0.1, 0.5, 2.0])
        for method, cfg in {"dplc": dplc,
                            "cox_scad": replace(dplc, arch=None)}.items():
            best, path = tune_lambda(ds, cfg)
            assert len({m.diagnostics["bic"] for m in path}) == 1
            assert best.lam == 2.0 and (method == "dplc" or best is path[-1])

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
        # The chain at its round's fixed network against cold cd_fit calls
        # at the same network.  Audited over the BIC-active penalty range;
        # at larger penalties the nonconvex path shows genuine hysteresis
        # between warm and cold runs.
        agree, total = 0, 0
        grid = (0.05, 0.1, 0.2, 0.4)
        for seed in range(6):
            ds = sim_data(40 + seed, n=300, p=10, s_beta=2).dataset
            cfg = quick_cfg(seed=seed, lambda_grid=grid)
            _, path = tune_lambda(ds, cfg)
            for model in path:
                cold = cd_fit(ds, forward(model.net, ds.z), None, model.lam,
                              max_sweeps=cfg.max_sweeps)
                total += 1
                if np.array_equal(model.support, np.flatnonzero(cold)):
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
