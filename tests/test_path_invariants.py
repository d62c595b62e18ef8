"""Properties of the default lambda path that hold for any correct solver.

Stationarity: every converged fit satisfies the SCAD subgradient (KKT)
conditions on the standardized scale, and no coordinate descent call of
either method's path runs out of sweeps.  The null tail: every entry from
the first converged null fit on is stationary at its own lambda, and the
entries up to that fit are those of a plain chained fit loop.
Invariances: the order of x's columns and a monotone transform of the
times do not change the fit, and a row permutation of the data leaves
both methods' paths bit for bit the same.  All run on
`simulate_dataset(SimConfig(seed=s), 0)`, n = 300, p = 50, at seeds 1-3.
"""

from functools import lru_cache

import numpy as np
import pytest

from dplc import (FitConfig, SimConfig, SurvivalDataset, cd_fit, cox_terms,
                  estimator, forward, simulate_dataset, tune_lambda)
from dplc.scad import SCAD_A

SEEDS = (1, 2, 3)
BASELINE = FitConfig(fit_g=False)


def default_data(seed):
    return simulate_dataset(SimConfig(seed=seed), 0).dataset


@lru_cache(maxsize=None)
def recorded_path(seed, cfg):
    """tune_lambda(default_data(seed), cfg)'s (best, path), and every
    cd_fit call's info dict in order."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs.setdefault("info", {}))
        return cd_fit(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "cd_fit", recorded)
        best, path = tune_lambda(default_data(seed), cfg)
    return best, path, calls


def rebuilt(ds, rows=slice(None), cols=slice(None), times=None):
    return SurvivalDataset(times=ds.times[rows] if times is None else times,
                           status=ds.status[rows], x=ds.x[rows][:, cols],
                           z=ds.z[rows])


def scad_derivative(t, lam):
    """p'(t) for t >= 0."""
    if t <= lam:
        return lam
    return max(SCAD_A * lam - t, 0.0) / (SCAD_A - 1.0)


def kkt_max(ds, beta, lam, g_vals):
    """Largest SCAD subgradient violation at beta, standardized scale.

    With c = -X' grad q at the final eta: |c_j| - lam for a zero
    coefficient, |c_j - p'(|b_j|) sign b_j| for a nonzero one.
    """
    X, scale = ds.standardized
    b = beta * scale
    c = -(cox_terms(X @ b + g_vals, ds)[1] @ X)
    return max(abs(cj) - lam if bj == 0.0
               else abs(cj - np.copysign(scad_derivative(abs(bj), lam), bj))
               for cj, bj in zip(c.tolist(), b.tolist()))


def first_null(path):
    """Index of the path's first converged fit that selects nothing."""
    return next(k for k, m in enumerate(path)
                if m.n_selected == 0 and m.diagnostics["converged"])


def assert_same_up_to(perm, fits, permuted_fits):
    for beta, beta_perm in zip(fits, permuted_fits):
        assert np.array_equal(beta[perm] != 0.0, beta_perm != 0.0)
        assert np.max(np.abs(beta[perm] - beta_perm)) <= 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_converged_baseline_fits_are_stationary(seed):
    ds = default_data(seed)
    _, path, _ = recorded_path(seed, BASELINE)
    converged = [m for m in path if m.diagnostics["converged"]]
    assert converged
    for model in converged:
        assert kkt_max(ds, model.beta_hat, model.lam, 0.0) <= 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_converged_warm_cd_path_at_fixed_network_is_stationary(seed):
    # As tune_lambda's warm path, with g fixed at the dplc pick's network.
    ds = default_data(seed)
    g_vals = forward(recorded_path(seed, FitConfig())[0].net, ds.z)
    beta, converged = None, 0
    for lam in FitConfig().lambda_grid:
        info = {}
        beta = cd_fit(ds, g_vals, beta, lam, info=info)
        if info["converged"]:
            converged += 1
            assert kkt_max(ds, beta, lam, g_vals) <= 1e-4
    assert converged


@pytest.mark.parametrize("fit_g", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_no_cd_call_runs_out_of_sweeps(seed, fit_g):
    calls = recorded_path(seed, FitConfig(seed=seed, fit_g=fit_g))[2]
    assert calls and all(info["converged"] for info in calls)


@pytest.mark.parametrize("fit_g", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_null_tail_is_stationary_at_every_lambda(seed, fit_g):
    # At beta = 0 the KKT residual is max_j |c_j| - lam, with c taken at
    # eta = g-hat of the entry's own network.
    ds = default_data(seed)
    path = recorded_path(seed, FitConfig(seed=seed, fit_g=fit_g))[1]
    tail = path[first_null(path):]
    assert len(tail) > 1
    for model in tail:
        assert not model.beta_hat.any() and model.n_selected == 0
        assert kkt_max(ds, model.beta_hat, model.lam,
                       forward(model.net, ds.z)) <= 0.0


@pytest.mark.parametrize("fit_g", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_path_up_to_the_null_fit_is_the_chained_fit_loop(seed, fit_g):
    ds = default_data(seed)
    cfg = FitConfig(seed=seed, fit_g=fit_g)
    path = recorded_path(seed, cfg)[1]
    beta, net = None, None
    for model in path[:first_null(path) + 1]:
        chained = estimator.fit(ds, cfg, model.lam, beta_init=beta,
                                net_init=net)
        assert np.array_equal(chained.beta_hat, model.beta_hat)
        assert chained.diagnostics["bic"] == model.diagnostics["bic"]
        beta, net = chained.beta_hat, chained.net


@pytest.mark.parametrize("seed", SEEDS)
def test_baseline_null_tail_matches_warm_fits(seed):
    ds = default_data(seed)
    path = recorded_path(seed, BASELINE)[1]
    tail = path[first_null(path):]
    assert len(tail) > 1
    for prev, model in zip(tail, tail[1:]):
        warm = estimator.fit(ds, BASELINE, model.lam,
                             beta_init=prev.beta_hat, net_init=prev.net)
        assert np.array_equal(warm.beta_hat, model.beta_hat)
        assert warm.diagnostics["bic"] == model.diagnostics["bic"]


@pytest.mark.parametrize("seed", SEEDS)
def test_baseline_path_ignores_column_order(seed):
    ds = default_data(seed)
    perm = np.random.default_rng(seed).permutation(ds.p)
    fits = [m.beta_hat for m in recorded_path(seed, BASELINE)[1]]
    permuted = [m.beta_hat
                for m in tune_lambda(rebuilt(ds, cols=perm), BASELINE)[1]]
    assert_same_up_to(perm, fits, permuted)


@pytest.mark.parametrize("seed", SEEDS)
def test_warm_cd_path_at_fixed_network_ignores_column_order(seed):
    # The network is fixed at the dplc pick's, so only coordinate descent
    # sees the permuted columns; the path is warm-started as tune_lambda's.
    ds = default_data(seed)
    cfg = FitConfig()
    g_vals = forward(recorded_path(seed, cfg)[0].net, ds.z)
    perm = np.random.default_rng(seed).permutation(ds.p)
    permuted_ds = rebuilt(ds, cols=perm)
    beta = beta_perm = None
    fits, permuted = [], []
    for lam in cfg.lambda_grid:
        beta = cd_fit(ds, g_vals, beta, lam)
        beta_perm = cd_fit(permuted_ds, g_vals, beta_perm, lam)
        fits.append(beta)
        permuted.append(beta_perm)
    assert_same_up_to(perm, fits, permuted)


@pytest.mark.parametrize("seed", SEEDS)
def test_baseline_path_ignores_row_order_and_monotone_times(seed):
    ds = default_data(seed)
    rows = np.random.default_rng(seed).permutation(ds.n)
    fits = [m.beta_hat for m in recorded_path(seed, BASELINE)[1]]
    shuffled = tune_lambda(rebuilt(ds, rows=rows), BASELINE)[1]
    logged = tune_lambda(rebuilt(ds, times=np.log1p(ds.times)), BASELINE)[1]
    for beta, row_fit, log_fit in zip(fits, shuffled, logged):
        assert np.array_equal(beta, row_fit.beta_hat)
        assert np.array_equal(beta, log_fit.beta_hat)


@pytest.mark.parametrize("fit_g", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_path_is_bit_equal_on_permuted_rows(seed, fit_g):
    # Dropout masks are drawn per stored row, so a dplc path depends on
    # the rows' order unless the dataset fixes it.
    ds = default_data(seed)
    cfg = FitConfig(seed=seed, fit_g=fit_g)
    rows = np.random.default_rng(seed).permutation(ds.n)
    path = recorded_path(seed, cfg)[1]
    shuffled = tune_lambda(rebuilt(ds, rows=rows), cfg)[1]
    assert len(path) == len(shuffled)
    for model, row_fit in zip(path, shuffled):
        assert np.array_equal(model.beta_hat, row_fit.beta_hat)
        for key in ("bic", "converged"):
            assert model.diagnostics[key] == row_fit.diagnostics[key]
        assert model.lam == row_fit.lam
