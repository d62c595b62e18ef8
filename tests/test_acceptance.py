"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy scenarios are
desk-scale replications (smaller p and replicate counts than the original
benchmark tables), checked as trends against their stated thresholds.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from dplc import (FitConfig, NetworkArch, SimConfig, cd_fit, cox_terms,
                  forward, init_network, run_experiment, scad_threshold,
                  simulate_dataset)
from dplc.cli import main as cli_main

from conftest import (decimal_hessian_diag, fd_close, fd_gradient,
                      naive_neg_log_pl, random_instance, train_pass)
from test_coordinate_descent import newton_1d, sim_cox
from test_scad import brute_force_threshold

MASTER_SEED = 20250809
LAMBDA_GRID = (0.05, 0.08, 0.12, 0.19, 0.3, 0.48, 0.76, 1.2, 1.9, 3.0, 5.0)


def desk_cfg(hidden=(8, 8), dropout=0.3, lr=0.02, inner=20, outer=15):
    return FitConfig(lambda_grid=LAMBDA_GRID,
                     arch=NetworkArch(hidden, dropout),
                     gamma=lr,
                     inner_steps=inner, max_outer=outer, seed=0)


def report(name, ok, detail):
    print("%s  %s  (%s)" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


def test_gradient_suite():
    """Analytic d q / d eta and d q / d theta vs central differences."""
    start = time.time()
    worst_note = "all within tolerance"
    ok = True
    rng = np.random.default_rng(MASTER_SEED)
    for case in range(20):
        n = int(rng.integers(10, 51))
        r = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 3))
        width = int(rng.integers(2, 9))
        ds, eta = random_instance(int(rng.integers(0, 2 ** 31)), n=n, p=2, r=r)

        grad = cox_terms(eta, ds)[1]
        fd = fd_gradient(lambda e: naive_neg_log_pl(ds.times, ds.status, e),
                         eta, step=1e-6)
        if not fd_close(grad, fd, rtol=1e-5, atol=1e-8):
            ok, worst_note = False, "eta gradient mismatch on case %d" % case
            break

        net = init_network(NetworkArch((width,) * depth, 0.0), r,
                           seed=case)
        beta = rng.standard_normal(ds.p) * 0.5
        _, grads = train_pass(net, ds, beta)

        def loss_with(net_mod):
            g = forward(net_mod, ds.z)
            return naive_neg_log_pl(ds.times, ds.status, ds.x @ beta + g)

        step = 1e-6
        for l in range(len(net.weights)):
            gw, gb = grads[l]
            for r_i in range(net.weights[l].shape[0]):
                for c_i in range(net.weights[l].shape[1]):
                    probe = net.copy()
                    probe.weights[l][r_i, c_i] += step
                    up = loss_with(probe)
                    probe.weights[l][r_i, c_i] -= 2 * step
                    down = loss_with(probe)
                    if not fd_close(gw[r_i, c_i], (up - down) / (2 * step)):
                        ok = False
                        worst_note = "theta gradient mismatch case %d" % case
            if not ok:
                break
        if not ok:
            break
    elapsed = time.time() - start
    report("gradient-suite", ok and elapsed < 60.0,
           "%s; %.1fs" % (worst_note, elapsed))


def test_scad_operator_oracle():
    """Thresholding equals grid+refinement minimizer at v=1, a=3.7."""
    start = time.time()
    worst = 0.0
    for lam in (0.1, 0.5, 1.0):
        for h in np.arange(-6.0, 6.0 + 1e-9, 0.05):
            expected = brute_force_threshold(float(h), 1.0, lam)
            worst = max(worst, abs(scad_threshold(float(h), 1.0, lam)
                                   - expected))
    elapsed = time.time() - start
    report("scad-operator-oracle", worst < 1e-6 and elapsed < 10.0,
           "max |dev| = %.2e; %.1fs" % (worst, elapsed))


def test_partial_likelihood_properties():
    """Shift invariance, zero score sum, nonnegative FD-matching curvature."""
    shift_worst = score_worst = w_min = 0.0
    hess_worst = 0.0
    for seed in range(12):
        ds, eta = random_instance(seed + MASTER_SEED, n=None)
        q0, grad, W = cox_terms(eta, ds)
        for c in (-3.0, 11.0):
            shift_worst = max(shift_worst, abs(
                cox_terms(eta + c, ds)[0] - q0))
        score_worst = max(score_worst, abs(grad.sum()))
        w_min = min(w_min, float(W.min()))
        fd = decimal_hessian_diag(ds.times, ds.status, eta)
        denom = np.maximum(np.abs(fd), 1e-4)
        hess_worst = max(hess_worst, float(np.max(np.abs(W - fd) / denom)))
    ok = shift_worst < 1e-12 and score_worst < 1e-12 \
        and w_min >= -1e-12 and hess_worst < 1e-10
    report("partial-likelihood-properties", ok,
           "shift %.1e, score %.1e, minW %.1e, hessdev %.1e"
           % (shift_worst, score_worst, w_min, hess_worst))


def test_unpenalized_newton_equivalence():
    """p=1, lambda=0, g fixed: coordinate descent equals scalar Newton."""
    worst = 0.0
    for seed in range(20):
        ds, g = sim_cox(seed + 7000, n=50, p=1, beta_true=[0.9], g_scale=0.4)
        beta = cd_fit(ds, g, None, 0.0, tol=1e-9, max_sweeps=300)
        worst = max(worst, abs(beta[0] - newton_1d(ds, g)))
    report("unpenalized-newton-equivalence", worst < 1e-3,
           "max |dev| = %.2e over 20 seeds" % worst)


# The slow scenarios' configs and statistics, one function each, taking
# the master seed.  The tests call them at MASTER_SEED, and
# tools/bench_acceptance.py at MASTER_SEED + 0..4 to record their spread.

def null_calibration(seed):
    """Pure-noise data: median test C of dplc and replicates that finished."""
    sim = SimConfig(n=300, p=50, r=8, s_beta=0, g0_kind="zero",
                    replicates=20, seed=seed)
    rows, _ = run_experiment(sim, {"dplc": desk_cfg()})
    cs = [r.c_index_test for r in rows if r.error is None]
    return {"median_c": float(np.median(cs)), "replicates_ok": len(cs)}


def linear_truth_desk(seed):
    """Linear truth: median test C, mean FNR (%) and replicates finished."""
    sim = SimConfig(n=500, p=100, r=8, s_beta=10, g0_kind="linear",
                    replicates=20, seed=seed)
    rows, _ = run_experiment(sim, {"dplc": desk_cfg()})
    good = [r for r in rows if r.error is None]
    return {"median_c": float(np.median([r.c_index_test for r in good])),
            "mean_fnr_pct": float(np.mean([r.fnr_pct for r in good])),
            "replicates_ok": len(good)}


def nonlinear_ordering(seed):
    """Nonlinear truth: median test C of dplc and of the g == 0 baseline,
    and their gap."""
    sim = SimConfig(n=500, p=100, r=8, s_beta=10, g0_kind="nonlinear",
                    replicates=10, seed=seed)
    cfg = desk_cfg(hidden=(16, 16), outer=20)
    methods = {"dplc": cfg, "cox_scad": replace(cfg, arch=None)}
    rows, _ = run_experiment(sim, methods)
    med = {}
    for name in methods:
        med[name] = float(np.median([r.c_index_test for r in rows
                                     if r.method == name and r.error is None]))
    med["gap"] = med["dplc"] - med["cox_scad"]
    return med


def selection_consistency_trend(seed):
    """Mean FNN and FPN of dplc at n = 300, 600, 1200 (master seed
    seed + n each)."""
    means = {"fnn": [], "fpn": []}
    for n in (300, 600, 1200):
        sim = SimConfig(n=n, p=100, r=8, s_beta=10, g0_kind="linear",
                        replicates=10, seed=seed + n)
        rows, _ = run_experiment(sim, {"dplc": desk_cfg()})
        good = [r for r in rows if r.error is None]
        means["fnn"].append(float(np.mean([r.fnn for r in good])))
        means["fpn"].append(float(np.mean([r.fpn for r in good])))
    return means


@pytest.mark.slow
def test_null_calibration():
    """Pure-noise data: median test C-index stays near one half."""
    start = time.time()
    stat = null_calibration(MASTER_SEED)
    med, count = stat["median_c"], stat["replicates_ok"]
    elapsed = time.time() - start
    ok = 0.45 <= med <= 0.55 and count == 20 and elapsed < 300.0
    report("null-calibration", ok,
           "median C = %.3f over %d replicates; %.0fs" % (med, count, elapsed))


@pytest.mark.slow
def test_linear_truth_desk_reproduction():
    """Linear truth at desk scale: prediction and selection trend levels."""
    start = time.time()
    stat = linear_truth_desk(MASTER_SEED)
    med_c, mean_fnr = stat["median_c"], stat["mean_fnr_pct"]
    elapsed = time.time() - start
    ok = med_c >= 0.78 and mean_fnr <= 45.0 and stat["replicates_ok"] == 20 \
        and elapsed < 1800.0
    report("linear-truth-desk", ok,
           "median C = %.3f, mean FNR = %.1f%%; %.0fs" % (med_c, mean_fnr,
                                                          elapsed))


@pytest.mark.slow
def test_nonlinear_ordering():
    """Nonlinear truth: the network model beats the g==0 baseline clearly."""
    start = time.time()
    med = nonlinear_ordering(MASTER_SEED)
    elapsed = time.time() - start
    ok = med["gap"] >= 0.03 and elapsed < 1800.0
    report("nonlinear-ordering", ok,
           "dplc %.3f vs baseline %.3f, gap %.3f; %.0fs"
           % (med["dplc"], med["cox_scad"], med["gap"], elapsed))


@pytest.mark.slow
def test_selection_consistency_trend():
    """Mean FNN and FPN do not grow as n grows (one small inversion allowed)."""
    start = time.time()
    means = selection_consistency_trend(MASTER_SEED)

    def trend_ok(seq):
        inversions = [max(0.0, b - a) for a, b in zip(seq, seq[1:])]
        bad = [v for v in inversions if v > 1e-12]
        return len(bad) <= 1 and all(v <= 0.5 for v in bad)

    elapsed = time.time() - start
    ok = trend_ok(means["fnn"]) and trend_ok(means["fpn"]) \
        and elapsed < 2700.0
    report("selection-consistency-trend", ok,
           "FNN %s, FPN %s over n=(300,600,1200); %.0fs"
           % (np.round(means["fnn"], 2).tolist(),
              np.round(means["fpn"], 2).tolist(), elapsed))


def test_censoring_calibration():
    """Realized censoring across 20 generator replicates near the target."""
    sim = SimConfig(n=500, p=100, r=8, s_beta=10, g0_kind="linear",
                    seed=MASTER_SEED)
    rates = [simulate_dataset(sim, k).censoring_rate for k in range(20)]
    mean_rate = float(np.mean(rates))
    ok = abs(mean_rate - 0.30) <= 0.03
    report("censoring-calibration", ok,
           "mean realized rate %.3f over 20 replicates" % mean_rate)


def test_cli_determinism(tmp_path):
    """Every CLI command, fixed seed: byte-identical outputs across runs."""
    config = {
        "seed": int(MASTER_SEED % 100000),
        "sim": {"n": 120, "p": 6, "r": 8, "s_beta": 2, "replicates": 2},
        "fit": {"arch": {"hidden_widths": [4], "dropout_rate": 0.3},
                "inner_steps": 10, "max_outer": 6,
                "lambda_grid": [0.05, 0.15, 0.45]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run_all(tag):
        base = tmp_path / tag
        sim_dir = base / "sim"
        fit_dir = base / "fit"
        bench_dir = base / "bench"
        pred_csv = base / "pred.csv"
        assert cli_main(["simulate", "--config", str(cfg_path),
                         "--out", str(sim_dir)]) == 0
        assert cli_main(["fit", "--data", str(sim_dir / "dataset.csv"),
                         "--config", str(cfg_path),
                         "--out", str(fit_dir)]) == 0
        assert cli_main(["predict", "--model", str(fit_dir / "model.json"),
                         "--data", str(sim_dir / "dataset.csv"),
                         "--out", str(pred_csv)]) == 0
        assert cli_main(["benchmark", "--config", str(cfg_path),
                         "--out", str(bench_dir)]) == 0
        outputs = {}
        for path in sorted(base.rglob("*")):
            if path.is_file():
                outputs[str(path.relative_to(base))] = path.read_bytes()
        return outputs

    first = run_all("run1")
    second = run_all("run2")
    same = set(first) == set(second) and \
        all(first[k] == second[k] for k in first)
    differing = [k for k in first if first.get(k) != second.get(k)]
    report("cli-determinism", same,
           "%d files compared%s" % (len(first),
                                    "" if same else "; differ: %s" % differing))
