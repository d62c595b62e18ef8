"""Data generator distributions, metrics, and the replicate runner."""

import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from dplc import (FitConfig, NetworkArch, SimConfig,
                  c_index, calibrate_censoring, g0_eval, gen_beta0,
                  gen_covariates, gen_survival, run_experiment,
                  selection_metrics, simulate_dataset, tune_lambda)
from dplc.simulation import censoring_rate


def naive_c_index(risk, times, status):
    num = den = 0.0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if times[i] < times[j] and status[i] == 1:
                den += 1
                if risk[i] > risk[j]:
                    num += 1.0
                elif risk[i] == risk[j]:
                    num += 0.5
    return num / den


def blocked_c_index(risk, times, status, block=256):
    """Pair counts over row blocks: O(block * n) memory."""
    risk, times = np.asarray(risk, float), np.asarray(times, float)
    event = np.asarray(status, float) == 1.0
    total = concordant = tied = 0
    for lo in range(0, risk.size, block):
        rows = slice(lo, lo + block)
        comparable = (times[rows, None] < times[None, :]) & event[rows, None]
        total += int(comparable.sum())
        concordant += int((comparable
                           & (risk[rows, None] > risk[None, :])).sum())
        tied += int((comparable & (risk[rows, None] == risk[None, :])).sum())
    return float((concordant + 0.5 * tied) / total)


def small_fit_cfg(lambda_grid, seed=0):
    return FitConfig(lambda_grid=lambda_grid,
                     arch=NetworkArch((4,), 0.0),
                     max_outer=6, seed=seed)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(s_beta=100, p=50)
        with pytest.raises(ValueError):
            SimConfig(rho=1.0)
        with pytest.raises(ValueError):
            SimConfig(g0_kind="cubic")
        with pytest.raises(ValueError):
            SimConfig(target_censoring=0.0)

    def test_rejects_more_z_columns_than_subjects(self):
        # simulate_dataset could not form a dataset from such a config
        with pytest.raises(ValueError, match="r must be <= n"):
            SimConfig(n=5)
        assert SimConfig(n=8).r == 8

    def test_rejects_nonlinear_g0_with_fewer_than_8_z_columns(self):
        with pytest.raises(ValueError, match="nonlinear g0 needs r >= 8"):
            SimConfig(g0_kind="nonlinear", r=4)
        SimConfig(g0_kind="linear", r=4)


class TestGenCovariates:
    def test_independent_when_rho_zero(self):
        cfg = SimConfig(n=5000, p=4, r=8, s_beta=2, rho=0.0, seed=1)
        X, Z = gen_covariates(cfg, np.random.default_rng(1))
        m = np.concatenate([X, Z], axis=1)
        corr = np.corrcoef(m.T)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_equicorrelation_near_rho(self):
        cfg = SimConfig(n=5000, p=4, r=8, s_beta=2, rho=0.2, seed=2)
        X, Z = gen_covariates(cfg, np.random.default_rng(2))
        m = np.concatenate([X, Z], axis=1)
        corr = np.corrcoef(m.T)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.all(np.abs(off - 0.2) < 0.05)

    def test_deterministic(self):
        cfg = SimConfig(n=50, p=3, r=8, s_beta=1, seed=0)
        a = gen_covariates(cfg, np.random.default_rng(9))
        b = gen_covariates(cfg, np.random.default_rng(9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_shapes(self):
        cfg = SimConfig(n=30, p=5, r=8, s_beta=2)
        X, Z = gen_covariates(cfg, np.random.default_rng(0))
        assert X.shape == (30, 5) and Z.shape == (30, 8)


class TestGenBeta0:
    @pytest.mark.parametrize("seed", range(5))
    def test_sparsity_and_magnitudes(self, seed):
        cfg = SimConfig(n=50, p=40, r=8, s_beta=10)
        beta0 = gen_beta0(cfg, np.random.default_rng(seed))
        nz = beta0[beta0 != 0.0]
        assert nz.size == 10
        assert np.all(np.abs(nz) >= 0.5) and np.all(np.abs(nz) <= 2.0)

    def test_zero_sparsity(self):
        cfg = SimConfig(n=50, p=10, r=8, s_beta=0)
        assert np.all(gen_beta0(cfg, np.random.default_rng(0)) == 0.0)


class TestGenSurvival:
    def test_unit_exponential_mean(self):
        rng = np.random.default_rng(3)
        n = 100_000
        U = gen_survival(np.zeros((n, 1)), [0.0], np.zeros(n), rng)
        assert abs(U.mean() - 1.0) < 0.02

    def test_adding_log2_to_g0_halves_times(self):
        X = np.zeros((1000, 1))
        g = np.zeros(1000)
        u1 = gen_survival(X, [0.0], g, np.random.default_rng(4))
        u2 = gen_survival(X, [0.0], g + np.log(2.0), np.random.default_rng(4))
        assert np.allclose(u1, 2.0 * u2)

    def test_rescaled_times_are_unit_exponential(self):
        rng = np.random.default_rng(5)
        n = 10_000
        x = rng.standard_normal((n, 2))
        beta0 = np.array([0.8, -0.5])
        g0 = 0.3 * rng.standard_normal(n)
        U = gen_survival(x, beta0, g0, rng)
        rescaled = U * np.exp(x @ beta0 + g0)
        assert stats.kstest(rescaled, "expon").pvalue > 0.01


class TestCalibrateCensoring:
    def test_closed_form_half(self):
        U = np.full(50, 3.0)
        assert censoring_rate(U, 6.0) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_bracket(self):
        U = np.random.default_rng(0).exponential(size=200) + 1e-12
        assert censoring_rate(U, 1e-9) > 0.999
        assert censoring_rate(U, 1e9) < 0.001

    @pytest.mark.parametrize("target", [0.1, 0.3, 0.6])
    def test_hits_target(self, target):
        U = np.random.default_rng(1).exponential(size=500)
        bound = calibrate_censoring(U, target)
        assert abs(censoring_rate(U, bound) - target) <= 0.01

    def test_rejects_bad_target(self):
        U = np.ones(10)
        with pytest.raises(ValueError):
            calibrate_censoring(U, 0.0)
        with pytest.raises(ValueError):
            calibrate_censoring(U, 1.0)

    def test_realized_rate_near_target(self):
        rates = [simulate_dataset(SimConfig(n=300, p=10, r=8, s_beta=3,
                                            seed=50 + k), 0).censoring_rate
                 for k in range(8)]
        assert abs(np.mean(rates) - 0.30) < 0.03


class TestG0Eval:
    def test_linear_unit_vector(self):
        alpha = np.zeros(8)
        alpha[0] = 1.0
        z = np.random.default_rng(0).standard_normal((6, 8))
        assert np.allclose(g0_eval(z, "linear", alpha), z[:, 0])

    def test_nonlinear_frozen_point(self):
        z = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert g0_eval(z, "nonlinear") == pytest.approx(0.36, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((5, 8))
        swapped = z.copy()
        swapped[:, [1, 2]] = swapped[:, [2, 1]]
        assert np.allclose(g0_eval(z, "nonlinear"), g0_eval(swapped, "nonlinear"))

    def test_degenerate_gap_is_finite_and_logged(self, caplog):
        z = np.zeros(8)
        with caplog.at_level(logging.WARNING, logger="dplc.simulation"):
            value = g0_eval(z, "nonlinear")
        assert np.isfinite(value)
        assert any("perturbed" in rec.message for rec in caplog.records)

    def test_zero_kind(self):
        assert g0_eval(np.ones((3, 8)), "zero") == pytest.approx([0, 0, 0])

    def test_single_row_returns_scalar(self):
        out = g0_eval(np.zeros(8), "zero")
        assert isinstance(out, float)


class TestCIndex:
    def test_perfect_ranking(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        assert c_index([4, 3, 2, 1], times, np.ones(4)) == 1.0

    def test_all_tied_risks(self):
        times = np.array([1.0, 2.0, 3.0])
        assert c_index([1, 1, 1], times, np.ones(3)) == 0.5

    def test_worked_example(self):
        value = c_index([3, 1, 2], [1.0, 2.0, 3.0], [1, 1, 0])
        assert value == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pair_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        times = rng.integers(1, 10, n).astype(float)
        status = (rng.random(n) < 0.7).astype(float)
        status[0] = 1.0
        risk = rng.standard_normal(n).round(1)  # induce some risk ties
        expected = naive_c_index(risk, times, status)
        assert c_index(risk, times, status) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(7)
        n = 30
        times = rng.integers(1, 12, n).astype(float)
        status = (rng.random(n) < 0.6).astype(float)
        status[:2] = 1.0
        risk = rng.standard_normal(n)
        base = c_index(risk, times, status)
        assert c_index(np.exp(risk), times, status) == pytest.approx(base)
        assert c_index(3.0 * risk + 11.0, times, status) == pytest.approx(base)

    def test_no_comparable_pairs(self):
        with pytest.raises(ValueError, match="no comparable pairs"):
            c_index([1.0, 2.0], [1.0, 2.0], [0, 1])

    def test_all_times_tied(self):
        with pytest.raises(ValueError, match="no comparable pairs"):
            c_index([3.0, 1.0, 2.0, 2.0], np.full(4, 5.0), np.ones(4))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 30, 90])
    def test_equals_pair_enumeration_with_ties(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            times = rng.integers(1, 4, n).astype(float)
            status = (rng.random(n) < 0.6).astype(float)
            risk = rng.integers(0, 3, n) * 0.5
            if not any(status[i] == 1 and times[i] < times.max()
                       for i in range(n)):
                continue
            assert c_index(risk, times, status) == \
                naive_c_index(risk, times, status)

    def test_equals_blocked_reference_heavy_ties(self):
        rng = np.random.default_rng(11)
        n = 3000
        times = rng.integers(1, 40, n).astype(float)
        status = (rng.random(n) < 0.7).astype(float)
        risk = np.where(rng.random(n) < 0.5, rng.integers(-20, 20, n) / 4.0,
                        rng.standard_normal(n))
        risk[:5] = [-0.0, 0.0, 1e300, -1e300, 5e-324]
        assert c_index(risk, times, status) == \
            blocked_c_index(risk, times, status)

    def test_single_event(self):
        times = [1.0, 2.0, 3.0, 4.0]
        status = [0, 0, 1, 0]
        assert c_index([0.0, 0.0, 2.0, 1.0], times, status) == 1.0
        assert c_index([0.0, 0.0, 1.0, 2.0], times, status) == 0.0
        assert c_index([0.0, 0.0, 1.0, 1.0], times, status) == 0.5

    def test_status_int_or_bool(self):
        rng = np.random.default_rng(3)
        times = rng.integers(1, 6, 40).astype(float)
        events = rng.random(40) < 0.5
        risk = rng.standard_normal(40).round(1)
        expected = c_index(risk, times, events.astype(float))
        assert c_index(risk, times, events) == expected
        assert c_index(risk, times, events.astype(int)) == expected
        assert c_index(list(risk), list(times), list(events)) == expected

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_risk(self, bad):
        with pytest.raises(ValueError, match="risk must be finite"):
            c_index([1.0, bad, 0.0], [1.0, 2.0, 3.0], [1, 1, 1])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_nonfinite_times(self, bad):
        with pytest.raises(ValueError, match="times must be finite"):
            c_index([1.0, 2.0, 0.0], [1.0, bad, 3.0], [1, 1, 1])

    @pytest.mark.parametrize("lengths", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
    def test_rejects_unequal_lengths(self, lengths):
        risk, times, status = (np.arange(m, dtype=float) + 1.0
                               for m in lengths)
        with pytest.raises(ValueError, match="lengths differ"):
            c_index(risk, times, np.minimum(status, 1.0))

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            c_index([[1.0], [2.0]], [[1.0], [2.0]], [[1], [1]])

    def test_rejects_one_subject(self):
        with pytest.raises(ValueError, match="at least two subjects"):
            c_index([1.0], [1.0], [1])

    def test_memory_linear_in_n(self):
        rng = np.random.default_rng(5)
        n = 200_000
        times = rng.exponential(size=n)
        status = rng.random(n) < 0.7
        tracemalloc.start()
        try:
            value = c_index(-times, times, status)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0
        assert peak < 64e6


class TestSelectionMetrics:
    def test_perfect_selection(self):
        row = selection_metrics({1, 2, 3}, {1, 2, 3}, p=10)
        assert (row.fpn, row.fnn, row.fpr_pct, row.fnr_pct) == (0, 0, 0.0, 0.0)

    def test_empty_selection(self):
        row = selection_metrics(set(), set(range(10)), p=20)
        assert row.fnn == 10 and row.fnr_pct == 100.0

    def test_worked_percentages(self):
        truth = set(range(10))
        selected = set(range(8)) | {100, 101, 102}
        row = selection_metrics(selected, truth, p=600)
        assert row.fpn == 3
        assert row.fpr_pct == pytest.approx(100.0 * 3 / 590)
        assert row.fnn == 2
        assert row.fnr_pct == pytest.approx(20.0)

    def test_empty_truth_counts_only_false_positives(self):
        row = selection_metrics({1}, set(), p=10)
        assert row.fpn == 1
        assert row.fpr_pct == 10.0
        assert row.fnn is None and row.fnr_pct is None

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            selection_metrics({11}, {1}, p=10)


class TestSimulateDataset:
    def test_deterministic(self):
        cfg = SimConfig(n=60, p=6, r=8, s_beta=2, seed=4)
        a = simulate_dataset(cfg, 1)
        b = simulate_dataset(cfg, 1)
        assert np.array_equal(a.dataset.times, b.dataset.times)
        assert np.array_equal(a.beta0, b.beta0)

    def test_replicates_differ(self):
        cfg = SimConfig(n=60, p=6, r=8, s_beta=2, seed=4)
        a = simulate_dataset(cfg, 0)
        b = simulate_dataset(cfg, 1)
        assert not np.array_equal(a.dataset.times, b.dataset.times)

    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    def test_g0_vals_follow_the_stored_rows(self, kind):
        data = simulate_dataset(SimConfig(n=60, p=6, r=8, s_beta=2, seed=4,
                                          g0_kind=kind), 0)
        ds = data.dataset
        assert not np.array_equal(ds.rows, np.arange(ds.n))
        assert np.array_equal(data.g0_vals,
                              g0_eval(ds.z, kind, data.alpha0))


class TestRunExperiment:
    def test_single_replicate_deterministic(self):
        sim = SimConfig(n=120, p=6, r=8, s_beta=2, seed=21)
        methods = {"dplc": small_fit_cfg((0.1, 0.4))}
        sim = replace(sim, replicates=1)
        (a,), _ = run_experiment(sim, methods)
        (b,), _ = run_experiment(sim, methods)
        assert a.c_index_test == b.c_index_test
        assert a.lambda_selected == b.lambda_selected
        assert a.fpn == b.fpn and a.fnn == b.fnn

    def test_failed_method_recorded_not_raised(self, monkeypatch):
        sim = SimConfig(n=100, p=5, r=8, s_beta=2, seed=3)

        def fails_for_bad(dataset, cfg, **kwargs):
            # the runner reseeds each config; the grid marks the bad method
            if cfg.lambda_grid == (0.4,):
                raise ValueError("bad method")
            return tune_lambda(dataset, cfg, **kwargs)

        monkeypatch.setattr("dplc.simulation.tune_lambda", fails_for_bad)
        methods = {"good": small_fit_cfg((0.2,)), "bad": small_fit_cfg((0.4,))}
        rows, summary = run_experiment(replace(sim, replicates=2), methods)
        good = [r for r in rows if r.method == "good"]
        bad = [r for r in rows if r.method == "bad"]
        assert all(r.error is None for r in good)
        assert all(r.error is not None for r in bad)
        assert summary["bad"]["replicates_failed"] == 2
        # the count is left empty on an error row and the total skips it
        assert all(r.fits_not_converged is None for r in bad)
        assert summary["bad"]["fits_not_converged"] == 0
        # a one-value grid runs the pilot, one entry per chain and one
        # alternating fit (round 2's pick is round 1's)
        assert all(r.fits_not_converged in range(5) for r in good)

    def test_failed_split_recorded_not_raised(self):
        # the 20 % test side has 4 rows, fewer than the 8 z columns
        sim = SimConfig(n=20, p=5, r=8, s_beta=2, replicates=1)
        methods = {"dplc": small_fit_cfg((0.2,)),
                   "cox_scad": replace(small_fit_cfg((0.2,)), arch=None)}
        rows, summary = run_experiment(sim, methods)
        assert [r.method for r in rows] == ["dplc", "cox_scad"]
        for row in rows:
            assert row.error == ("split failed: z has more columns than "
                                 "subjects")
            assert 0.0 < row.censoring_rate < 1.0
        assert all(summary[m]["replicates_failed"] == 1 for m in methods)

    def test_summary_se_is_sd_over_sqrt_n(self):
        sim = SimConfig(n=150, p=8, r=8, s_beta=2, seed=13)
        methods = {"dplc": small_fit_cfg((0.1, 0.3))}
        rows, summary = run_experiment(replace(sim, replicates=4), methods)
        vals = np.array([r.fpn for r in rows if r.error is None], dtype=float)
        expected = vals.std(ddof=1) / np.sqrt(vals.size)
        assert summary["dplc"]["fpn"]["se"] == pytest.approx(expected)
        cs = np.array([r.c_index_test for r in rows if r.error is None])
        assert summary["dplc"]["c_index"]["median"] == \
            pytest.approx(np.median(cs))

    def test_parallel_matches_sequential(self):
        sim = SimConfig(n=100, p=5, r=8, s_beta=2, seed=8)
        methods = {"dplc": small_fit_cfg((0.2, 0.6))}
        sim = replace(sim, replicates=3)
        seq, _ = run_experiment(sim, methods, n_workers=1)
        par, _ = run_experiment(sim, methods, n_workers=2)
        for a, b in zip(seq, par):
            assert (a.replicate, a.method) == (b.replicate, b.method)
            assert a.c_index_test == b.c_index_test
            assert a.lambda_selected == b.lambda_selected

    def test_workers_capped_at_replicates(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # run_experiment imports the pool class where it starts one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            InProcessPool)
        sim = SimConfig(n=100, p=5, r=8, s_beta=2, seed=8)
        methods = {"dplc": small_fit_cfg((0.2,))}
        rows, _ = run_experiment(replace(sim, replicates=2), methods,
                                 n_workers=10_000)
        assert [r.replicate for r in rows] == [0, 1]
        run_experiment(replace(sim, replicates=1), methods, n_workers=4)
        assert sizes == [2]

    def test_empty_truth_skips_fn_metrics(self):
        sim = SimConfig(n=120, p=5, r=8, s_beta=0, g0_kind="zero", seed=5)
        methods = {"dplc": small_fit_cfg((0.3,))}
        (row,), _ = run_experiment(replace(sim, replicates=1), methods)
        assert row.error is None
        assert row.fnn is None and row.fnr_pct is None
        assert row.fpn is not None

