"""Risk-set indexing and the Cox kernel against literal oracles."""

import math

import numpy as np
import pytest

from dplc import cox_terms, stratified_split
from dplc.survival import _loss_terms

from conftest import (cox_hessian, fd_gradient, fd_hessian_diag, index_sets,
                      make_dataset, naive_history_set, naive_neg_log_pl,
                      naive_risk_set, random_instance, rel_err)


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty dataset"):
            make_dataset([], [])

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            make_dataset([1.0, 0.0], [1, 1])

    def test_rejects_bad_status(self):
        with pytest.raises(ValueError):
            make_dataset([1.0, 2.0], [1, 2])

    def test_rejects_wide_z(self):
        with pytest.raises(ValueError):
            make_dataset([1.0, 2.0], [1, 1], z=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["x", "z"])
    def test_rejects_nonfinite_x_and_z(self, name, bad):
        cells = {"x": np.zeros((3, 2)), "z": np.zeros((3, 2))}
        cells[name][1, 1] = bad
        with pytest.raises(ValueError, match="x and z must be finite"):
            make_dataset([1.0, 2.0, 3.0], [1, 0, 1], **cells)

    def test_p_may_exceed_n(self):
        ds = make_dataset([1.0, 2.0], [1, 0], x=np.zeros((2, 9)))
        assert ds.p == 9 and ds.n == 2

    def test_row_permutation_stores_the_same_arrays(self):
        # Rows tie on time and status, and many also on x; z tells them
        # apart.
        rng = np.random.default_rng(1)
        n = 40
        times = rng.integers(1, 6, size=n).astype(float)
        status = (rng.random(n) < 0.5).astype(float)
        x = rng.integers(0, 2, size=(n, 3)).astype(float)
        z = rng.standard_normal((n, 2))
        ds = make_dataset(times, status, x, z)
        perm = rng.permutation(n)
        other = make_dataset(times[perm], status[perm], x[perm], z[perm])
        for name in ("times", "status", "x", "z"):
            assert getattr(other, name).tobytes() == getattr(ds, name).tobytes()
        for a, b in zip(ds.standardized + ds.index,
                        other.standardized + other.index):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(perm[other.rows], ds.rows)
        assert np.array_equal(ds.times, times[ds.rows])
        # the order is the full lexicographic one: time, status, x, z
        keys = np.hstack((ds.x, ds.z)).T[::-1]
        assert np.array_equal(np.lexsort((*keys, ds.status, ds.times)),
                              np.arange(n))

    def test_standardized_built_once(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 3)) * [1.0, 50.0, 0.0] + [0.0, 3.0, 2.7]
        ds = make_dataset(np.arange(1.0, 31.0), np.ones(30), x=x)
        X, scale = ds.standardized
        assert ds.standardized[0] is X
        assert np.allclose(X[:, :2].mean(axis=0), 0.0, atol=1e-14)
        assert np.allclose(X[:, :2].std(axis=0), 1.0, rtol=1e-14)
        assert np.array_equal(scale[:2], x[:, :2].std(axis=0))
        # the constant column is exactly zero, with unit scale
        assert np.all(X[:, 2] == 0.0) and scale[2] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 1.0


class TestRiskIndex:
    def test_two_subjects(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        risk, history = index_sets(ds.index)
        assert risk[0] == {0, 1}
        assert risk[1] == {1}
        assert history[0] == {0}
        assert history[1] == {0, 1}

    def test_tied_times_mutually_included(self):
        ds = make_dataset([2.0, 2.0], [1, 0])
        risk, history = index_sets(ds.index)
        for i in range(2):
            assert risk[i] == {0, 1}
            assert history[i] == {0, 1}

    def test_unsorted_input(self):
        ds = make_dataset([3.0, 1.0, 2.0], [1, 1, 1])
        assert ds.rows.tolist() == [1, 2, 0]
        stored, _ = index_sets(ds.index)
        # the risk sets by given row
        risk = {ds.rows[k]: {ds.rows[j] for j in s}
                for k, s in enumerate(stored)}
        assert risk[0] == {0}
        assert risk[1] == {0, 1, 2}
        assert risk[2] == {0, 2}

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_set_comprehension_oracle(self, seed):
        ds, _ = random_instance(seed)
        risk, history = index_sets(ds.index)
        for i in range(ds.n):
            assert risk[i] == naive_risk_set(ds.times, i)
            assert history[i] == naive_history_set(ds.times, i)
            assert i in risk[i]
            assert i in history[i]

    def test_monotone_in_time(self):
        ds, _ = random_instance(3, n=15)
        risk, history = index_sets(ds.index)
        by_time = sorted(range(ds.n), key=lambda i: ds.times[i])
        sizes_r = [len(risk[i]) for i in by_time]
        sizes_c = [len(history[i]) for i in by_time]
        assert all(a >= b for a, b in zip(sizes_r, sizes_r[1:]))
        assert all(a <= b for a, b in zip(sizes_c, sizes_c[1:]))


def _q(eta, ds):
    return cox_terms(eta, ds)[0]


def _grad(eta, ds):
    return cox_terms(eta, ds)[1]


def _hess(eta, ds):
    return cox_terms(eta, ds)[2]


class TestNegLogPartialLikelihood:
    def test_symmetric_pair(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        q = _q([0.0, 0.0], ds)
        assert q == pytest.approx(np.log(2.0) / 2.0, abs=1e-12)

    def test_no_events_is_zero(self):
        ds = make_dataset([1.0, 2.0], [0, 0])
        assert _q([0.3, -0.5], ds) == 0.0

    def test_matches_literal_oracle(self):
        ds = make_dataset([1.0, 2.0, 3.0], [1, 0, 1])
        eta = np.array([1.0, 0.0, -1.0])
        expected = naive_neg_log_pl(ds.times, ds.status, eta)
        assert _q(eta, ds) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle_random(self, seed):
        ds, eta = random_instance(seed)
        expected = naive_neg_log_pl(ds.times, ds.status, eta)
        assert _q(eta, ds) == pytest.approx(expected, rel=1e-10)

    def test_shift_invariance(self):
        ds, eta = random_instance(4)
        q0 = _q(eta, ds)
        for c in (-7.0, 0.5, 13.0):
            qc = _q(eta + c, ds)
            assert abs(qc - q0) < 1e-12

    def test_large_eta_no_overflow(self):
        ds, eta = random_instance(2, n=12)
        q = _q(eta * 20.0, ds)
        assert np.isfinite(q)

    def test_rejects_nonfinite(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        with pytest.raises(ValueError, match="non-finite predictor"):
            cox_terms([np.nan, 0.0], ds)

    def test_rejects_wrong_length(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        with pytest.raises(ValueError, match="length"):
            cox_terms([0.0, 0.0, 0.0], ds)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1, 2, 3])
    def test_unchecked_pass_gives_nonfinite_loss(self, value, at):
        # The training pass skips cox_terms' checks and relies on its loss
        # check instead: any non-finite entry, at an event (0, 2) or a
        # censored subject (1, 3), early or late, must give a non-finite q.
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
        eta = np.array([0.2, -0.1, 0.4, 0.3])
        eta[at] = value
        with np.errstate(all="ignore"):
            loss = _loss_terms(eta, ds)[0]
        assert not np.isfinite(loss)


class TestGradEta:
    def test_two_subject_value(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        grad = _grad([0.0, 0.0], ds)
        assert grad == pytest.approx([-0.25, 0.25], abs=1e-12)

    def test_no_events_zero(self):
        ds = make_dataset([1.0, 2.0, 3.0], [0, 0, 0])
        assert np.all(_grad([1.0, 2.0, 3.0], ds) == 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        ds, eta = random_instance(seed)
        grad = _grad(eta, ds)
        fd = fd_gradient(lambda e: naive_neg_log_pl(ds.times, ds.status, e),
                         eta, step=1e-6)
        assert np.max(rel_err(grad, fd, floor=1e-6)) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_score_sums_to_zero(self, seed):
        ds, eta = random_instance(seed)
        assert abs(_grad(eta, ds).sum()) < 1e-12


class TestHessianDiag:
    def test_two_subject_value(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        W = _hess([0.0, 0.0], ds)
        assert W == pytest.approx([0.125, 0.125], abs=1e-12)

    def test_no_events_zero(self):
        ds = make_dataset([1.0, 2.0], [0, 0])
        assert np.all(_hess([0.4, 0.1], ds) == 0.0)

    def test_single_subject_degenerate(self):
        ds = make_dataset([1.0], [1])
        assert _hess([0.7], ds) == pytest.approx([0.0], abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_fd_hessian_diagonal(self, seed):
        ds, eta = random_instance(seed)
        W = _hess(eta, ds)
        fd = fd_hessian_diag(lambda e: naive_neg_log_pl(ds.times, ds.status, e),
                             eta, step=1e-4)
        assert np.max(rel_err(W, fd, floor=1e-4)) < 1e-4
        assert np.all(W >= -1e-12)


def hessian_block(eta, ds, cols):
    """The Hessian block that the risk-set pass at eta gives for cols."""
    with np.errstate(all="ignore"):
        return _loss_terms(np.asarray(eta, dtype=float), ds)[3](cols)


class TestCoxHessian:
    """The Hessian block in the coefficients of given columns."""

    @staticmethod
    def _instance(seed, tied):
        ds, eta = random_instance(seed, n=40, p=4)
        if not tied:
            times = np.random.default_rng(seed).permutation(ds.n) + 1.0
            ds = make_dataset(times, ds.status, ds.x, ds.z)
        return ds, eta

    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_central_differences_of_gradient(self, seed, tied):
        ds, eta = self._instance(seed, tied)
        assert (np.unique(ds.times).size < ds.n) == tied
        cols, step = ds.x, 1e-5
        hess = hessian_block(eta, ds, cols)
        fd = np.empty_like(hess)
        for k in range(cols.shape[1]):
            up = cox_terms(eta + step * cols[:, k], ds)[1] @ cols
            down = cox_terms(eta - step * cols[:, k], ds)[1] @ cols
            fd[:, k] = (up - down) / (2.0 * step)
        assert np.max(np.abs(hess - fd)) < 1e-9
        assert np.max(np.abs(hess - hess.T)) < 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_columns_give_the_curvature_diagonal(self, seed):
        # On the unit columns the block is the Hessian in eta itself, whose
        # diagonal cox_terms returns.
        ds, eta = random_instance(seed)
        hess = hessian_block(eta, ds, np.eye(ds.n))
        assert np.max(np.abs(np.diag(hess) - cox_terms(eta, ds)[2])) < 1e-15
        assert np.allclose(hess.sum(axis=0), 0.0, atol=1e-15)

    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_its_own_pass(self, seed, tied):
        # Reading the block off the loss pass changes no bit of it.
        ds, eta = self._instance(seed, tied)
        with np.errstate(all="ignore"):
            ref = cox_hessian(eta, ds, ds.x)
        assert np.array_equal(hessian_block(eta, ds, ds.x), ref)

    @pytest.mark.parametrize("spread", [400.0, 600.0])
    def test_bitwise_equal_where_the_loss_takes_log_space(self, spread):
        # At these spreads q, grad and w come from the log-space path (see
        # TestWideSpread); the block stays the max-subtracted fast path.
        ds = make_dataset(np.arange(1.0, 7.0), [1] * 6,
                          x=np.random.default_rng(0).standard_normal((6, 3)))
        eta = np.linspace(spread, 0.0, 6)
        with np.errstate(all="ignore"):
            ref = cox_hessian(eta, ds, ds.x)
        assert np.array_equal(hessian_block(eta, ds, ds.x), ref)


def lse_cox_terms(times, status, eta):
    """(q, grad, w) with each subject's risk-set sum taken in log space.

    w_m sums pi * (1 - pi) over the events whose risk set holds m, with
    pi = exp(eta_m - log S_i), so no term can overflow.
    """
    n = len(times)
    log_s = []
    for i in range(n):
        vals = [eta[j] for j in naive_risk_set(times, i)]
        top = max(vals)
        log_s.append(top + math.log(sum(math.exp(v - top) for v in vals)))
    q = -sum(eta[i] - log_s[i] for i in range(n) if status[i] == 1) / n
    pi1, w = np.zeros(n), np.zeros(n)
    for i in range(n):
        if status[i] == 1:
            for m in naive_risk_set(times, i):
                pi = math.exp(eta[m] - log_s[i])
                pi1[m] += pi
                w[m] += pi * (1.0 - pi)
    return q, (pi1 - np.asarray(status)) / n, w / n


class TestWideSpread:
    # For spreads of about 355 to 645, status / a**2 can overflow on the
    # fast path (NaN curvature) before the log-space path takes over.  The
    # gradient's absolute bound 1e-12 / n is 1e-12 on n * grad = pi1 - status.
    @pytest.mark.parametrize("spread", [400.0, 600.0])
    def test_matches_log_sum_exp_reference(self, spread):
        ds = make_dataset(np.arange(1.0, 7.0), [1] * 6)
        eta = np.linspace(spread, 0.0, 6)
        q, grad, w = cox_terms(eta, ds)
        ref_q, ref_grad, ref_w = lse_cox_terms(ds.times, ds.status, eta)
        assert np.isfinite(w).all() and np.isfinite(grad).all()
        assert q == pytest.approx(ref_q, abs=1e-12)
        assert np.allclose(grad, ref_grad, rtol=1e-9, atol=1e-12 / ds.n)
        assert np.allclose(w, ref_w, rtol=1e-9, atol=1e-12)

    def test_tiny_sums_on_censored_tail_only(self):
        # The risk-set sums of the censored tail are below 1e-280 while the
        # events' stay above 1e-154; censored rows add nothing to
        # status / a**2, so the fast path serves this input.
        ds = make_dataset(np.arange(1.0, 7.0), [1, 1, 0, 0, 0, 0])
        eta = np.array([700.0, 400.0, 0.0, 0.0, 0.0, 0.0])
        q, grad, w = cox_terms(eta, ds)
        ref_q, ref_grad, ref_w = lse_cox_terms(ds.times, ds.status, eta)
        assert q == pytest.approx(ref_q, abs=1e-12)
        assert np.allclose(grad, ref_grad, rtol=1e-9, atol=1e-12 / ds.n)
        assert np.allclose(w, ref_w, rtol=1e-9, atol=1e-12)


class TestGradientContract:
    """The second value of cox_terms is the gradient of q itself."""

    def test_two_subject_terms(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        q, grad, w = cox_terms([0.0, 0.0], ds)
        assert q == pytest.approx(np.log(2.0) / 2.0, abs=1e-12)
        assert grad == pytest.approx([-0.25, 0.25], abs=1e-12)
        assert w == pytest.approx([0.125, 0.125], abs=1e-12)

    def test_censored_earliest_subject_has_no_gradient(self):
        # Censored earliest subject: empty event history, so q does not
        # depend on its eta to first or second order.
        ds = make_dataset([1.0, 2.0, 3.0], [0, 1, 1])
        _, grad, w = cox_terms([0.3, -0.1, 0.2], ds)
        assert grad[0] == 0.0 and w[0] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_unscaled_gradient_and_training_pass_agree(self, seed):
        ds, eta = random_instance(seed)
        _, grad, _ = cox_terms(eta, ds)
        fd = fd_gradient(lambda e: naive_neg_log_pl(ds.times, ds.status, e),
                         eta, step=1e-6)
        assert np.max(rel_err(grad, fd, floor=1e-6)) < 1e-6
        assert abs(grad.sum()) < 1e-12
        assert np.array_equal(_loss_terms(eta, ds)[1], grad)


class TestStratifiedSplit:
    @pytest.mark.parametrize("seed", range(5))
    def test_event_fraction_within_one_subject(self, seed):
        rng = np.random.default_rng(seed)
        status = (rng.random(137) < 0.6).astype(float)
        train, test = stratified_split(status, 0.2, rng)
        assert sorted(np.concatenate([train, test])) == list(range(137))
        global_rate = status.mean()
        for part in (train, test):
            events = status[part].sum()
            assert abs(events - global_rate * part.size) <= 1.0
