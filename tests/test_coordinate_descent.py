"""Coordinate descent against Newton, grid-search, and surrogate oracles."""

import sys

import numpy as np
import pytest

from dplc import (NumericalDivergence, SurvivalDataset, cd_fit, cox_terms,
                  scad_threshold, scad_value)
from dplc import coordinate_descent
from dplc.coordinate_descent import V_FLOOR, _sweep

from conftest import make_dataset, naive_neg_log_pl


def direct_q(times, status, eta):
    """Literal partial likelihood via an explicit risk-set mask (vectorized)."""
    times = np.asarray(times, float)
    eta = np.asarray(eta, float)
    mask = times[None, :] >= times[:, None]
    denom = (mask * np.exp(eta)[None, :]).sum(axis=1)
    return float(-(np.asarray(status) * (eta - np.log(denom))).sum() / times.size)


def sim_cox(seed, n, p, beta_true=None, g_scale=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta_true = np.zeros(p) if beta_true is None else np.asarray(beta_true, float)
    g = g_scale * rng.standard_normal(n)
    eta0 = x @ beta_true + g
    u = rng.exponential(size=n) / np.exp(eta0)
    c = rng.uniform(0, np.quantile(u, 0.9) * 2, size=n)
    times = np.minimum(u, c) + 1e-9
    status = (u <= c).astype(float)
    if status.sum() < 2:
        status[:2] = 1.0
    return make_dataset(times, status, x=x), g


def newton_1d(dataset, g_vals, tol=1e-10):
    """Scalar Newton on the literal partial likelihood, FD derivatives."""
    x = dataset.x[:, 0]

    def q(b):
        return naive_neg_log_pl(dataset.times, dataset.status, b * x + g_vals)

    beta, h = 0.0, 1e-4
    for _ in range(200):
        d1 = (q(beta + h) - q(beta - h)) / (2.0 * h)
        d2 = (q(beta + h) - 2.0 * q(beta) + q(beta - h)) / h ** 2
        if d2 <= 0.0:
            break
        new = beta - d1 / d2
        if abs(new - beta) < tol:
            return new
        beta = new
    return beta


class TestSurrogateInputs:
    """One sweep at lam = 0 moves each coordinate to h_j / v_j."""

    def test_zero_residual_zero_beta(self):
        # h = 0 with v = 5: the coordinate stays at 0.
        beta, c = np.zeros(1), np.zeros(1)
        _sweep(np.array([[1.0], [2.0]]), np.ones(2), c, beta, 0.0)
        assert beta[0] == 0.0
        assert np.all(c == 0.0)

    def test_worked_example(self):
        # The two-subject pair at eta = 0: gradient [-0.25, 0.25], W 0.125.
        # h = 0.25, v = 0.125, so the coordinate moves to h / v = 2, and
        # the covariance after the move is 0.25 - 2 * 0.125 = 0.
        X = np.array([[1.0], [0.0]])
        beta, c = np.zeros(1), -(np.array([-0.25, 0.25]) @ X)
        _sweep(X, np.array([0.125, 0.125]), c, beta, 0.0)
        assert beta[0] == pytest.approx(2.0, abs=1e-15)
        assert c == pytest.approx([0.0], abs=1e-15)

    def test_ols_solution_under_uniform_weights(self, rng):
        n = 40
        X = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        y = rng.standard_normal(n)
        ols = X.T @ y / np.einsum("ij,ij->j", X, X)
        beta = np.zeros(3)
        # q = 0.5 * mean((y - eta)**2) has W = 1/n and, at eta = 0, the
        # gradient -y / n
        grad = -y / n
        _sweep(X, np.full(n, 1.0 / n), -(grad @ X), beta, 0.0)
        assert beta == pytest.approx(ols, rel=1e-10)

    def test_degenerate_column_floored(self):
        # Zero weights give x_j' W x_j = 0, which the thresholding operator
        # rejects as non-positive curvature; the floor keeps the sweep going.
        beta, c = np.zeros(1), np.zeros(1)
        _sweep(np.ones((2, 1)), np.zeros(2), c, beta, 0.0)
        assert beta[0] == 0.0
        assert np.all(c == 0.0)

    def test_degenerate_column_floored_nonzero_start(self):
        # The floored v is below 1/(a - 1), so no start is skipped: a zero
        # one reaches the operator with h = 0 and stays at zero, and a
        # nonzero one reaches it with h / v = beta_j and stays put.
        beta, c = np.ones(1), np.zeros(1)
        _sweep(np.ones((2, 1)), np.zeros(2), c, beta, 0.0)
        assert beta[0] == 1.0
        assert np.all(c == 0.0)


class TestCdFit:
    def test_dominant_penalty_returns_exact_zero_in_one_sweep(self):
        ds, g = sim_cox(1, n=60, p=4)
        info = {}
        beta = cd_fit(ds, g, None, 50.0, info=info)
        assert beta.shape == (4,)
        assert np.all(beta == 0.0)
        assert info["sweeps"] == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_unpenalized_matches_scalar_newton(self, seed):
        ds, g = sim_cox(seed, n=50, p=1, beta_true=[0.8], g_scale=0.3)
        beta = cd_fit(ds, g, None, 0.0, tol=1e-9,
                      max_sweeps=300)
        expected = newton_1d(ds, g)
        assert beta[0] == pytest.approx(expected, abs=1e-3)

    def test_grid_local_optimality(self):
        # Strong signals keep the whole grid box inside the flat tail of the
        # penalty, where the fixed point is the exact (convex) optimum.
        ds, g = sim_cox(7, n=100, p=2, beta_true=[2.0, -1.8])
        lam = 0.2
        beta = cd_fit(ds, g, None, lam, tol=1e-10, max_sweeps=400)
        assert np.all(np.abs(beta) > 3.7 * lam + 0.5)

        def objective(b):
            return direct_q(ds.times, ds.status, ds.x @ b + g) \
                + sum(scad_value(t, lam) for t in np.abs(b))

        best = objective(beta)
        offsets = np.linspace(-0.5, 0.5, 41)
        for d0 in offsets:
            for d1 in offsets:
                assert best <= objective(beta + np.array([d0, d1])) + 1e-10

    def test_exact_zeros_bitwise(self):
        ds, g = sim_cox(3, n=80, p=10, beta_true=[2.0] + [0.0] * 9)
        beta = cd_fit(ds, g, None, 0.4)
        zeroed = beta[beta == 0.0]
        assert zeroed.size > 0
        assert all(v == 0.0 for v in zeroed)

    def test_support_shrinks_with_lambda(self):
        ds, g = sim_cox(11, n=120, p=8, beta_true=[1.5, -1.2, 0.8, 0, 0, 0, 0, 0])
        lam1 = 0.05
        lam2 = 3.7 * lam1 * 2.0
        s1 = np.count_nonzero(cd_fit(ds, g, None, lam1))
        s2 = np.count_nonzero(cd_fit(ds, g, None, lam2))
        assert s2 <= s1

    def test_column_rescaling_equivariance(self):
        ds, g = sim_cox(5, n=90, p=3, beta_true=[1.0, -1.0, 0.5])
        beta1 = cd_fit(ds, g, None, 0.1)
        scale = np.array([10.0, 0.2, 1.0])
        ds2 = make_dataset(ds.times, ds.status, x=ds.x * scale, z=ds.z)
        beta2 = cd_fit(ds2, g, None, 0.1)
        assert np.allclose(beta2 * scale, beta1, rtol=1e-8, atol=1e-12)

    def test_divergence_raises(self):
        # A zero column gives the solver nothing to pull a runaway
        # coefficient back with, so the cap check has to fire.
        rng = np.random.default_rng(2)
        n = 40
        times = rng.exponential(size=n) + 0.01
        status = np.ones(n)
        ds = make_dataset(times, status, x=np.zeros((n, 1)))
        with pytest.raises(NumericalDivergence, match="divergence"):
            cd_fit(ds, np.linspace(-1, 1, n), np.array([2e6]),
                   0.0, max_sweeps=3)

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("value", [1.0, 0.1, 2.7])
    def test_constant_column_exactly_zero(self, lam, value):
        # 0.1 and 2.7 have a rounded column mean at n = 80.
        ds, g = sim_cox(4, n=80, p=2, beta_true=[1.0, 0.0])
        x = ds.x.copy()
        x[:, 1] = value
        ds = make_dataset(ds.times, ds.status, x=x)
        info = {}
        beta = cd_fit(ds, g, None, lam, info=info)
        assert beta[1] == 0.0
        assert beta[0] != 0.0
        assert info["sweeps"] >= 1

    def test_reports_convergence(self):
        ds, g = sim_cox(3, n=80, p=4, beta_true=[1.0, -0.5, 0.0, 0.0])
        capped, full, settled = {}, {}, {}
        cd_fit(ds, g, None, 0.05, max_sweeps=1, info=capped)
        cd_fit(ds, g, None, 0.05, info=full)
        cd_fit(ds, g, None, 50.0, max_sweeps=1, info=settled)
        assert capped == {"sweeps": 1, "converged": False}
        assert full["converged"] and 1 < full["sweeps"] < 100
        assert settled == {"sweeps": 1, "converged": True}

    def test_warm_start_respected(self):
        ds, g = sim_cox(9, n=70, p=5, beta_true=[1.0, 0, 0, 0, 0])
        lam = 0.1
        cold = cd_fit(ds, g, None, lam, tol=1e-9, max_sweeps=300)
        warm = cd_fit(ds, g, cold, lam, tol=1e-9, max_sweeps=300)
        assert np.allclose(warm, cold, atol=1e-6)

    def test_rejects_bad_inputs(self):
        ds, g = sim_cox(1, n=20, p=2)
        with pytest.raises(ValueError):
            cd_fit(ds, g[:-1], None, 0.1)
        with pytest.raises(ValueError):
            cd_fit(ds, g, np.zeros(3), 0.1)
        bad = g.copy()
        bad[0] = np.inf
        with pytest.raises(ValueError):
            cd_fit(ds, bad, None, 0.1)

    def test_rejects_negative_lambda(self):
        ds, g = sim_cox(1, n=20, p=2)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            cd_fit(ds, g, None, -0.1)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_rejects_nonfinite_lambda(self, lam):
        ds, g = sim_cox(1, n=20, p=2)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            cd_fit(ds, g, None, lam)


class TestSurrogateBookkeeping:
    """Sweeps replayed move by move against the fresh full surrogate.

    A sweep visits every coordinate once, in order, so the state after move
    j is the post-sweep beta up to j and the pre-sweep beta after it.  Each
    move is the exact minimiser along its coordinate, so none of them may
    raise the surrogate.
    """

    def _sweeps(self, seed, lam, n_sweeps=20):
        ds, g = sim_cox(seed, n=60, p=6, beta_true=[1.0, -0.8, 0, 0, 0.5, 0])
        X = (ds.x - ds.x.mean(0)) / ds.x.std(0)
        beta = np.zeros(X.shape[1])
        out = []
        for _ in range(n_sweeps):
            _, grad, W = cox_terms(X @ beta + g, ds)
            c0 = -(grad @ X)
            before, c = beta.copy(), c0.copy()
            _sweep(X, W, c, beta, lam)
            out.append((W, c0, before, beta.copy(), c))
        return X, lam, out

    @staticmethod
    def _full_surrogate(X, lam, W, c0, start, beta):
        d = beta - start
        Xd = X @ d
        return -float(c0 @ d) + 0.5 * float(Xd @ (W * Xd)) \
            + sum(scad_value(t, lam) for t in np.abs(beta))

    @staticmethod
    def _covariances(X, W, c0, start, beta):
        """c = c0 - X' W X (beta - start), fresh."""
        return c0 - X.T @ (W * (X @ (beta - start)))

    @staticmethod
    def _states(before, after):
        return [np.concatenate([after[:k], before[k:]])
                for k in range(before.size + 1)]

    def test_accepted_moves_never_increase_surrogate(self):
        for seed in (0, 1, 2):
            X, lam, sweeps = self._sweeps(seed, lam=0.15)
            moves = 0
            for W, c0, before, after, _ in sweeps:
                moves += int(np.count_nonzero(after != before))
                values = [self._full_surrogate(X, lam, W, c0, before, b)
                          for b in self._states(before, after)]
                assert all(b - a <= 1e-10 for a, b in zip(values, values[1:]))
            assert moves, "no moves recorded"

    def test_incremental_residual_matches_fresh(self):
        # The covariances c kept by the sweep's updates against a fresh
        # c0 - X' W X (beta - beta_start) at the end of each sweep.
        X, _, sweeps = self._sweeps(1, lam=0.1)
        for W, c0, before, after, c in sweeps:
            fresh = self._covariances(X, W, c0, before, after)
            assert np.max(np.abs(fresh - c)) < 1e-8


class TestNewtonStep:
    """The Newton steps cd_fit takes between sweeps, replayed on the
    literal partial likelihood."""

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.1, 0.2])
    @pytest.mark.parametrize("seed", range(3))
    def test_accepted_steps_lower_the_objective(self, seed, lam,
                                                 monkeypatch):
        ds, g = sim_cox(seed, n=100, p=30, beta_true=[1.0, -0.8, 0.6, 0.5]
                        + [0.0] * 26, g_scale=0.3)
        X = ds.standardized[0]
        newton_step = coordinate_descent._newton_step
        accepted = []

        def recorded(*args):
            # sweeps update beta in place, so keep copies
            out = newton_step(*args)
            if out[0] is not args[3]:
                accepted.append((args[3].copy(), out[0].copy()))
            return out

        monkeypatch.setattr(coordinate_descent, "_newton_step", recorded)
        cd_fit(ds, g, None, lam, tol=1e-9)

        def objective(b):
            return direct_q(ds.times, ds.status, X @ b + g) \
                + sum(scad_value(t, lam) for t in np.abs(b))

        assert accepted
        for before, after in accepted:
            assert np.array_equal(np.sign(after), np.sign(before))
            assert objective(after) < objective(before) + 1e-12

    def test_one_risk_set_pass_per_predictor(self, monkeypatch):
        # Every risk-set pass reads the dataset's index with its predictor
        # in the local eta; record that eta at each read.  The warm start,
        # the fit at the next lambda down as on a lambda path, sits on a
        # settled support, so Newton steps run between sweeps, and each
        # must take its Hessian block from the pass already made at its
        # beta, not from a second pass at the same eta.
        ds, g = sim_cox(0, n=100, p=30, beta_true=[1.0, -0.8, 0.6, 0.5]
                        + [0.0] * 26, g_scale=0.3)
        beta_warm = cd_fit(ds, g, None, 0.05)
        index = ds.index
        etas = []

        def read_index(dataset):
            etas.append(sys._getframe(1).f_locals["eta"].copy())
            return index

        monkeypatch.setattr(SurvivalDataset, "index", property(read_index))
        info = {}
        cd_fit(ds, g, beta_warm, 0.1, info=info)
        # one pass per sweep but the last; any more are Newton trial points
        assert len(etas) > info["sweeps"]
        assert len({eta.tobytes() for eta in etas}) == len(etas)


def reference_sweep(X, W, grad, beta, lam):
    """The per-coordinate residual sweep the covariance updates replaced:
    h_j = x_j' u + v_j beta_j on the weighted residual u, which starts at
    -grad and which every move updates in place."""
    WX = X * W[:, None]
    u = -grad
    v_all = np.maximum(np.einsum("ij,ij->j", WX, X), V_FLOOR).tolist()
    for j, v in enumerate(v_all):
        old = float(beta[j])
        h = float(X[:, j] @ u) + v * old
        new = scad_threshold(h, v, lam)
        if new != old:
            u -= (new - old) * WX[:, j]
            beta[j] = new


def reference_cd_fit(ds, g, lam, beta_init=None, tol=1e-5, max_sweeps=100):
    """Plain cyclic CD around reference_sweep, without Newton steps.

    Returns the original-scale beta, whether the sweep change reached tol,
    and the (W, grad, beta) at the start of each sweep."""
    X, scale = ds.standardized
    beta = np.zeros(ds.p) if beta_init is None else beta_init * scale
    starts = []
    for _ in range(max_sweeps):
        _, grad, W = cox_terms(X @ beta + g, ds)
        starts.append((W, grad, beta.copy()))
        reference_sweep(X, W, grad, beta, lam)
        if float(np.linalg.norm(beta - starts[-1][2])) <= tol:
            return beta / scale, True, starts
    return beta / scale, False, starts


class TestMatchesResidualSweep:
    """cd_fit against the residual-update sweep, on p < n and p > n."""

    @staticmethod
    def _data(seed, n, p):
        beta_true = np.zeros(p)
        beta_true[:4] = [1.0, -0.8, 0.6, 0.5]
        return sim_cox(seed, n=n, p=p, beta_true=beta_true, g_scale=0.3)

    @pytest.mark.parametrize("n,p", [(60, 8), (100, 30), (40, 120)])
    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_sweeps(self, seed, lam, n, p):
        # Every sweep of the reference path, replayed by _sweep from the
        # same start.
        ds, g = self._data(seed, n, p)
        X = ds.standardized[0]
        for W, grad, start in reference_cd_fit(ds, g, lam)[2]:
            ref, beta = start.copy(), start.copy()
            reference_sweep(X, W, grad, ref, lam)
            _sweep(X, W, -(grad @ X), beta, lam)
            assert np.array_equal(beta != 0.0, ref != 0.0)
            assert np.max(np.abs(beta - ref)) <= 1e-10

    @pytest.mark.parametrize("n,p", [(60, 8), (100, 30), (40, 120)])
    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_path(self, seed, lam, n, p):
        # Newton steps change the trajectory, not the fixed points: at tol
        # 1e-9 each method's converged point is one of the other's.  The
        # cold starts may reach different stationary points at p > n
        # (seed 1, lam 0.2 does), and where plain CD does not converge in
        # 1 000 sweeps (the p > n fits at lam 0.05 and 0.1, whose
        # objective has no minimum) cd_fit must not claim to.
        ds, g = self._data(seed, n, p)
        ref, ref_converged, _ = reference_cd_fit(ds, g, lam, tol=1e-9,
                                                 max_sweeps=1000)
        info = {}
        try:
            beta = cd_fit(ds, g, None, lam, tol=1e-9, max_sweeps=1000,
                          info=info)
        except NumericalDivergence:
            info["converged"] = False
        if not ref_converged:
            assert not info["converged"]
            return
        assert info["converged"]
        pairs = [(cd_fit(ds, g, ref, lam, tol=1e-9), ref),
                 (reference_cd_fit(ds, g, lam, beta, tol=1e-9)[0], beta)]
        for moved, start in pairs:
            assert np.array_equal(moved != 0.0, start != 0.0)
            assert np.max(np.abs(moved - start)) <= 1e-6
