"""Shared oracles and data builders for the test suite.

The reference implementations here translate the defining formulas
literally (explicit set comprehensions, finite differences) and never call
into the package code paths they are used to check.  `train_pass` is not
an oracle: it runs the package's own training pass for the tests that
check it, and `replay_tune_lambda` rebuilds `tune_lambda`'s two rounds
from the public `fit` and `cd_fit` calls it is specified by.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dplc import (SurvivalDataset, cd_fit, cox_terms, estimator, fit,
                  forward, zero_network)
from dplc.network import _TrainPass


def make_dataset(times, status, x=None, z=None):
    times = np.asarray(times, dtype=float)
    n = times.size
    if x is None:
        x = np.zeros((n, 1))
    if z is None:
        z = np.zeros((n, 1))
    return SurvivalDataset(times=times, status=np.asarray(status, float),
                           x=np.asarray(x, float), z=np.asarray(z, float))


def train_pass(net, dataset, beta_fixed, rng=None):
    """One training pass of net, as `adam_fit` runs it: the loss and the
    per-layer (weight, bias) gradient views into the pass's flat gradient."""
    train = _TrainPass(net, dataset, beta_fixed, rng)
    with np.errstate(all="ignore"):
        loss = train()
    return loss, list(zip(train.grads_w, train.grads_b))


def cd_entry(dataset, cfg, g_vals, beta, lam):
    """One warm cd_fit call at lam from beta at the fixed offset g_vals:
    (beta, bic, converged), with bic = 2n q + log(n) (selected count)."""
    info = {}
    beta = cd_fit(dataset, g_vals, beta, lam, max_sweeps=cfg.max_sweeps,
                  info=info)
    q = cox_terms(dataset.x @ beta + g_vals, dataset)[0]
    return (beta, 2.0 * dataset.n * q
            + np.log(dataset.n) * np.count_nonzero(beta), info["converged"])


def cd_chain(dataset, cfg, net):
    """cfg.lambda_grid as a warm chain of cd_entry calls from beta = 0 at
    the fixed offset forward(net, dataset.z): one (lam, beta, bic) per
    grid value, and the BIC pick, ties going to the later entry."""
    g_vals = forward(net, dataset.z)
    entries, beta = [], None
    for lam in cfg.lambda_grid:
        beta, bic, _ = cd_entry(dataset, cfg, g_vals, beta, lam)
        entries.append((lam, beta, bic))
    low = min(bic for _, _, bic in entries)
    return entries, [e for e in entries if e[2] == low][-1]


def replay_tune_lambda(dataset, cfg):
    """tune_lambda(dataset, cfg)'s answer from its specification: (best,
    entries, nets).  With a network, a pilot fit at PILOT_LAM gives round
    1's network; each round runs cd_chain at its network and fits at the
    pick, warm from the pick's beta and the round's network, and round 2
    refits only when its pick has another lam.  entries are the last
    chain's, nets the network of each round.  With cfg.arch None, the chain
    at the zero network is all, and best is its pick's (lam, beta, bic).
    PILOT_LAM is read at call time, so this module imports against any
    dplc tree (tools/bench_acceptance.py imports it beside older ones)."""
    if cfg.arch is None:
        net = zero_network(dataset.r)
        entries, pick = cd_chain(dataset, cfg, net)
        return pick, entries, [net]
    best, fitted, nets = fit(dataset, cfg, estimator.PILOT_LAM), None, []
    for _ in range(2):
        nets.append(best.net)
        entries, (lam, beta, _) = cd_chain(dataset, cfg, best.net)
        if lam == fitted:
            break
        best = fit(dataset, cfg, lam, beta_init=beta, net_init=best.net)
        fitted = lam
    return best, entries, nets


def random_instance(seed, n=None, p=2, r=2, eta_scale=1.0):
    """Small random survival instance with ties sprinkled in, and a
    predictor eta drawn per given row and returned in the stored order."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(4, 21))
    times = rng.integers(1, max(3, n // 2) + 1, size=n).astype(float)
    status = (rng.random(n) < 0.7).astype(float)
    if status.sum() == 0:
        status[int(rng.integers(0, n))] = 1.0
    x = rng.standard_normal((n, p))
    z = rng.standard_normal((n, r))
    eta = eta_scale * rng.standard_normal(n)
    ds = make_dataset(times, status, x, z)
    return ds, eta[ds.rows]


def naive_risk_set(times, i):
    return {j for j in range(len(times)) if times[j] >= times[i]}


def naive_history_set(times, m):
    return {i for i in range(len(times)) if times[i] <= times[m]}


def index_sets(index):
    """Per-row (risk sets, history sets) read off a dataset's index.

    Row k has the rows from first_tie[k] on as its risk set and the rows
    up to last_tie[k] as its history set.
    """
    first_tie, last_tie = index
    n = first_tie.size
    risk = [set(range(first_tie[k], n)) for k in range(n)]
    history = [set(range(last_tie[k] + 1)) for k in range(n)]
    return risk, history


def naive_neg_log_pl(times, status, eta):
    """Literal partial-likelihood sum over explicit risk sets."""
    n = len(times)
    total = 0.0
    for i in range(n):
        if status[i] == 1:
            denom = sum(math.exp(eta[j]) for j in naive_risk_set(times, i))
            total += eta[i] - math.log(denom)
    return -total / n


def decimal_hessian_diag(times, status, eta, step="1e-12", digits=50):
    """Diagonal second differences of naive_neg_log_pl's literal sum, the
    sum evaluated in `digits`-digit decimal arithmetic.  Rounding then
    adds about 10**-digits / step**2 and truncation about step**2 to each
    entry, both far below float64 resolution."""
    def q(e):
        total = 0
        for i in range(len(times)):
            if status[i] == 1:
                denom = sum(e[j].exp() for j in naive_risk_set(times, i))
                total += e[i] - denom.ln()
        return -total / len(times)

    with localcontext() as ctx:
        ctx.prec = digits
        h = Decimal(step)
        e = [Decimal(float(v)) for v in eta]
        f0 = q(e)
        diag = np.zeros(len(e))
        for k in range(len(e)):
            up, down = list(e), list(e)
            up[k] += h
            down[k] -= h
            diag[k] = float((q(up) - 2 * f0 + q(down)) / (h * h))
    return diag


def naive_q_of_eta(dataset):
    def q(eta):
        return naive_neg_log_pl(dataset.times, dataset.status, np.asarray(eta))
    return q


def cox_hessian(eta, dataset, cols):
    """The k x k Hessian of q in the coefficients of cols, an (n, k) block,
    as its own max-subtracted risk-set pass at eta.

    It is (cols' diag(pi1) cols - xbar' diag(status) xbar) / n,
    where xbar_i is the exp(eta)-weighted mean of cols over the risk set
    R_i.  An extreme predictor spread can give non-finite entries; run
    with floating-point warnings ignored.
    """
    first_tie, last_tie = dataset.index
    status = dataset.status
    e = np.exp(eta - np.maximum.reduce(eta))
    a = np.add.accumulate(e[::-1])[::-1][first_tie]
    pi1 = e * np.add.accumulate(status / a)[last_tie]
    risk = np.add.accumulate((cols * e[:, None])[::-1])[::-1]
    xbar = risk[first_tie] / a[:, None]
    return ((cols * pi1[:, None]).T @ cols
            - (xbar * status[:, None]).T @ xbar) / dataset.n


def fd_gradient(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        up, down = x.copy(), x.copy()
        up[k] += step
        down[k] -= step
        grad[k] = (f(up) - f(down)) / (2.0 * step)
    return grad


def fd_hessian_diag(f, x, step=1e-4):
    x = np.asarray(x, dtype=float)
    diag = np.zeros_like(x)
    f0 = f(x)
    for k in range(x.size):
        up, down = x.copy(), x.copy()
        up[k] += step
        down[k] -= step
        diag[k] = (f(up) - 2.0 * f0 + f(down)) / step ** 2
    return diag


def rel_err(actual, expected, floor=1e-8):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return np.abs(actual - expected) / np.maximum(np.abs(expected), floor)


def fd_close(analytic, fd, rtol=1e-5, atol=1e-8):
    """Agreement with a finite-difference estimate.

    The absolute guard absorbs FD rounding noise (about eps/step) on
    entries whose true gradient is zero, e.g. dead ReLU units.
    """
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    diff = np.abs(analytic - fd)
    return np.all((diff <= atol) | (diff <= rtol * np.abs(fd)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
