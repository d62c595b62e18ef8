"""Right-censored survival data in time order, and the Cox partial likelihood.

The negative log partial likelihood of a linear predictor eta is

    q(eta) = -(1/n) sum_i status_i * [eta_i - log sum_{j in R_i} exp(eta_j)]

where R_i = {j : T_j >= T_i} is the at-risk set at subject i's follow-up
time.  All risk-set sums are evaluated with max-subtraction so that
predictors with |eta| up to a few tens stay overflow-safe.  A dataset
stores its rows sorted by time, so R_i is a suffix and the history set
C_m = {i : T_i <= T_m} a prefix of the rows (ties grouped), and every
quantity here is O(n) given the tie boundaries `SurvivalDataset.index`.
`cox_terms` checks a plain eta array and returns q, its gradient and its
Hessian diagonal from one such pass.  The unchecked `_loss_terms` that the
training pass and coordinate descent call makes the same pass and
evaluates that diagonal, and the full Hessian in the coefficients of a few
given columns (coordinate descent's Newton step), only when asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SurvivalDataset:
    """Observed survival data, its rows stored in one canonical order.

    times : (n,) positive follow-up times.
    status : (n,) event indicators, 1 = event, 0 = censored.
    x : (n, p) covariates entering the model linearly (p may exceed n).
    z : (n, r) covariates handled by the nonparametric risk term (r <= n).
    rows : (n,) set on construction: stored row k is row rows[k] of the
        arrays given.

    The rows are stored sorted by time, then status, and rows that tie on
    both by their x values, then their z values.  So every row permutation
    of one dataset stores the same arrays bit for bit, and whatever is
    computed from them, a fit included, does not depend on the row order
    given.
    """

    times: np.ndarray
    status: np.ndarray
    x: np.ndarray
    z: np.ndarray
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        status = np.asarray(self.status, dtype=float)
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("empty dataset")
        n = times.size
        if not np.all(np.isfinite(times)) or np.any(times <= 0):
            raise ValueError("times must be finite and > 0")
        if status.shape != (n,) or not np.all(np.isin(status, (0.0, 1.0))):
            raise ValueError("status must be 0/1 with one entry per subject")
        if x.ndim != 2 or x.shape[0] != n:
            raise ValueError("x must be a 2-d array with n rows")
        if z.ndim != 2 or z.shape[0] != n:
            raise ValueError("z must be a 2-d array with n rows")
        if z.shape[1] > n:
            raise ValueError("z has more columns than subjects")
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
            raise ValueError("x and z must be finite")
        rows = np.lexsort((status, times))
        tied = ((times[rows[1:]] == times[rows[:-1]])
                & (status[rows[1:]] == status[rows[:-1]]))
        if tied.any():
            # lexsort's cost grows with its keys, so only the rows of a
            # tie are sorted again, with the value keys; each tie keeps
            # its place, as it sorts first on the same time and status
            in_tie = np.r_[tied, False] | np.r_[False, tied]
            sub = rows[in_tie]
            values = np.hstack((x[sub], z[sub])).T[::-1]
            rows[in_tie] = sub[np.lexsort((*values, status[sub], times[sub]))]
        for name, values in (("times", times), ("status", status),
                             ("x", x), ("z", z)):
            object.__setattr__(self, name, values[rows])
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def r(self) -> int:
        return self.z.shape[1]

    @cached_property
    def index(self) -> tuple:
        """(first_tie, last_tie): the first and the last row sharing each
        row's time, built on first use and kept.

        The at-risk set of row k is the suffix from row first_tie[k], and
        its history set the prefix up to row last_tie[k]; ties are
        mutually included on both sides.
        """
        ts = self.times
        n = ts.size
        pos = np.arange(n)
        new = ts[1:] != ts[:-1]  # row k + 1 starts a new time
        first_tie = np.maximum.accumulate(np.where(np.r_[True, new], pos, -1))
        last_tie = np.minimum.accumulate(
            np.where(np.r_[new, True], pos, n)[::-1])[::-1]
        return first_tie, last_tie

    @cached_property
    def standardized(self) -> tuple:
        """(X, scale): x with each column centered and divided by scale,
        its standard deviation, built on first use and kept read-only.

        A constant column is centered on its own value, so it becomes
        exactly zero, and its scale is 1; its rounded mean could leave a
        +-1e-17 column behind that the scaling would blow up to +-1.
        """
        x = self.x
        constant = np.all(x == x[0], axis=0)
        mean = np.where(constant, x[0], x.mean(axis=0))
        sd = x.std(axis=0)
        scale = np.where((sd > 0) & ~constant, sd, 1.0)
        X = (x - mean) / scale
        X.flags.writeable = scale.flags.writeable = False
        return X, scale


def subset(dataset: SurvivalDataset, idx: np.ndarray) -> SurvivalDataset:
    """The dataset of stored rows idx (used by train/test splitting); its
    `rows` index idx."""
    idx = np.asarray(idx, dtype=int)
    return SurvivalDataset(
        times=dataset.times[idx],
        status=dataset.status[idx],
        x=dataset.x[idx],
        z=dataset.z[idx],
    )


def stratified_split(status, test_fraction, rng):
    """Split subject indices into (train, test), stratified by event status.

    Each stratum contributes round(test_fraction * stratum size) subjects to
    the test side, which keeps the event fraction within one subject of the
    full-sample rate.
    """
    status = np.asarray(status)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    train_parts, test_parts = [], []
    for value in (0.0, 1.0):
        members = np.flatnonzero(status == value)
        if members.size == 0:
            continue
        perm = rng.permutation(members)
        n_test = int(round(test_fraction * members.size))
        test_parts.append(perm[:n_test])
        train_parts.append(perm[n_test:])
    train = np.sort(np.concatenate(train_parts)) if train_parts else np.empty(0, int)
    test = np.sort(np.concatenate(test_parts)) if test_parts else np.empty(0, int)
    if train.size == 0 or test.size == 0:
        raise ValueError("split produced an empty side; adjust test_fraction")
    return train, test


def _loss_terms(eta: np.ndarray, dataset: SurvivalDataset):
    """One risk-set pass at a float eta of length n, unchecked:
    (q, grad, curvature, hessian).

    q and grad are those of `cox_terms`; curvature() returns its w and
    hessian(cols) the k x k Hessian of q in the coefficients of cols, an
    (n, k) block of covariates, both from the pass's exponentials e and
    risk-set sums a.  With pi(m, i) = exp(eta_m) / S_i,

        pi1_m = sum over the history prefix of status_i * pi(m, i),
        pi2_m = sum over the history prefix of status_i * pi(m, i)**2,

    w = (pi1 - pi2) / n, and the block is
    (cols' diag(pi1) cols - xbar' diag(status) xbar) / n, xbar_i being the
    e-weighted mean of cols over the risk set R_i; eta, cols and every
    result follow the dataset's rows.  The fast path subtracts the max
    before exponentiating; if the predictor spread is too extreme
    to keep status / a**2 and its running sum finite, q, grad and w are
    redone in log space, which stays finite for any finite eta.  The block
    keeps the fast path, so such a spread can give it non-finite entries,
    which callers check.  The fast path divides by sums that may underflow
    to zero, so the pass and both functions run with floating-point
    warnings ignored.  A non-finite eta gives a non-finite q.
    """
    n = dataset.n
    status = dataset.status
    first_tie, last_tie = dataset.index
    # np.add.accumulate and np.maximum.reduce are np.cumsum and max without
    # their Python wrappers, which cost as much as the work at n in the
    # hundreds, where this runs once per Adam step and CD sweep
    shift = float(np.maximum.reduce(eta))
    e = np.exp(eta - shift)
    a = np.add.accumulate(e[::-1])[::-1][first_tie]
    # status / a**2 overflows once a drops below about 1e-154, and tie
    # groups repeat its terms in the running sum, so no bare bound on a
    # (1e-150, say) keeps that sum finite: check the sum itself.
    d = status / a
    d2_sum = np.add.accumulate(d / a)
    pi1 = fast_pi1 = e * np.add.accumulate(d)[last_tie]
    if math.isfinite(d2_sum[-1]):
        log_s = np.log(a) + shift

        def pi2():
            return (e * e) * d2_sum[last_tie]
    else:
        log_s = np.logaddexp.accumulate(eta[::-1])[::-1][first_tie]
        log_d = np.where(status > 0, -log_s, -np.inf)
        pi1 = np.exp(eta + np.logaddexp.accumulate(log_d)[last_tie])

        def pi2():
            return np.exp(2.0 * eta
                          + np.logaddexp.accumulate(2.0 * log_d)[last_tie])
    loss = float(-np.add.reduce(status * (eta - log_s)) / n)
    grad = (pi1 - status) / n

    def curvature():
        w = (pi1 - pi2()) / n
        # Each contribution is of the form pi * (1 - pi); stray sign from
        # cancellation is rounding noise only.
        np.maximum(w, 0.0, out=w)
        return w

    def hessian(cols):
        risk = np.add.accumulate((cols * e[:, None])[::-1])[::-1]
        xbar = risk[first_tie] / a[:, None]
        return ((cols * fast_pi1[:, None]).T @ cols
                - (xbar * status[:, None]).T @ xbar) / n

    return loss, grad, curvature, hessian


def cox_terms(eta, dataset: SurvivalDataset):
    """Loss, gradient and curvature of q at eta, from one risk-set pass.

    Returns (q, grad, w): q is the averaged negative log partial
    likelihood, grad = (pi1 - status) / n is its gradient (whose
    components sum to zero), and w is the nonnegative diagonal of its
    Hessian.  eta, grad and w follow the dataset's stored rows.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (dataset.n,):
        raise ValueError("predictor length does not match dataset")
    if not np.isfinite(eta).all():
        raise ValueError("non-finite predictor")
    with np.errstate(all="ignore"):
        loss, grad, curvature, _ = _loss_terms(eta, dataset)
        return loss, grad, curvature()
