"""Synthetic survival benchmark: data generation, metrics, replicate runner.

Covariates are jointly Gaussian with an equicorrelation structure, true
survival times are exponential with hazard exp(beta0'x + g0(z)), and
censoring times are uniform on [0, C] with C calibrated so the expected
censoring fraction hits a target (30% by default).  Each replicate is
split 80/20 stratified by event status; models are tuned on the training
side and scored by test C-index plus support-recovery counts against the
known truth.
"""

from __future__ import annotations

import contextlib
import logging
import math
import zlib
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .estimator import FitConfig, predict_eta, tune_lambda
from .survival import SurvivalDataset, stratified_split, subset

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimConfig:
    """Data-generating settings for one scenario."""

    n: int = 300
    p: int = 50
    r: int = 8
    s_beta: int = 10
    rho: float = 0.2
    g0_kind: str = "linear"
    target_censoring: float = 0.30
    replicates: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.p < 1 or self.r < 1:
            raise ValueError("n, p, r must be positive (n >= 2)")
        if self.r > self.n:
            raise ValueError("r must be <= n: z has more columns than "
                             "subjects")
        if not 0 <= self.s_beta <= self.p:
            raise ValueError("s_beta must lie in [0, p]")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.g0_kind not in ("linear", "nonlinear", "zero"):
            raise ValueError("g0_kind must be linear, nonlinear, or zero")
        if self.g0_kind == "nonlinear" and self.r < 8:
            raise ValueError("nonlinear g0 needs r >= 8 z columns")
        if not 0.0 < self.target_censoring < 1.0:
            raise ValueError("target_censoring must be in (0, 1)")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def gen_covariates(cfg: SimConfig, rng):
    """Joint (p+r)-dim Gaussian, unit variance, pairwise correlation rho.

    Uses the factor form sqrt(rho) * shared + sqrt(1 - rho) * own, which
    realizes the equicorrelation matrix exactly.
    """
    shared = rng.standard_normal((cfg.n, 1))
    own = rng.standard_normal((cfg.n, cfg.p + cfg.r))
    m = math.sqrt(cfg.rho) * shared + math.sqrt(1.0 - cfg.rho) * own
    return m[:, :cfg.p], m[:, cfg.p:]


def gen_beta0(cfg: SimConfig, rng) -> np.ndarray:
    """Sparse truth: s_beta entries at uniform magnitude 0.5..2, random sign."""
    beta0 = np.zeros(cfg.p)
    if cfg.s_beta > 0:
        support = np.sort(rng.choice(cfg.p, size=cfg.s_beta, replace=False))
        magnitudes = rng.uniform(0.5, 2.0, size=cfg.s_beta)
        signs = rng.choice((-1.0, 1.0), size=cfg.s_beta)
        beta0[support] = magnitudes * signs
    return beta0


def g0_eval(z, kind: str, alpha0=None):
    """True nonparametric risk term.

    linear: alpha0'z.  nonlinear: a fixed 8-argument formula mixing an
    exponential, a log of a squared gap, a sine interaction, and a squared
    contrast.  zero: identically 0.  Accepts one row or a batch.
    """
    single = np.asarray(z).ndim == 1
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if kind == "zero":
        out = np.zeros(z.shape[0])
    elif kind == "linear":
        alpha0 = np.asarray(alpha0, dtype=float)
        if alpha0.shape != (z.shape[1],):
            raise ValueError("alpha0 length must match z columns")
        out = z @ alpha0
    elif kind == "nonlinear":
        if z.shape[1] < 8:
            raise ValueError("nonlinear g0 needs at least 8 z columns")
        gap = z[:, 1] - z[:, 2]
        degenerate = gap == 0.0
        if np.any(degenerate):
            logger.warning("g0_eval: %d rows with z2 == z3 perturbed by 1e-12",
                           int(degenerate.sum()))
            gap = np.where(degenerate, 1e-12, gap)
        out = (0.68 * np.exp(z[:, 0])
               - 0.45 * np.log(gap ** 2)
               + 0.32 * np.sin(z[:, 3] * z[:, 4])
               - 0.45 * (z[:, 5] - z[:, 6] + z[:, 7]) ** 2
               - 0.32)
    else:
        raise ValueError("unknown g0 kind: %r" % (kind,))
    return float(out[0]) if single else out


def gen_survival(X, beta0, g0_vals, rng) -> np.ndarray:
    """Exponential event times by inverse CDF: -log(U) / exp(eta0)."""
    eta0 = X @ np.asarray(beta0, dtype=float) + np.asarray(g0_vals, dtype=float)
    u = 1.0 - rng.random(eta0.size)
    return -np.log(u) / np.exp(eta0)


def censoring_rate(U, bound: float) -> float:
    """Expected censored fraction for C ~ Uniform[0, bound] given times U."""
    return float(np.mean(np.minimum(np.asarray(U, dtype=float) / bound, 1.0)))


def calibrate_censoring(U, target_rate: float, tol: float = 0.01) -> float:
    """Bisect for the uniform censoring upper bound hitting the target rate.

    The expected rate mean_i P(C_i < U_i) = mean_i min(U_i / C, 1) is
    monotone decreasing in C.  At C = min U it is exactly 1, above any
    target in (0, 1), so that is the lower end of the bracket; the upper
    end doubles from 2 max U until the rate falls to the target.
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError("target_rate must be in (0, 1)")
    U = np.asarray(U, dtype=float)
    if U.size == 0 or np.any(~np.isfinite(U)) or np.any(U <= 0):
        raise ValueError("U must be finite and positive")
    lo = float(U.min())
    hi = float(U.max()) * 2.0
    while censoring_rate(U, hi) > target_rate:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError("target censoring rate unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = censoring_rate(U, mid)
        if abs(rate - target_rate) <= tol:
            return mid
        if rate > target_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _smaller_before(keys) -> np.ndarray:
    """For each position k, the number of positions j < k with keys[j] < keys[k].

    keys are non-negative integers.  keys[j] < keys[k] when, at the highest
    bit b where they differ, j has a 0 and k a 1.  The bits are visited from
    the top, as in a wavelet matrix: `order` holds the positions that share
    the bits above b as one contiguous block, in position order, so the 0s
    at bit b ahead of k inside its block are the j counted at bit b.  A
    stable partition by bit b then forms the blocks for the next bit.  Each
    bit costs O(n).
    """
    below = np.zeros(keys.size, dtype=np.int64)
    order = np.arange(keys.size)
    for b in reversed(range(int(keys.max()).bit_length())):
        k = keys[order]
        one = (k >> b) & 1 == 1
        prefix = k >> (b + 1)
        head = np.r_[True, prefix[1:] != prefix[:-1]]
        start = np.maximum.accumulate(np.where(head, np.arange(keys.size), 0))
        zeros_before = np.cumsum(~one) - ~one
        below[order[one]] += (zeros_before - zeros_before[start])[one]
        order = np.concatenate((order[~one], order[one]))
    return below


def c_index(risk, times, status) -> float:
    """Harrell's concordance over pairs (i, j) with T_i < T_j and an event at i.

    Concordant pairs (risk_i > risk_j) score 1, risk ties score 1/2.  The
    pairs are counted from ranks, in O(n log n) time and O(n) memory.
    """
    risk = np.asarray(risk, dtype=float)
    times = np.asarray(times, dtype=float)
    status = np.asarray(status, dtype=float)
    if not risk.ndim == times.ndim == status.ndim == 1:
        raise ValueError("risk, times and status must be one-dimensional")
    if not risk.size == times.size == status.size:
        raise ValueError("risk, times and status lengths differ (%d, %d, %d)"
                         % (risk.size, times.size, status.size))
    if risk.size < 2:
        raise ValueError("need at least two subjects")
    if not np.isfinite(risk).all():
        raise ValueError("risk must be finite")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    n = risk.size
    event = status == 1.0
    # comparable pairs: every later time, per event
    total = int((n - np.searchsorted(np.sort(times), times[event], "right")).sum())
    if total == 0:
        raise ValueError("no comparable pairs")
    t_rank = np.unique(times, return_inverse=True)[1]
    r_rank = np.unique(risk, return_inverse=True)[1]
    # In order of time descending, and of risk descending within a time, the
    # subjects ahead of i with a lower risk are exactly those with a later
    # time and a lower risk.
    order = np.lexsort((-r_rank, -t_rank))
    concordant = int(_smaller_before(r_rank[order])[event[order]].sum())
    # risk ties at a later time: a range of the sorted (risk, time) keys
    n_times = int(t_rank.max()) + 1
    keys = np.sort(r_rank * n_times + t_rank)
    r_ev, t_ev = r_rank[event], t_rank[event]
    tied = int((np.searchsorted(keys, (r_ev + 1) * n_times, "left")
                - np.searchsorted(keys, r_ev * n_times + t_ev, "right")).sum())
    return float((concordant + 0.5 * tied) / total)


@dataclass(frozen=True)
class SelectionRow:
    """Support-recovery counts for one fitted model; rates are percentages.
    fnn and fnr_pct are None when the true support is empty."""

    selected_count: int
    fpn: int
    fpr_pct: float
    fnn: Optional[int]
    fnr_pct: Optional[float]


def selection_metrics(selected, truth, p: int) -> SelectionRow:
    """FPN/FPR/FNN/FNR of a selected set against the true support; FPR
    is taken over the p - len(truth) features outside it."""
    selected = set(int(j) for j in selected)
    truth = set(int(j) for j in truth)
    if any(j < 0 or j >= p for j in selected | truth):
        raise ValueError("indices must lie in [0, p)")
    fpn = len(selected - truth)
    fnn = len(truth - selected) if truth else None
    return SelectionRow(
        selected_count=len(selected),
        fpn=fpn,
        fpr_pct=100.0 * fpn / (p - len(truth)) if p > len(truth) else 0.0,
        fnn=fnn,
        fnr_pct=100.0 * fnn / len(truth) if truth else None,
    )


SELECTION_FIELDS = tuple(f.name for f in fields(SelectionRow))


@dataclass
class SimulatedData:
    """One generated replicate with its ground truth."""

    dataset: SurvivalDataset
    beta0: np.ndarray
    support0: np.ndarray
    alpha0: Optional[np.ndarray]
    g0_vals: np.ndarray
    censoring_bound: float
    censoring_rate: float


def simulate_dataset(cfg: SimConfig, replicate: int = 0) -> SimulatedData:
    """Generate one dataset from the replicate-th spawned child of the
    master seed; g0_vals follow the dataset's stored rows, and its `rows`
    give each one's place in generation order."""
    child = np.random.SeedSequence(cfg.seed, spawn_key=(replicate,))
    rng = np.random.default_rng(child)
    X, Z = gen_covariates(cfg, rng)
    beta0 = gen_beta0(cfg, rng)
    alpha0 = rng.uniform(-2.0, 2.0, size=cfg.r) if cfg.g0_kind == "linear" else None
    g0_vals = g0_eval(Z, cfg.g0_kind, alpha0)
    U = gen_survival(X, beta0, g0_vals, rng)
    bound = calibrate_censoring(U, cfg.target_censoring)
    C = rng.uniform(0.0, bound, size=cfg.n)
    status = (U <= C).astype(float)
    T = np.minimum(U, C)
    dataset = SurvivalDataset(times=T, status=status, x=X, z=Z)
    return SimulatedData(dataset=dataset, beta0=beta0,
                         support0=np.flatnonzero(beta0 != 0.0),
                         alpha0=alpha0, g0_vals=g0_vals[dataset.rows],
                         censoring_bound=bound,
                         censoring_rate=float(1.0 - status.mean()))


@dataclass
class ReplicateRow:
    """One (replicate, method) outcome; error is set when the fit failed."""

    replicate: int
    method: str
    censoring_rate: float
    lambda_selected: Optional[float] = None
    c_index_test: Optional[float] = None
    selected_count: Optional[int] = None
    fpn: Optional[int] = None
    fpr_pct: Optional[float] = None
    fnn: Optional[int] = None
    fnr_pct: Optional[float] = None
    fits_not_converged: Optional[int] = None  # of the fits tune_lambda ran
    error: Optional[str] = None


REPLICATE_FIELDS = [f.name for f in fields(ReplicateRow)]


def _run_replicate(args):
    """Worker for one replicate: generate, split, fit every method."""
    sim_cfg, methods, rep = args

    def failed(step, censoring, exc):  # such failures poison every method
        return [ReplicateRow(replicate=rep, method=method,
                             censoring_rate=censoring,
                             error="%s failed: %s" % (step, exc))
                for method in methods]

    try:
        data = simulate_dataset(sim_cfg, rep)
    except Exception as exc:
        return failed("generation", float("nan"), exc)
    split_rng = np.random.default_rng(
        np.random.SeedSequence([sim_cfg.seed, rep, 424243]))
    try:
        train_idx, test_idx = stratified_split(data.dataset.status, 0.2,
                                               split_rng)
        train_ds = subset(data.dataset, train_idx)
        test_ds = subset(data.dataset, test_idx)
    except ValueError as exc:  # a side too small to form a dataset
        return failed("split", data.censoring_rate, exc)
    rows = []
    for method, cfg in methods.items():
        row = ReplicateRow(replicate=rep, method=method,
                           censoring_rate=data.censoring_rate)
        try:
            name_tag = zlib.crc32(method.encode("utf-8"))
            fit_cfg = replace(cfg, seed=int(
                np.random.SeedSequence([sim_cfg.seed, rep, name_tag])
                .generate_state(1)[0]))
            info = {}
            best, _ = tune_lambda(train_ds, fit_cfg, info=info)
            row.lambda_selected = best.lam
            eta_test = predict_eta(best, test_ds.x, test_ds.z)
            row.c_index_test = c_index(eta_test, test_ds.times, test_ds.status)
            sel = selection_metrics(best.support, data.support0, sim_cfg.p)
            for name in SELECTION_FIELDS:
                setattr(row, name, getattr(sel, name))
            row.fits_not_converged = info["fits_not_converged"]
        except Exception as exc:
            row.error = str(exc)
        rows.append(row)
    return rows


def _aggregate(rows, methods):
    summary = {}
    for method in methods:
        ok = [r for r in rows if r.method == method and r.error is None]
        failed = [r for r in rows if r.method == method and r.error is not None]
        entry = {"replicates_ok": len(ok), "replicates_failed": len(failed),
                 "fits_not_converged": sum(r.fits_not_converged for r in ok)}
        if ok:
            cvals = np.array([r.c_index_test for r in ok])
            q1, med, q3 = np.percentile(cvals, [25, 50, 75])
            entry["c_index"] = {"median": float(med), "q1": float(q1),
                                "q3": float(q3), "iqr": float(q3 - q1)}
            for name in SELECTION_FIELDS:
                vals = np.array([getattr(r, name) for r in ok
                                 if getattr(r, name) is not None], dtype=float)
                if vals.size:
                    se = float(vals.std(ddof=1) / np.sqrt(vals.size)) \
                        if vals.size > 1 else 0.0
                    entry[name] = {"mean": float(vals.mean()), "se": se,
                                   "n": int(vals.size)}
        summary[method] = entry
    return summary


def run_experiment(sim_cfg: SimConfig, methods: dict[str, FitConfig],
                   n_workers: int = 1, row_callback=None):
    """Run every method on sim_cfg.replicates independently generated
    datasets; returns (rows, summary).

    methods maps each method's name to its FitConfig, lambda grid included;
    rows and summary keep the dict's order.  All methods within a
    replicate see the same data and the same split.
    Replicates run in parallel on up to n_workers processes, never more
    than there are replicates; rows are always delivered (and passed to
    row_callback) in replicate order, so outputs are reproducible for a
    fixed master seed.  Failed replicates are recorded in their rows,
    never dropped.
    """
    jobs = [(sim_cfg, methods, rep) for rep in range(sim_cfg.replicates)]
    # the pool starts all its workers on the first submit
    n_workers = min(n_workers, sim_cfg.replicates)
    all_rows = []
    with contextlib.ExitStack() as stack:
        run_map = map
        if n_workers > 1:
            # imported here: it loads multiprocessing, which no other
            # command needs
            from concurrent.futures import ProcessPoolExecutor
            run_map = stack.enter_context(
                ProcessPoolExecutor(max_workers=n_workers)).map
        for rep_rows in run_map(_run_replicate, jobs):
            all_rows.extend(rep_rows)
            if row_callback is not None:
                for row in rep_rows:
                    row_callback(row)
    return all_rows, _aggregate(all_rows, methods)


def fmt_value(value) -> str:
    """Round-trip-exact text for CSV cells (repr for floats)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # builtin repr even for numpy scalars
    return str(value)
