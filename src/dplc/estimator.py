"""Alternating estimation of the sparse linear term and the risk network.

One outer iteration runs a short Adam pass on the network with the linear
coefficients held fixed, then penalized coordinate descent on the
coefficients with the network held fixed.  One Adam state is carried
through all outer iterations of a fit, at step size gamma / k in outer
iteration k (Kingma & Ba 2015).  The loop stops once the eval-mode
penalized loss has changed by at most OUTER_TOL, relative, on
OUTER_WINDOW consecutive outer iterations with the coefficient support
unchanged.  Adam always runs its inner steps, and coordinate descent
stops at cd_fit's default tolerance.  The SCAD strength lam is an
argument of fit, not a setting: tune_lambda picks it by BIC over the
config's grid, run as a warm chain of coordinate-descent calls at a fixed
network output (Friedman, Hastie & Tibshirani 2010), and trains the
network only at the pick; with no network (arch None) g = 0 and the chain
is the whole fit.
Architecture search fits each cell at the pick and scores it held out.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .coordinate_descent import _penalty, cd_fit
from .errors import NumericalDivergence
from .network import (Network, NetworkArch, _is_finite_number, _is_int,
                      adam_fit, center, forward, init_network,
                      network_from_dict, network_to_dict, zero_network)
from .survival import SurvivalDataset, cox_terms, stratified_split, subset

logger = logging.getLogger(__name__)

OUTER_WINDOW = 2  # consecutive stable outer iterations that end a fit
OUTER_TOL = 1e-3  # relative loss change of a stable outer iteration
# The pilot fit's lam.  At beta = 0, |c_j| = |x~_j' grad q| <= 2 max|x~_j|
# < 2 sqrt(n), below it for n < 250 000, so the pilot selects nothing.
PILOT_LAM = 1000.0


@dataclass(frozen=True)
class FitConfig:
    """Everything one fit needs besides the data.

    The defaults are the full default fit, and the run config's "fit"
    section sets these fields by name.  tune_lambda runs its
    coordinate-descent chain along lambda_grid, which must be ascending,
    finite and >= 0.
    gamma is Adam's step size, finite and > 0; the stopping tolerances are
    fixed (see fit).  arch=None is no network, so g is identically zero:
    the SCAD-penalized Cox baseline, whose whole fit is tune_lambda's chain.
    """

    lambda_grid: tuple = tuple(round(v, 6) for v in np.geomspace(0.05, 5.0, 12))
    arch: Optional[NetworkArch] = field(default_factory=NetworkArch)
    gamma: float = 0.01
    inner_steps: int = 20
    max_sweeps: int = 100
    max_outer: int = 25
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(lam) for lam in self.lambda_grid)
        object.__setattr__(self, "lambda_grid", grid)
        if not grid or any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be non-empty and ascending")
        if not all(0.0 <= lam < np.inf for lam in grid):
            raise ValueError("lambda_grid values must be finite and >= 0")
        if not 0.0 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and > 0")
        if self.inner_steps < 1 or self.max_sweeps < 1 or self.max_outer < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class FittedModel:
    """Sparse coefficients, the centered network, the penalty strength lam
    they were fitted at, and fit diagnostics.  A tune_lambda path entry is
    one coordinate-descent call at its network's fixed output, and its
    diagnostics hold only "cd_sweeps", "converged" and "bic" (see
    tune_lambda).  support and n_selected are read off beta_hat."""

    beta_hat: np.ndarray
    net: Network
    lam: Optional[float]
    diagnostics: dict

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.beta_hat)

    @property
    def n_selected(self) -> int:
        return int(np.count_nonzero(self.beta_hat))


def fit(dataset: SurvivalDataset, cfg: FitConfig, lam: float, *,
        beta_init=None, net_init: Optional[Network] = None) -> FittedModel:
    """Alternate network and coefficient updates until both stabilize.

    lam is the SCAD strength, finite and >= 0.  Outer iteration k runs
    cfg.inner_steps Adam steps at step size cfg.gamma / k, continuing the
    Adam moments of iteration k - 1, then coordinate descent on beta at
    cd_fit's default tolerance.  The fit has converged once the eval-mode
    penalized loss (diagnostics "loss_path"; it penalizes beta * scale,
    the standardized beta that coordinate descent penalizes) has changed
    by at most OUTER_TOL, relative to its previous value, on OUTER_WINDOW
    consecutive outer iterations with the support of beta unchanged over
    them; otherwise it stops after cfg.max_outer iterations.  "converged"
    is True only when that stopping rule held and the last coordinate
    descent call converged too (it did not run out of cfg.max_sweeps).
    "bic" is _bic at the last loss evaluation.  cfg.arch None is a
    ValueError: the g = 0 baseline is tune_lambda's chain, not a fit.
    """
    if cfg.arch is None:
        raise ValueError("arch=None is no fit: use tune_lambda's chain")
    if dataset.p < 1 or dataset.r < 1:
        raise ValueError("dataset needs at least one x and one z column")
    if not 0.0 <= lam < np.inf:
        raise ValueError("lam must be finite and >= 0")
    if net_init is not None and net_init.input_dim != dataset.r:
        raise ValueError("net_init takes %d z columns but dataset has r=%d"
                         % (net_init.input_dim, dataset.r))
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    net = init_network(cfg.arch, dataset.r, seeds[0]) if net_init is None \
        else net_init.copy()
    adam_rng = np.random.default_rng(seeds[1])

    beta = np.zeros(dataset.p) if beta_init is None \
        else np.asarray(beta_init, dtype=float).copy()
    g_vals = center(net, dataset.z)
    scale = dataset.standardized[1]

    def losses(b, g):  # q and the penalized loss at (b, g)
        with np.errstate(over="ignore", invalid="ignore"):
            q = cox_terms(dataset.x @ b + g, dataset)[0]
        return q, q + _penalty(b * scale, lam)

    loss_path = [losses(beta, g_vals)[1]]
    cd_sweeps = []
    moments = {}  # Adam's flat m and v, laid out like net.params, and t
    stable = 0
    for k in range(1, cfg.max_outer + 1):
        g_vals = adam_fit(net, dataset, beta, cfg.gamma / k,
                          inner_steps=cfg.inner_steps, rng=adam_rng,
                          moments=moments)
        cd_info = {}
        beta_new = cd_fit(dataset, g_vals, beta, lam,
                          max_sweeps=cfg.max_sweeps, info=cd_info)
        cd_sweeps.append(cd_info["sweeps"])
        q, loss = losses(beta_new, g_vals)
        loss_path.append(loss)
        settled = (np.array_equal(beta_new != 0.0, beta != 0.0)
                   and abs(loss_path[-1] - loss_path[-2])
                   <= OUTER_TOL * abs(loss_path[-2]))
        beta = beta_new
        stable = stable + 1 if settled else 0
        if stable == OUTER_WINDOW:
            break

    return FittedModel(beta_hat=beta, net=net, lam=float(lam), diagnostics={
        "loss_path": loss_path,
        "outer_iters": len(cd_sweeps),
        "cd_sweeps": cd_sweeps,
        "converged": stable == OUTER_WINDOW and cd_info["converged"],
        "bic": _bic(dataset, q, beta),
    })


def _bic(dataset: SurvivalDataset, q: float, beta: np.ndarray) -> float:
    """2n q + log(n) (selected count): BIC at Cox loss q and beta."""
    return float(2.0 * dataset.n * q
                 + np.log(dataset.n) * np.count_nonzero(beta))


def predict_eta(model: FittedModel, x_new, z_new) -> np.ndarray:
    """Linear predictor beta'x + g(z); larger values mean higher hazard.

    Raises NumericalDivergence when a value is not finite.
    """
    x = np.atleast_2d(np.asarray(x_new, dtype=float))
    z = np.atleast_2d(np.asarray(z_new, dtype=float))
    if x.shape[1] != model.beta_hat.size:
        raise ValueError("x has %d columns, model expects %d"
                         % (x.shape[1], model.beta_hat.size))
    if x.shape[0] != z.shape[0]:
        raise ValueError("x and z row counts differ")
    with np.errstate(over="ignore", invalid="ignore"):
        eta = x @ model.beta_hat + forward(model.net, z)
    if not np.isfinite(eta).all():
        raise NumericalDivergence("non-finite linear predictor")
    return eta


def _cd_path(dataset: SurvivalDataset, cfg: FitConfig, net: Network,
             level: int = logging.INFO):
    """(path, pick): cfg.lambda_grid as a warm chain of cd_fit calls from
    beta = 0 at the fixed offset forward(net, dataset.z), and its entry of
    lowest BIC, ties going to the later one.  Each entry carries a copy of
    net and "bic", the _bic of its beta at that offset.  Logs one line
    per grid value at level."""
    g_vals = forward(net, dataset.z)
    path, beta = [], None
    for lam in cfg.lambda_grid:
        start = time.perf_counter()
        info = {}
        beta = cd_fit(dataset, g_vals, beta, lam, max_sweeps=cfg.max_sweeps,
                      info=info)
        bic = _bic(dataset, cox_terms(dataset.x @ beta + g_vals, dataset)[0],
                   beta)
        path.append(FittedModel(beta_hat=beta, net=net.copy(), lam=float(lam),
                                diagnostics={"cd_sweeps": [info["sweeps"]],
                                             "converged": info["converged"],
                                             "bic": bic}))
        logger.log(level, "lambda=%g selected=%d bic=%.6g sweeps=%d "
                   "converged=%s seconds=%.3f", lam, path[-1].n_selected, bic,
                   info["sweeps"], info["converged"],
                   time.perf_counter() - start)
    # min keeps the first of equal keys, so scan from the largest penalty
    return path, min(reversed(path), key=lambda m: m.diagnostics["bic"])


def _logged_fit(label: str, dataset: SurvivalDataset, cfg: FitConfig,
                lam: float, **warm) -> FittedModel:
    """fit(dataset, cfg, lam, **warm), logged at INFO under label."""
    start = time.perf_counter()
    model = fit(dataset, cfg, lam, **warm)
    info = model.diagnostics
    logger.info("%s lambda=%g selected=%d bic=%.6g outer_iters=%d "
                "converged=%s seconds=%.3f", label, lam, model.n_selected,
                info["bic"], info["outer_iters"], info["converged"],
                time.perf_counter() - start)
    return model


def tune_lambda(dataset: SurvivalDataset, cfg: FitConfig, *,
                info: Optional[dict] = None):
    """Pick lam from cfg.lambda_grid by BIC at a fixed network, then fit.

    A round runs the grid as a warm chain of cd_fit calls at its network's
    output, held fixed (Friedman, Hastie & Tibshirani 2010), and picks by
    BIC, ties going to the larger lam.  Round 1's network is a pilot's,
    fit at PILOT_LAM, so trained at beta = 0; round 1 then runs the
    alternating fit at its pick, warm from the pick's beta and the pilot
    network.  Round 2 runs the chain at that fit's network and, only if
    its pick has another lam, fits there, warm from its pick's beta and
    round 1's network.  With cfg.arch None the network is zero, and the
    one chain is all that runs.

    Returns (best, path): path holds the last chain's entries in grid
    order, which are what BIC compared (see _cd_path); best is the last
    alternating fit, with its own "bic", or with arch None the picked
    entry.  At INFO level the last chain logs one line per grid value
    (round 1's logs at DEBUG), and the pilot and each alternating fit log
    one line labelled "pilot", "round 1 fit" or "round 2 fit".  If given,
    info["fits_not_converged"] receives the number of unconverged fits run:
    the pilot, the entries of both chains and the alternating fits.
    """
    if cfg.arch is None:
        path, best = _cd_path(dataset, cfg, zero_network(dataset.r))
        ran = path
    else:
        best = _logged_fit("pilot", dataset, cfg, PILOT_LAM)
        ran = [best]
        for round_no in (1, 2):
            path, pick = _cd_path(dataset, cfg, best.net,
                                  logging.INFO if round_no == 2
                                  else logging.DEBUG)
            ran += path
            if round_no == 2 and pick.lam == best.lam:
                break
            best = _logged_fit("round %d fit" % round_no, dataset, cfg,
                               pick.lam, beta_init=pick.beta_hat,
                               net_init=best.net)
            ran.append(best)
    if info is not None:
        info["fits_not_converged"] = sum(not m.diagnostics["converged"]
                                         for m in ran)
    return best, path


VAL_FRACTION = 0.2


def tune_architecture(dataset: SurvivalDataset, depth_grid, width_grid,
                      dropout_grid, lr_grid, cfg: FitConfig):
    """Exhaustive grid search over depth, width, dropout, learning rate.

    Each cell is fitted on a stratified split of the data, at the lam that
    tune_lambda picks on that split at cfg and at seed cfg.seed + k for
    cell k, and scored by partial likelihood on the held-out VAL_FRACTION.
    Ties keep the smaller cell (depth, then width, then dropout, then
    learning rate; grids are sorted ascending before the scan).  Every
    cell's settings are checked before the first fit.  Returns (best_cfg,
    table): the winning cell's FitConfig, which is cfg with its arch and
    gamma set, and one row per cell: its score, lam and selected count.
    """
    depths = sorted(int(d) for d in depth_grid)
    widths = sorted(int(w) for w in width_grid)
    dropouts = sorted(float(d) for d in dropout_grid)
    lrs = sorted(float(g) for g in lr_grid)
    if not depths or not widths or not dropouts or not lrs:
        raise ValueError("all grids must be non-empty")
    if depths[0] < 0:
        raise ValueError("depths must be >= 0")
    cells = [(depth, width, rate, lr,
              replace(cfg, arch=NetworkArch((width,) * depth, rate),
                      gamma=lr))
             for depth in depths for width in widths
             for rate in dropouts for lr in lrs]

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 17]))
    train_idx, val_idx = stratified_split(dataset.status, VAL_FRACTION, rng)
    train_ds, val_ds = subset(dataset, train_idx), subset(dataset, val_idx)
    lam = tune_lambda(train_ds, cfg)[0].lam

    table = []
    best = None
    for k, (depth, width, rate, lr, cell_cfg) in enumerate(cells):
        model = fit(train_ds, replace(cell_cfg, seed=cfg.seed + k), lam)
        score = cox_terms(predict_eta(model, val_ds.x, val_ds.z), val_ds)[0]
        table.append({"depth": depth, "width": width, "dropout": rate,
                      "lr": lr, "score": score, "lam": lam,
                      "selected": model.n_selected})
        if best is None or score < best[0]:
            best = (score, cell_cfg)
    return best[1], table


MODEL_FORMAT = "dplc-model"
MODEL_VERSION = 1


def model_to_dict(model: FittedModel, cfg: FitConfig, x_names, z_names) -> dict:
    """JSON bundle: sparse coefficients, network, column names, config echo,
    diagnostics."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "p": int(model.beta_hat.size),
        "beta": [[int(j), float(model.beta_hat[j])] for j in model.support],
        "network": network_to_dict(model.net),
        "columns": {"x": list(x_names), "z": list(z_names)},
        "config": asdict(cfg),
        "diagnostics": {**model.diagnostics, "lambda_selected": model.lam},
    }


def model_from_dict(data: dict) -> FittedModel:
    """The model of a model_to_dict record; raises ValueError when the
    record is not one (a bad sparse beta or missing or bad column names
    included).  The column names are counted before beta is allocated."""
    if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
        raise ValueError("not a model record")
    if data.get("version") != MODEL_VERSION:
        raise ValueError("unsupported model version: %r" % (data.get("version"),))
    p = data.get("p")
    if not _is_int(p) or p < 1:
        raise ValueError("p must be an integer >= 1")
    net = network_from_dict(data["network"])
    columns = data.get("columns")
    if columns is None:
        raise ValueError("model file lacks column names")
    if not isinstance(columns, dict):
        raise ValueError("columns must be an object")
    for key, width in (("x", p), ("z", net.input_dim)):
        names = columns.get(key)
        if (not isinstance(names, list) or len(names) != width
                or not all(isinstance(name, str) for name in names)
                or len(set(names)) != width):
            raise ValueError("columns %s must be %d distinct names"
                             % (key, width))
    beta = np.zeros(p)
    seen = set()
    for entry in data["beta"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError("beta entries must be [index, value] pairs")
        j, value = entry
        if not _is_int(j) or not 0 <= j < p or j in seen:
            raise ValueError("beta index %r is not a distinct integer in "
                             "[0, %d)" % (j, p))
        if not _is_finite_number(value):
            raise ValueError("beta value at index %d is not a finite number"
                             % j)
        seen.add(j)
        beta[j] = value
    diagnostics = dict(data.get("diagnostics", {}))
    return FittedModel(beta_hat=beta, net=net,
                       lam=diagnostics.get("lambda_selected"),
                       diagnostics=diagnostics)
