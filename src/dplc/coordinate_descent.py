"""SCAD-penalized coordinate descent on the linear coefficients, g held fixed.

Each sweep makes one `cox_terms` pass at the current linear predictor and
builds the diagonal IRLS surrogate of the partial likelihood from it:
weights W (the Hessian diagonal), working response
y = xi + resid / (n * W) and residual r = y - xi.  Coordinates are then
updated one at a time through the SCAD thresholding operator with the
usual rank-one residual update.  W and y are refreshed once per sweep, not
per coordinate, so the quadratic stays fixed while a sweep runs.

The sweeps run on the dataset's standardized x (`SurvivalDataset.standardized`:
columns centered and scaled to unit variance, constant columns exact
zeros, built once per dataset); the returned coefficients are on the
original scale, with thresholded entries exactly zero.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from .errors import NumericalDivergence
from .scad import ScadConfig, scad_threshold, scad_value
from .survival import SurvivalDataset, cox_terms

logger = logging.getLogger(__name__)

V_FLOOR = 1e-10
BETA_CAP = 1e6
# Curvature floor in the working-response division; entries this small
# carry essentially no weight in the downstream least-squares aggregates.
EPS_W = 1e-8


def _working_response(xi, resid, W, n):
    """IRLS pseudo-outcome y = xi + resid / (n * W), W floored at EPS_W.

    The floor keeps subjects with a nearly empty history contribution from
    blowing up the division; floored entries get a log note because they
    carry negligible weight downstream anyway.
    """
    floored = W < EPS_W
    if np.any(floored):
        logger.debug("working response floored %d curvature entries",
                     int(floored.sum()))
    return xi + resid / (n * np.maximum(W, EPS_W))


def _surrogate_move_delta(h, v, old, new, cfg):
    """Exact change of the penalized quadratic surrogate for one move.

    Equals the change of 0.5*(y-xi)'W(y-xi) + sum p(|beta_k|) evaluated
    fresh, folded down to one coordinate.
    """
    quad = 0.5 * v * (new * new - old * old) - h * (new - old)
    return quad + scad_value(abs(new), cfg) - scad_value(abs(old), cfg)


def _sweep(X, W, r, beta, cfg):
    """One pass over the coordinates of the surrogate fixed by (W, r).

    Coordinate j sees h_j = x_j' W r + v_j beta_j and v_j = x_j' W x_j,
    with v_j floored so a degenerate column cannot divide by zero.  A move
    is kept only if it does not increase the penalized surrogate; beta and
    the residual r = y - X beta are updated in place.
    """
    WX = X * W[:, None]
    v_all = np.maximum(np.einsum("ij,ij->j", WX, X), V_FLOOR).tolist()
    for j, v in enumerate(v_all):
        old = float(beta[j])
        h = float(WX[:, j] @ r) + v * old
        new = scad_threshold(h, v, cfg)
        if new != old and _surrogate_move_delta(h, v, old, new, cfg) <= 0.0:
            r -= (new - old) * X[:, j]
            beta[j] = new


def cd_fit(dataset: SurvivalDataset, g_vals, beta_init, cfg: ScadConfig,
           tol: float = 1e-5, max_sweeps: int = 100, *,
           info: Optional[dict] = None) -> np.ndarray:
    """Run penalized coordinate descent until the sweep change is <= tol.

    g_vals is the fixed nonparametric offset per subject.  A coordinate
    move is accepted only if it does not increase the current penalized
    surrogate; the thresholding operator guarantees that when v_j = 1, and
    the guard covers low-curvature columns where the closed form can
    overshoot.  Raises NumericalDivergence if the coefficients blow up.
    If given, info["sweeps"] receives the number of sweeps run and
    info["converged"] whether the sweep change reached tol before
    max_sweeps ran out.
    """
    g_vals = np.asarray(g_vals, dtype=float)
    if g_vals.shape != (dataset.n,):
        raise ValueError("g_vals length does not match dataset")
    if not np.all(np.isfinite(g_vals)):
        raise ValueError("g_vals must be finite")
    beta_init = np.zeros(dataset.p) if beta_init is None \
        else np.asarray(beta_init, dtype=float)
    if beta_init.shape != (dataset.p,):
        raise ValueError("beta_init length does not match dataset")
    if not np.all(np.isfinite(beta_init)):
        raise ValueError("beta_init must be finite")

    X, scale = dataset.standardized
    beta = beta_init * scale
    sweeps_run = 0
    converged = False
    for sweep in range(1, max_sweeps + 1):
        sweeps_run = sweep
        xi = X @ beta
        _, resid, W = cox_terms(xi + g_vals, dataset)
        r = _working_response(xi, resid, W, dataset.n) - xi
        beta_prev = beta.copy()
        _sweep(X, W, r, beta, cfg)
        if np.max(np.abs(beta), initial=0.0) > BETA_CAP:
            raise NumericalDivergence("divergence; reduce step or increase lambda")
        if float(np.linalg.norm(beta - beta_prev)) <= tol:
            converged = True
            break

    if info is not None:
        info["sweeps"] = sweeps_run
        info["converged"] = converged
    return beta / scale
