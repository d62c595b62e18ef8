"""SCAD-penalized coordinate descent on the linear coefficients, g held fixed.

Each sweep makes one `cox_terms` pass at the current linear predictor and
builds the diagonal quadratic surrogate of the partial likelihood from it:
the covariances c = -X' grad of its gradient and its Hessian diagonal W.
Coordinates are then moved one at a time to the exact minimiser of the
penalized surrogate along them, the SCAD threshold at the float lam, so
no move raises it.  The sweep works on covariances (Friedman, Hastie &
Tibshirani 2010, JSS 33(1), section 2.2; Simon et al. 2011, JSS 39(5),
for the Cox case): a move of coordinate j updates c -= delta * G_j with
the Gram row G_j = (x_j * W)' X, and every v_j = x_j' W x_j comes from
one diagonal product per sweep.  Rows are built only for the coordinates
nonzero at the start of the sweep and those that move, never the full
p x p Gram, and a zero coordinate with |c_j| <= lam and v_j > 1/(a - 1)
is skipped after one comparison.  W and c are refreshed once per sweep,
so the quadratic stays fixed while a sweep runs.

The sweeps run on the dataset's standardized x (`SurvivalDataset.standardized`:
columns centered and scaled to unit variance, constant columns exact
zeros, built once per dataset), so lam penalizes the standardized
coefficients beta * scale; the returned coefficients are on the original
scale, with thresholded entries exactly zero.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import NumericalDivergence
from .scad import SCAD_A, scad_threshold
from .survival import SurvivalDataset, cox_terms

V_FLOOR = 1e-10
BETA_CAP = 1e6
CONVEX_V = 1.0 / (SCAD_A - 1.0)  # above it, |h| <= lam thresholds to 0


def _sweep(X, W, c, beta, lam):
    """One pass over the coordinates of the surrogate fixed by (W, c).

    The surrogate is -c'd + 0.5 d'X'WXd + sum p(|beta_k|) in the move
    d = beta - beta_start, where c = -X' grad holds the covariances at the
    start of the sweep.  Coordinate j moves to the minimiser of the
    surrogate along it, the SCAD threshold of h_j = c_j + v_j beta_j at
    v_j = x_j' W x_j, floored so a degenerate column cannot divide by
    zero.  c is kept up to date by covariance updates: a move of beta_j
    subtracts its size times the Gram row G_j = (x_j * W)' X.  Rows are
    built for the coordinates nonzero at the start, in one product, and
    for each zero one when it moves.  Where v_j > 1/(a - 1) the threshold
    of |h_j| <= lam is zero, so a zero coordinate with |c_j| <= lam is
    skipped after one comparison.  beta and c are updated in place.
    """
    active = np.flatnonzero(beta)
    rows = dict(zip(active.tolist(), (X[:, active] * W[:, None]).T @ X))
    curv = np.maximum(np.einsum("i,ij,ij->j", W, X, X), V_FLOOR).tolist()
    for j, old in enumerate(beta.tolist()):
        v = curv[j]
        if old == 0.0 and abs(c[j]) <= lam and v > CONVEX_V:
            continue
        new = scad_threshold(float(c[j]) + v * old, v, lam)
        if new != old:
            row = rows.get(j)
            if row is None:
                row = (X[:, j] * W) @ X
            c -= (new - old) * row
            beta[j] = new


def cd_fit(dataset: SurvivalDataset, g_vals, beta_init, lam: float,
           tol: float = 1e-5, max_sweeps: int = 100, *,
           info: Optional[dict] = None) -> np.ndarray:
    """Run penalized coordinate descent until the sweep change is <= tol.

    lam is the SCAD strength, finite and >= 0, on the standardized scale.
    g_vals is the fixed nonparametric offset per subject.  Each sweep
    moves every coordinate to the exact minimiser of the current penalized
    surrogate along it (see _sweep).  Raises NumericalDivergence if the
    coefficients blow up.
    If given, info["sweeps"] receives the number of sweeps run and
    info["converged"] whether the sweep change reached tol before
    max_sweeps ran out.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError("lam must be finite and >= 0")
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
        _, grad, W = cox_terms(X @ beta + g_vals, dataset)
        beta_prev = beta.copy()
        _sweep(X, W, -(grad @ X), beta, lam)
        if np.abs(beta).max(initial=0.0) > BETA_CAP:
            raise NumericalDivergence("divergence; reduce step or increase lambda")
        change = beta - beta_prev
        if math.sqrt(change @ change) <= tol:  # the 2-norm, as np.linalg.norm
            converged = True
            break

    if info is not None:
        info["sweeps"] = sweeps_run
        info["converged"] = converged
    return beta / scale
