"""SCAD-penalized coordinate descent on the linear coefficients, g held fixed.

Each sweep makes one kernel pass at the current linear predictor and
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

Sweeps find the support; they converge only linearly once it has settled,
slowly where correlated coefficients sit in SCAD's concave middle zone.
So after every sweep that leaves the support unchanged, one Newton step of
the exact penalized objective is tried on the support's face, where the
signs and SCAD zones are held and the penalty is quadratic (Fan & Li
2001, JASA 96(456), section 3.3): it reads its Hessian block off the
same pass and makes one kernel pass at the trial point, which, if the
step is kept, gives the next sweep its W and c.

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
from .scad import SCAD_A, scad_threshold, scad_value
from .survival import SurvivalDataset, _checked_terms, _loss_terms

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


def _newton_step(dataset, X, g_vals, beta, terms, active, lam):
    """One Newton step of the penalized objective on beta's active face.

    With the signs and SCAD zones of beta_S held, the penalty is quadratic
    on the face, so the step is d = -(H_S + diag(curv))^-1 (X_S' grad +
    p'(|beta_S|) sign beta_S), with H_S the Hessian of q in beta_S and
    curv -1/(a - 1) in the middle zone and 0 elsewhere.  terms is the
    kernel pass at beta, (q, grad, w, hessian), and H_S its Hessian block.
    Returns the trial (beta, terms) when H_S + diag(curv) is positive
    definite, d is finite, no sign of beta_S changes and the penalized
    objective q + sum p(|beta|) falls; otherwise the given (beta, terms).
    Run with floating-point warnings ignored.
    """
    loss, grad, _, hessian = terms
    b = beta[active]
    t = np.abs(b)
    middle = (t > lam) & (t < SCAD_A * lam)
    slope = np.where(t <= lam, lam, np.maximum(SCAD_A * lam - t, 0.0) * CONVEX_V)
    cols = X[:, active]
    hess = hessian(cols)
    hess.flat[::active.size + 1] -= np.where(middle, CONVEX_V, 0.0)
    try:
        np.linalg.cholesky(hess)  # raises unless positive definite
    except np.linalg.LinAlgError:
        return beta, terms
    step = -np.linalg.solve(hess, grad @ cols + np.copysign(slope, b))
    trial_b = b + step
    if not (np.isfinite(step).all()
            and np.array_equal(np.signbit(trial_b), np.signbit(b))
            and trial_b.all()):
        return beta, terms
    trial = beta.copy()
    trial[active] = trial_b
    trial_loss, trial_grad, curvature, trial_hessian = _loss_terms(
        X @ trial + g_vals, dataset)
    if not trial_loss + _penalty(trial_b, lam) < loss + _penalty(b, lam):
        return beta, terms
    return trial, (trial_loss, trial_grad, curvature(), trial_hessian)


def _penalty(b, lam):
    """sum p(|b_k|) over a float array b."""
    return sum(scad_value(t, lam) for t in np.abs(b).tolist())


def cd_fit(dataset: SurvivalDataset, g_vals, beta_init, lam: float,
           tol: float = 1e-5, max_sweeps: int = 100, *,
           info: Optional[dict] = None) -> np.ndarray:
    """Run penalized coordinate descent until the sweep change is <= tol.

    lam is the SCAD strength, finite and >= 0, on the standardized scale.
    g_vals is the fixed nonparametric offset per subject.  Each sweep
    moves every coordinate to the exact minimiser of the current penalized
    surrogate along it (see _sweep).  Between two sweeps, when the first
    left the support unchanged, one Newton step on the support is tried
    and kept only if it lowers the penalized objective (see _newton_step);
    none runs before the first sweep or after the last, so the returned
    coefficients always come from a sweep.  Raises NumericalDivergence if
    the coefficients blow up.
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
    terms = _checked_terms(X @ beta + g_vals, dataset)
    sweeps_run = 0
    converged = False
    for sweep in range(1, max_sweeps + 1):
        sweeps_run = sweep
        _, grad, W, _ = terms
        beta_prev = beta.copy()
        _sweep(X, W, -(grad @ X), beta, lam)
        if np.abs(beta).max(initial=0.0) > BETA_CAP:
            raise NumericalDivergence("divergence; reduce step or increase lambda")
        change = beta - beta_prev
        if math.sqrt(change @ change) <= tol:  # the 2-norm, as np.linalg.norm
            converged = True
            break
        if sweep == max_sweeps:
            break
        terms = _checked_terms(X @ beta + g_vals, dataset)
        active = np.flatnonzero(beta)
        if active.size and np.array_equal(active, np.flatnonzero(beta_prev)):
            with np.errstate(all="ignore"):
                beta, terms = _newton_step(dataset, X, g_vals, beta, terms,
                                           active, lam)

    if info is not None:
        info["sweeps"] = sweeps_run
        info["converged"] = converged
    return beta / scale
