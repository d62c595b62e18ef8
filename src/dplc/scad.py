"""SCAD penalty: value and the univariate thresholding operator.

The penalty derivative is the quadratic spline

    p'(t) = lam                         for 0 <= t <= lam
          = (a*lam - t)+ / (a - 1)      for t > lam
          = 0                           for t >= a*lam

with a > 2, and the value is its integral from zero.  Large coefficients
beyond a*lam pay a constant penalty, so they are left unshrunk by the
thresholding operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScadConfig:
    """Penalty parameters: finite strength lam >= 0, shape a > 2."""

    lam: float = 0.5
    a: float = 3.7

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and >= 0")
        if not self.a > 2.0:
            raise ValueError("a must be > 2")


def _check_nonnegative(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0):
        raise ValueError("theta must be >= 0")
    return theta


def scad_value(theta, cfg: ScadConfig):
    """Penalty value p(theta) for theta >= 0 (integral of p')."""
    theta = _check_nonnegative(theta)
    lam, a = cfg.lam, cfg.a
    if lam == 0.0:
        out = np.zeros_like(theta)
    else:
        out = np.where(
            theta <= lam,
            lam * theta,
            np.where(
                theta <= a * lam,
                (2.0 * a * lam * theta - theta ** 2 - lam ** 2) / (2.0 * (a - 1.0)),
                lam ** 2 * (a + 1.0) / 2.0,
            ),
        )
    return out if out.ndim else float(out)


def _soft_threshold(h, lam):
    """sign(h) * (|h| - lam)+ with sign(0) = 0."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    h = np.asarray(h, dtype=float)
    out = np.sign(h) * np.maximum(np.abs(h) - lam, 0.0)
    return out if out.ndim else float(out)


def scad_threshold(h: float, v: float, cfg: ScadConfig) -> float:
    """Univariate SCAD update for the weighted quadratic 0.5*v*b^2 - h*b.

    Three zones by |h|: soft-thresholding up to 2*lam, a rescaled
    soft-threshold between 2*lam and a*lam, and the unshrunk h/v beyond.
    Exact minimizer of the penalized quadratic when v = 1; boundary points
    fall to the lower branch.
    """
    if not v > 0.0:
        raise ValueError("non-positive curvature")
    lam, a = cfg.lam, cfg.a
    ah = abs(h)
    if ah <= 2.0 * lam:
        return float(_soft_threshold(h, lam) / v)
    if ah <= a * lam:
        return float(_soft_threshold(h, a * lam / (a - 1.0))
                     / (v * (1.0 - 1.0 / (a - 1.0))))
    return float(h / v)
