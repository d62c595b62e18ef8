"""SCAD penalty: value and the univariate thresholding operator.

The penalty derivative is the quadratic spline

    p'(t) = lam                         for 0 <= t <= lam
          = (a*lam - t)+ / (a - 1)      for t > lam
          = 0                           for t >= a*lam

with the shape fixed at Fan & Li's a = SCAD_A = 3.7 (JASA 96(456), 2001),
and the value is its integral from zero.  The strength lam is a plain
float, picked by BIC along the fit's grid; the callers (`cd_fit`, `fit`)
check that it is finite and >= 0.  Large coefficients beyond a*lam pay a
constant penalty, so they are left unshrunk by the thresholding operator.
Both functions take and return plain floats: a coordinate-descent visit
solves a one-variable problem, so there is no array path.
"""

from __future__ import annotations

import math

SCAD_A = 3.7


def scad_value(theta: float, lam: float) -> float:
    """Penalty value p(theta) for a float theta >= 0 (integral of p')."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    a = SCAD_A
    if theta <= lam:
        return lam * theta
    if theta <= a * lam:
        return (2.0 * a * lam * theta - theta * theta - lam ** 2) \
            / (2.0 * (a - 1.0))
    return lam ** 2 * (a + 1.0) / 2.0


def scad_threshold(h: float, v: float, lam: float) -> float:
    """Univariate SCAD update for the weighted quadratic 0.5*v*b^2 - h*b.

    Three zones by |h|: soft-thresholding up to 2*lam, a rescaled
    soft-threshold between 2*lam and a*lam, and the unshrunk h/v beyond.
    Exact minimizer of the penalized quadratic when v = 1; boundary points
    fall to the lower branch.  h and v are floats, v > 0.
    """
    if not v > 0.0:
        raise ValueError("non-positive curvature")
    a = SCAD_A
    ah = abs(h)
    if ah <= 2.0 * lam:
        return math.copysign(max(ah - lam, 0.0), h) / v
    if ah <= a * lam:
        # |h| > 2*lam > a*lam/(a-1) here, since a > 2
        return math.copysign(ah - a * lam / (a - 1.0), h) \
            / (v * (1.0 - 1.0 / (a - 1.0)))
    return h / v
