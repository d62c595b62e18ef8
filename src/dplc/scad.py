"""SCAD penalty: value and the exact univariate minimiser.

The penalty derivative is the quadratic spline

    p'(t) = lam                         for 0 <= t <= lam
          = (a*lam - t)+ / (a - 1)      for t > lam
          = 0                           for t >= a*lam

with the shape fixed at Fan & Li's a = SCAD_A = 3.7 (JASA 96(456), 2001),
and the value is its integral from zero.  The strength lam is a plain
float, picked by BIC along the fit's grid; the callers (`cd_fit`, `fit`)
check that it is finite and >= 0.  `scad_threshold` solves one
coordinate's penalized quadratic exactly, at any curvature.  Both
functions take and return plain floats: a coordinate-descent visit
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
    """The minimiser b of 0.5*v*b^2 - h*b + p(|b|), with the sign of h.

    h and v > 0 are floats.  For v > 1/(a - 1) the objective is convex and
    b has four zones by |h| (Breheny & Huang 2011, AoAS 5(1), section 2),
    with S the soft threshold: 0 up to lam, S(h, lam)/v up to lam*(1 + v),
    S(h, a*lam/(a - 1))/(v - 1/(a - 1)) up to a*lam*v, and h/v beyond;
    boundary points fall to the lower zone.  For v <= 1/(a - 1) the middle
    piece is concave, and b is the better of min(S(h, lam)/v, lam) and
    max(|h|/v, a*lam), the minimisers on [0, lam] and [a*lam, inf); a tie
    goes to the first.
    """
    if not v > 0.0:
        raise ValueError("non-positive curvature")
    a = SCAD_A
    ah = abs(h)
    soft = max(ah - lam, 0.0) / v
    if v <= 1.0 / (a - 1.0):
        near, far = min(soft, lam), max(ah / v, a * lam)
        b = min((near, far), key=lambda t: 0.5 * v * t * t - ah * t
                + scad_value(t, lam))
    elif ah <= lam * (1.0 + v):
        b = soft
    elif ah <= a * lam * v:
        b = (ah - a * lam / (a - 1.0)) / (v - 1.0 / (a - 1.0))
    else:
        b = ah / v
    return math.copysign(b, h)
