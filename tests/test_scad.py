"""SCAD penalty pieces against quadrature and brute-force minimizer oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from dplc import scad_threshold, scad_value

A = 3.7  # Fan & Li's shape, which dplc fixes
LAM = 1.0


def scad_derivative(theta, lam):
    """p'(theta) for theta >= 0: the quadratic spline that defines SCAD."""
    a = A
    if lam == 0.0:
        return 0.0
    if theta <= lam:
        return lam
    return max(a * lam - theta, 0.0) / (a - 1.0)


def penalty_reference(theta, lam):
    """Numerical integral of the derivative spline from 0 to theta."""
    value, _ = quad(lambda t: scad_derivative(t, lam), 0.0, theta, limit=200)
    return value


def penalty_closed_form(theta, lam):
    """The three-piece SCAD penalty on an array, written apart from dplc."""
    theta = np.asarray(theta, dtype=float)
    a = A
    if lam == 0.0:
        return np.zeros_like(theta)
    return np.where(
        theta <= lam,
        lam * theta,
        np.where(theta <= a * lam,
                 (2.0 * a * lam * theta - theta ** 2 - lam ** 2)
                 / (2.0 * (a - 1.0)),
                 lam ** 2 * (a + 1.0) / 2.0))


def brute_force_threshold(h, v, lam):
    """Dense grid plus golden-section refinement of the 1-d objective

        0.5 * v * (b - h / v)**2 + p(|b|),

    whose minimizer scad_threshold must reproduce at every v > 0.  The
    grid, spaced 0.005 apart, reaches past the unpenalized h / v.
    """
    def objective(b):
        return 0.5 * v * (b - h / v) ** 2 + penalty_closed_form(abs(b), lam)

    radius = max(10.0, 1.5 * abs(h) / v)
    grid = np.linspace(-radius, radius, int(round(400 * radius)) + 1)
    values = 0.5 * v * (grid - h / v) ** 2 \
        + penalty_closed_form(np.abs(grid), lam)
    k = int(np.argmin(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while b - a > 1e-10:
        if objective(c) < objective(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


def slope(theta, lam, step=1e-6):
    """Central finite-difference slope of scad_value at theta."""
    return (scad_value(theta + step, lam) - scad_value(theta - step, lam)) \
        / (2.0 * step)


class TestDerivative:
    """The slope of scad_value follows the spline that defines SCAD."""

    def test_flat_at_lambda_inside(self):
        assert slope(0.5, LAM) == pytest.approx(1.0)
        assert scad_value(1e-6, LAM) / 1e-6 == pytest.approx(1.0)
        assert slope(1.0 - 1e-5, LAM) == pytest.approx(1.0)

    def test_zero_beyond_a_lambda(self):
        assert slope(5.0, LAM) == 0.0
        assert slope(3.7 + 1e-5, LAM) == pytest.approx(0.0, abs=1e-9)

    def test_middle_branch_value(self):
        assert slope(2.0, LAM) == pytest.approx((3.7 - 2.0) / 2.7, rel=1e-8)

    def test_continuity_at_knots(self):
        step = 1e-7
        for knot in (LAM, A * LAM):
            left = (scad_value(knot, LAM) - scad_value(knot - step, LAM)) / step
            right = (scad_value(knot + step, LAM) - scad_value(knot, LAM)) / step
            assert abs(left - right) < 1e-6

    @pytest.mark.parametrize("theta", [0.2, 0.8, 1.5, 2.5, 3.2, 4.5])
    def test_is_derivative_of_value(self, theta):
        assert slope(theta, LAM) == pytest.approx(scad_derivative(theta, LAM),
                                                  rel=1e-6, abs=1e-9)


class TestValue:
    def test_zero_at_zero(self):
        assert scad_value(0.0, LAM) == 0.0

    def test_first_knot(self):
        assert scad_value(1.0, LAM) == pytest.approx(1.0, rel=1e-12)

    def test_constant_tail(self):
        assert scad_value(10.0, LAM) == pytest.approx(2.35, rel=1e-12)
        assert scad_value(100.0, LAM) == pytest.approx(2.35, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 1.7, 2.9, 3.7, 6.0])
    def test_matches_quadrature_oracle(self, theta):
        assert scad_value(theta, LAM) == pytest.approx(
            penalty_reference(theta, LAM), rel=1e-8)

    def test_lambda_zero(self):
        assert scad_value(0.0, 0.0) == scad_value(3.0, 0.0) == 0.0
        assert scad_derivative(3.0, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scad_value(-1.0, LAM)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 1.0])
    def test_bitwise_equals_closed_form(self, lam):
        knots = [lam, A * lam]
        theta = np.concatenate([
            np.linspace(0.0, 6.0, 601), knots,
            np.nextafter(knots, 0.0), np.nextafter(knots, np.inf)])
        got = [scad_value(t, lam).hex() for t in theta.tolist()]
        assert got == [t.hex() for t in
                       penalty_closed_form(theta, lam).tolist()]


class TestSoftThreshold:
    """Up to |h| = 2*lam at v = 1, scad_threshold is the soft threshold
    sign(h) * (|h| - lam)+."""

    def test_shrinks(self):
        assert scad_threshold(3.0, 1.0, 2.0) == 1.0

    def test_dead_zone(self):
        assert scad_threshold(-0.5, 1.0, LAM) == 0.0

    def test_sign_zero(self):
        assert scad_threshold(0.0, 1.0, 0.0) == 0.0

    def test_odd(self):
        assert scad_threshold(-3.0, 1.0, 2.0) == -1.0


class TestScadThreshold:
    def test_unpenalized_branch(self):
        assert scad_threshold(5.0, 1.0, LAM) == 5.0

    def test_dead_zone(self):
        assert scad_threshold(0.5, 1.0, LAM) == 0.0

    def test_middle_branch_frozen(self):
        # golden-section oracle agrees to 1e-8 (verified by the grid test)
        assert scad_threshold(3.0, 1.0, LAM) == pytest.approx(
            2.588235294117647, rel=1e-12)

    def test_rejects_nonpositive_curvature(self):
        with pytest.raises(ValueError, match="non-positive curvature"):
            scad_threshold(1.0, 0.0, LAM)

    def test_zero_set_is_lambda_ball(self):
        for lam in (0.1, 0.5, 1.0):
            for h in np.arange(-6.0, 6.0, 0.05):
                result = scad_threshold(float(h), 1.0, lam)
                assert (result == 0.0) == (abs(h) <= lam)

    @pytest.mark.parametrize("v", [0.5, 1.0, 2.0])
    def test_shrinkage_bound(self, v):
        # The penalty is flat beyond a*lam, so the minimizer is the
        # unshrunk h / v once that lies beyond a*lam, |h| > a*lam*v, and
        # so wherever |h| > a*lam*max(v, 1).
        for h in np.arange(-6.0, 6.0, 0.11):
            out = scad_threshold(float(h), v, LAM)
            assert abs(out) <= abs(h) / v + 1e-12
            if abs(h) > A * LAM * max(v, 1.0):
                assert out == pytest.approx(h / v, rel=1e-12)

    def test_concave_middle_worked_example(self):
        # At v = 0.2 < 1/(a - 1) the unshrunk h / v = 2.5 beats 0:
        # 0.5 * 0.2 * 2.5**2 - 0.5 * 2.5 + p(2.5) = -0.0375 < 0.
        assert scad_threshold(0.5, 0.2, 0.5) == pytest.approx(2.5,
                                                             rel=1e-12)
        assert brute_force_threshold(0.5, 0.2, 0.5) == pytest.approx(
            2.5, abs=1e-6)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
    def test_matches_brute_force_at_unit_curvature(self, lam):
        for h in np.arange(-6.0, 6.0 + 1e-9, 0.05):
            expected = brute_force_threshold(float(h), 1.0, lam)
            assert scad_threshold(float(h), 1.0, lam) == pytest.approx(
                expected, abs=1e-6)

    # Below 1/(a - 1), at 0.2 and at 1/(a - 1) itself, the middle piece
    # of the objective is not convex; above it, the four zones apply.
    @pytest.mark.parametrize("v", [0.2, 1.0 / (A - 1.0), 0.5, 0.8, 2.0],
                             ids="v{:.4g}".format)
    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
    def test_matches_brute_force_off_unit_curvature(self, lam, v):
        for h in np.arange(-6.0, 6.0 + 1e-9, 0.05):
            expected = brute_force_threshold(float(h), v, lam)
            assert scad_threshold(float(h), v, lam) == pytest.approx(
                expected, abs=1e-6)
