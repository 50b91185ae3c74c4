import math

import numpy as np
import pytest

from fuzzynav import (
    Pose,
    RobotParams,
    curvature_radius,
    step_euler,
    step_exact,
    wheel_to_twist,
    wrap_angle,
)
from fuzzynav.kinematics import OMEGA_STRAIGHT_TOL

P = RobotParams(wheel_base=0.5, wheel_radius=0.1, v_max=2.0)
L = P.wheel_base


class TestWheelToTwist:
    def test_straight_line(self):
        assert wheel_to_twist(1.0, 1.0, L) == (1.0, 0.0)

    def test_spin_in_place(self):
        assert wheel_to_twist(-1.0, 1.0, L) == (0.0, 4.0)

    def test_hand_substitution(self):
        assert wheel_to_twist(v_l=1.0, v_r=2.0, wheel_base=L) == (1.5, 2.0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.uniform(-3, 3, 2)
            w1 = rng.uniform(-2, 2, 2)
            w2 = rng.uniform(-2, 2, 2)
            combo = a * w1 + b * w2
            t1, t2, tc = (wheel_to_twist(*w, L) for w in (w1, w2, combo))
            assert math.isclose(tc[0], a * t1[0] + b * t2[0], abs_tol=1e-12)
            assert math.isclose(tc[1], a * t1[1] + b * t2[1], abs_tol=1e-12)


def radius_from_wheels(v_l, v_r, wheel_base):
    """R from the wheel speeds: L (v_r + v_l) / (2 (v_r - v_l))."""
    return wheel_base * (v_r + v_l) / (2.0 * (v_r - v_l))


class TestCurvatureRadius:
    def test_straight_is_infinite(self):
        assert curvature_radius(*wheel_to_twist(1.3, 1.3, L)) == math.inf

    def test_hand_value_and_wheel_speed_consistency(self):
        v, omega = wheel_to_twist(v_l=1.0, v_r=2.0, wheel_base=L)
        assert math.isclose(curvature_radius(v, omega), 0.75, abs_tol=1e-15)
        assert math.isclose(curvature_radius(v, omega), radius_from_wheels(1.0, 2.0, L), abs_tol=1e-12)

    def test_pure_rotation_is_zero(self):
        assert curvature_radius(*wheel_to_twist(-0.7, 0.7, L)) == 0.0

    def test_omega_equal_to_the_straight_tolerance_turns(self):
        # only |omega| strictly below OMEGA_STRAIGHT_TOL counts as straight,
        # the same test step_exact makes
        assert curvature_radius(*wheel_to_twist(0.0, 1e-12, 1.0)) == 0.5
        assert curvature_radius(1.0, -OMEGA_STRAIGHT_TOL) == 1.0 / -OMEGA_STRAIGHT_TOL
        below = math.nextafter(OMEGA_STRAIGHT_TOL, 0.0)
        assert curvature_radius(1.0, below) == curvature_radius(1.0, -below) == math.inf

    def test_consistency_on_random_speeds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v_l, v_r = rng.uniform(-2, 2, 2)
            if abs(v_r - v_l) < 1e-9:
                continue
            radius = curvature_radius(*wheel_to_twist(v_l, v_r, L))
            assert math.isclose(radius, radius_from_wheels(v_l, v_r, L), abs_tol=1e-12)


class TestStepEuler:
    def test_straight_step(self):
        assert step_euler(0.0, 0.0, 0.0, 1.0, 0.0, 0.1) == (0.1, 0.0, 0.0)

    def test_pure_turn_step(self):
        assert step_euler(0.0, 0.0, 0.0, 0.0, 1.0, 0.1) == (0.0, 0.0, 0.1)

    def test_arc_tracking_error_bound(self):
        # 100 steps of dt=0.01 along a unit circle arc; regression bound 0.02 m
        pose = (0.0, 0.0, 0.0)
        for _ in range(100):
            pose = step_euler(*pose, 1.0, 1.0, 0.01)
        exact = step_exact(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        err = math.hypot(pose[0] - exact[0], pose[1] - exact[1])
        assert err <= 0.02

    @pytest.mark.parametrize("step", [step_euler, step_exact])
    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
    def test_rejects_nonpositive_dt(self, step, dt):
        with pytest.raises(ValueError, match="^dt must be > 0$"):
            step(0.0, 0.0, 0.0, 1.0, 1.0, dt)


class TestStepExact:
    def test_zero_omega_reduces_to_euler(self):
        pose = (0.3, -0.2, 0.7)
        assert step_exact(*pose, 1.2, 0.0, 0.25) == step_euler(*pose, 1.2, 0.0, 0.25)

    def test_omega_equal_to_the_straight_tolerance_takes_the_arc(self):
        # only |omega| strictly below OMEGA_STRAIGHT_TOL steps straight; over
        # 1e6 s the arc bends 0.5 m off the straight line Euler follows
        assert step_exact(0.0, 0.0, 0.0, 1.0, 1e-12, 1e6)[1] == pytest.approx(0.5, abs=1e-3)
        assert step_euler(0.0, 0.0, 0.0, 1.0, 1e-12, 1e6)[1] == 0.0

    def test_half_circle(self):
        x, y, theta = step_exact(0.0, 0.0, 0.0, 1.0, 1.0, math.pi)
        assert abs(x - 0.0) <= 1e-12
        assert abs(y - 2.0) <= 1e-12
        assert theta == math.pi

    def test_flow_property(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pose = (*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            tw = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            dt = rng.uniform(0.01, 1.0)
            two_half = step_exact(*step_exact(*pose, *tw, dt / 2), *tw, dt / 2)
            one_full = step_exact(*pose, *tw, dt)
            assert math.isclose(two_half[0], one_full[0], abs_tol=1e-12)
            assert math.isclose(two_half[1], one_full[1], abs_tol=1e-12)
            assert abs(wrap_angle(two_half[2] - one_full[2])) <= 1e-12


class TestIntegratorAgreement:
    def test_richardson_order_across_random_states(self):
        # halving dt should quarter the one-step euler/exact discrepancy
        rng = np.random.default_rng(11)
        orders = []
        for _ in range(100):
            pose = (*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            v = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
            omega = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])

            def gap(dt):
                a = step_euler(*pose, v, omega, dt)
                b = step_exact(*pose, v, omega, dt)
                return math.hypot(a[0] - b[0], a[1] - b[1])

            order = math.log2(gap(0.02) / gap(0.01))
            orders.append(order)
        assert all(1.7 <= o <= 2.3 for o in orders), (min(orders), max(orders))

    def test_equal_wheels_keep_heading_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            speed = rng.uniform(-2, 2)
            tw = wheel_to_twist(speed, speed, L)
            x, y, theta = (*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            for step in (step_euler, step_exact):
                nx, ny, ntheta = step(x, y, theta, *tw, 0.1)
                assert ntheta == theta  # exact, not approximate
                # displacement collinear with heading (forward or reverse)
                if speed != 0.0:
                    ang = math.atan2(ny - y, nx - x)
                    off = abs(wrap_angle(ang - theta))
                    assert off <= 1e-12 or abs(off - math.pi) <= 1e-12


class TestTypesAndWrap:
    def test_wrap_angle_range_and_convention(self):
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(0.0) == 0.0
        rng = np.random.default_rng(17)
        for a in rng.uniform(-50, 50, 1000):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            # same direction
            assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
            assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)

    def test_wrap_is_identity_inside_range(self):
        for a in (-3.1, -1.0, 0.0, 0.5, math.pi):
            assert wrap_angle(a) == a

    def test_pose_wraps_theta_on_construction(self):
        assert Pose(0, 0, 3 * math.pi).theta == math.pi
        assert Pose(0, 0, -math.pi).theta == math.pi

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Pose(math.inf, 0.0, 0.0)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            RobotParams(wheel_base=0.0)
        with pytest.raises(ValueError):
            RobotParams(wheel_radius=-0.1)
        with pytest.raises(ValueError):
            RobotParams(v_max=0.0)
        for field in ("wheel_base", "wheel_radius", "v_max"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    RobotParams(**{field: bad})


class TestHeadingStaysWrapped:
    def test_theta_in_range_after_long_integrations(self):
        # spinning hard for many steps must keep theta in (-pi, pi]
        rng = np.random.default_rng(19)
        for step in (step_euler, step_exact):
            pose = (0.0, 0.0, 3.0)
            for _ in range(500):
                v, omega = rng.uniform(-2, 2), rng.uniform(-4, 4)
                pose = step(*pose, v, omega, 0.1)
                assert -math.pi < pose[2] <= math.pi
