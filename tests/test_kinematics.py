import math

import numpy as np
import pytest

from fuzzynav import (
    Pose,
    RobotParams,
    Twist,
    WheelSpeeds,
    curvature_radius,
    step_euler,
    step_exact,
    wheel_to_twist,
    wrap_angle,
)

P = RobotParams(wheel_base=0.5, wheel_radius=0.1, v_max=2.0)


class TestWheelToTwist:
    def test_straight_line(self):
        tw = wheel_to_twist(WheelSpeeds(1.0, 1.0), P)
        assert tw.v == 1.0 and tw.omega == 0.0

    def test_spin_in_place(self):
        tw = wheel_to_twist(WheelSpeeds(-1.0, 1.0), P)
        assert tw.v == 0.0 and tw.omega == 4.0

    def test_hand_substitution(self):
        tw = wheel_to_twist(WheelSpeeds(v_l=1.0, v_r=2.0), P)
        assert tw.v == 1.5 and tw.omega == 2.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.uniform(-3, 3, 2)
            w1 = WheelSpeeds(*rng.uniform(-2, 2, 2))
            w2 = WheelSpeeds(*rng.uniform(-2, 2, 2))
            combo = WheelSpeeds(a * w1.v_l + b * w2.v_l, a * w1.v_r + b * w2.v_r)
            t1, t2, tc = (wheel_to_twist(w, P) for w in (w1, w2, combo))
            assert math.isclose(tc.v, a * t1.v + b * t2.v, abs_tol=1e-12)
            assert math.isclose(tc.omega, a * t1.omega + b * t2.omega, abs_tol=1e-12)


class TestCurvatureRadius:
    def test_straight_is_infinite(self):
        assert curvature_radius(WheelSpeeds(1.3, 1.3), P) == math.inf

    def test_hand_value_and_twist_consistency(self):
        ws = WheelSpeeds(v_l=1.0, v_r=2.0)
        assert math.isclose(curvature_radius(ws, P), 0.75, abs_tol=1e-15)
        tw = wheel_to_twist(ws, P)
        assert math.isclose(curvature_radius(ws, P), tw.v / tw.omega, abs_tol=1e-12)

    def test_pure_rotation_is_zero(self):
        assert curvature_radius(WheelSpeeds(-0.7, 0.7), P) == 0.0

    def test_difference_equal_to_the_straight_tolerance_turns(self):
        # only a difference strictly below OMEGA_STRAIGHT_TOL counts as straight
        assert curvature_radius(WheelSpeeds(0.0, 1e-12), RobotParams(wheel_base=1.0)) == 0.5

    def test_consistency_on_random_speeds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            ws = WheelSpeeds(*rng.uniform(-2, 2, 2))
            if abs(ws.v_r - ws.v_l) < 1e-9:
                continue
            tw = wheel_to_twist(ws, P)
            assert math.isclose(curvature_radius(ws, P), tw.v / tw.omega, abs_tol=1e-12)


class TestStepEuler:
    def test_straight_step(self):
        pose = step_euler(Pose(0, 0, 0), Twist(1.0, 0.0), 0.1)
        assert (pose.x, pose.y, pose.theta) == (0.1, 0.0, 0.0)

    def test_pure_turn_step(self):
        pose = step_euler(Pose(0, 0, 0), Twist(0.0, 1.0), 0.1)
        assert (pose.x, pose.y, pose.theta) == (0.0, 0.0, 0.1)

    def test_arc_tracking_error_bound(self):
        # 100 steps of dt=0.01 along a unit circle arc; regression bound 0.02 m
        pose = Pose(0, 0, 0)
        tw = Twist(1.0, 1.0)
        for _ in range(100):
            pose = step_euler(pose, tw, 0.01)
        exact = step_exact(Pose(0, 0, 0), tw, 1.0)
        err = math.hypot(pose.x - exact.x, pose.y - exact.y)
        assert err <= 0.02

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_euler(Pose(0, 0, 0), Twist(1, 0), 0.0)
        with pytest.raises(ValueError, match="^dt must be > 0$"):
            step_exact(Pose(0, 0, 0), Twist(1, 1), 0.0)


class TestStepExact:
    def test_zero_omega_reduces_to_euler(self):
        pose = Pose(0.3, -0.2, 0.7)
        tw = Twist(1.2, 0.0)
        assert step_exact(pose, tw, 0.25) == step_euler(pose, tw, 0.25)

    def test_omega_equal_to_the_straight_tolerance_takes_the_arc(self):
        # only |omega| strictly below OMEGA_STRAIGHT_TOL steps straight; over
        # 1e6 s the arc bends 0.5 m off the straight line Euler follows
        pose, tw = Pose(0, 0, 0), Twist(1.0, 1e-12)
        assert step_exact(pose, tw, 1e6).y == pytest.approx(0.5, abs=1e-3)
        assert step_euler(pose, tw, 1e6).y == 0.0

    def test_half_circle(self):
        pose = step_exact(Pose(0, 0, 0), Twist(1.0, 1.0), math.pi)
        assert abs(pose.x - 0.0) <= 1e-12
        assert abs(pose.y - 2.0) <= 1e-12
        assert pose.theta == math.pi

    def test_flow_property(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pose = Pose(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            tw = Twist(rng.uniform(-2, 2), rng.uniform(-2, 2))
            dt = rng.uniform(0.01, 1.0)
            two_half = step_exact(step_exact(pose, tw, dt / 2), tw, dt / 2)
            one_full = step_exact(pose, tw, dt)
            assert math.isclose(two_half.x, one_full.x, abs_tol=1e-12)
            assert math.isclose(two_half.y, one_full.y, abs_tol=1e-12)
            assert abs(wrap_angle(two_half.theta - one_full.theta)) <= 1e-12


class TestIntegratorAgreement:
    def test_richardson_order_across_random_states(self):
        # halving dt should quarter the one-step euler/exact discrepancy
        rng = np.random.default_rng(11)
        orders = []
        for _ in range(100):
            pose = Pose(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            v = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
            omega = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
            tw = Twist(v, omega)

            def gap(dt):
                a = step_euler(pose, tw, dt)
                b = step_exact(pose, tw, dt)
                return math.hypot(a.x - b.x, a.y - b.y)

            order = math.log2(gap(0.02) / gap(0.01))
            orders.append(order)
        assert all(1.7 <= o <= 2.3 for o in orders), (min(orders), max(orders))

    def test_equal_wheels_keep_heading_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            speed = rng.uniform(-2, 2)
            tw = wheel_to_twist(WheelSpeeds(speed, speed), P)
            pose = Pose(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            for step in (step_euler, step_exact):
                nxt = step(pose, tw, 0.1)
                assert nxt.theta == pose.theta  # exact, not approximate
                # displacement collinear with heading (forward or reverse)
                if speed != 0.0:
                    ang = math.atan2(nxt.y - pose.y, nxt.x - pose.x)
                    off = abs(wrap_angle(ang - pose.theta))
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
            WheelSpeeds(math.nan, 0.0)
        with pytest.raises(ValueError):
            Twist(0.0, math.inf)
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
            pose = Pose(0, 0, 3.0)
            for _ in range(500):
                tw = Twist(rng.uniform(-2, 2), rng.uniform(-4, 4))
                pose = step(pose, tw, 0.1)
                assert -math.pi < pose.theta <= math.pi
