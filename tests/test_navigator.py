import math

import numpy as np

from fuzzynav import (
    Goal,
    builtin,
    compute_errors,
    control_step,
    infer,
    wrap_angle,
)


class TestComputeErrors:
    def test_goal_ahead(self):
        assert compute_errors(0, 0, 0, Goal(1, 0)) == (1.0, 0.0)

    def test_goal_to_the_left(self):
        e_d, e_theta = compute_errors(0, 0, 0, Goal(0, 1))
        assert e_d == 1.0
        assert math.isclose(e_theta, math.pi / 2, abs_tol=1e-15)

    def test_wrap_convention_picks_positive_pi(self):
        # heading pi, goal straight behind: -pi wraps to +pi
        assert compute_errors(0, 0, math.pi, Goal(1, 0))[1] == math.pi

    def test_goal_coincident_defines_zero_angle(self):
        assert compute_errors(2.0, -1.0, 0.4, Goal(2.0, -1.0)) == (0.0, 0.0)

    def test_distance_equal_to_the_coincident_tolerance_keeps_the_bearing(self):
        # only a distance strictly below COINCIDENT_TOL drops the bearing
        assert compute_errors(0, 0, 1, Goal(1e-12, 0))[1] == -1.0

    def test_angle_error_always_in_range(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            x, y, theta = (float(v) for v in rng.uniform(-10, 10, 3))
            e_d, e_theta = compute_errors(x, y, wrap_angle(theta), Goal(*rng.uniform(-10, 10, 2)))
            assert -math.pi < e_theta <= math.pi
            assert e_d >= 0

    def test_rotation_equivariance(self):
        # rotating the whole scene about the origin changes neither error
        rng = np.random.default_rng(23)
        for _ in range(200):
            x, y = rng.uniform(-5, 5, 2)
            theta = rng.uniform(-3, 3)
            goal = Goal(*rng.uniform(-5, 5, 2))
            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)
            rgoal = Goal(c * goal.x - s * goal.y, s * goal.x + c * goal.y)
            e0 = compute_errors(x, y, theta, goal)
            e1 = compute_errors(c * x - s * y, s * x + c * y, wrap_angle(theta + phi), rgoal)
            assert math.isclose(e0[0], e1[0], abs_tol=1e-12)
            assert abs(wrap_angle(e0[1] - e1[1])) <= 1e-9


class TestControlStep:
    def test_outputs_respect_velocity_universe(self):
        rb = builtin(5, d_max=24.41, v_max=2.0)
        rng = np.random.default_rng(29)
        for _ in range(100):
            v_l, v_r = control_step(rb, rng.uniform(0, 30), rng.uniform(-math.pi * 0.999, math.pi))
            assert 0.0 <= v_l <= 2.0
            assert 0.0 <= v_r <= 2.0

    def test_slow_cell_at_goal(self):
        # (Z, Z) peaks: both motors near the slow centroid, robot nearly stopped
        rb = builtin(3, d_max=24.41, v_max=2.0)
        v_l, v_r = control_step(rb, 0.0, 0.0)
        assert v_l == v_r
        assert math.isclose(v_l, 1.0 / 3.0, abs_tol=1e-6)

    def test_turns_toward_positive_angle_error(self):
        rb = builtin(3, d_max=24.41, v_max=2.0)
        band = dict(rb.angle_var.terms)["P"].peak
        v_l, v_r = control_step(rb, 24.41, band)
        assert v_r > v_l


class TestSteeringSymmetry:
    def test_zero_angle_error_drives_straight(self):
        # the Z rows of the right and left grids are identical, so the two
        # aggregations coincide for any distance
        for n in (3, 5, 7):
            rb = builtin(n, d_max=24.41)
            rng = np.random.default_rng(31)
            for e_d in rng.uniform(0, 24.41, 100):
                res = infer(rb, 0.0, float(e_d))
                assert abs(res.v_right - res.v_left) <= 1e-9

    def test_mirror_property_where_grid_is_symmetric(self):
        # Negating the angle error swaps the wheel commands as long as the
        # near-zero distance column stays silent (e_d >= d_max / 2): the
        # published 3-MF grids are mirror-symmetric except in that column,
        # where the right table holds (P, Z) = F against the left table's
        # (N, Z) = M.
        rb = builtin(3, d_max=24.41)
        rng = np.random.default_rng(37)
        for _ in range(300):
            e_theta = rng.uniform(-math.pi, math.pi)
            e_d = rng.uniform(24.41 / 2, 24.41)
            fwd = infer(rb, e_theta, e_d)
            rev = infer(rb, -e_theta, e_d)
            assert abs(fwd.v_right - rev.v_left) <= 1e-9
            assert abs(fwd.v_left - rev.v_right) <= 1e-9

    def test_mirror_property_breaks_in_near_zero_column(self):
        # pins the grid irregularity: with the near-zero distance term firing
        # the verbatim tables command notably different mirrored speeds
        rb = builtin(3, d_max=24.41)
        fwd = infer(rb, math.pi / 2, 3.0)
        rev = infer(rb, -math.pi / 2, 3.0)
        assert abs(fwd.v_right - rev.v_left) > 0.1
