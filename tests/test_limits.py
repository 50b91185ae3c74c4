"""The magnitude bound and size floor every numeric boundary shares.

Universe bounds, breakpoints and robot parameters must lie within 1e6 in
magnitude; output universe widths and robot parameters must be at least
1e-6.  Each rejection names its field, and the loaders add the field's
section or line.
"""
import json
import math
import re
import sys
import warnings
from dataclasses import replace

import pytest

from fuzzynav import (
    Goal,
    Pose,
    RobotParams,
    RuleDefinitionError,
    Scenario,
    TriangularMF,
    benchmark_scenario,
    builtin,
    infer,
    load_scenario,
    parse_rulebase,
    render_rulebase,
    run,
    uniform_variable,
)
from fuzzynav.ruleformat import Issue

OVER = "must not exceed 1e+06 in magnitude"
UNDER = "must be at least 1e-06"


def raises(message: str):
    """pytest.raises for a ValueError whose message starts with ``message``."""
    return pytest.raises(ValueError, match="^" + re.escape(message))


def load_with_params(tmp_path, **params):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"start": {"x": 0.0, "y": 0.0}, "goal": {"x": 3.0, "y": 4.0}, "params": params}),
                    encoding="utf-8")
    return load_scenario(str(path))


class TestRobotParams:
    def test_huge_v_max_is_rejected_before_it_overflows_a_run(self, tmp_path):
        with raises(f"v_max {OVER}, got 1e+308"):
            RobotParams(v_max=1e308)
        with raises(f"scenario field 'params': v_max {OVER}, got 1e+308"):
            load_with_params(tmp_path, v_max=1e308)

    def test_tiny_v_max_is_rejected_before_every_tick_reads_zero_area(self, tmp_path):
        with raises(f"v_max {UNDER}, got 1e-320"):
            RobotParams(v_max=1e-320)
        with raises(f"scenario field 'params': v_max {UNDER}, got 1e-320"):
            load_with_params(tmp_path, v_max=1e-320)

    @pytest.mark.parametrize("field", ["wheel_base", "wheel_radius", "v_max"])
    def test_every_field_is_bounded_and_floored(self, field):
        # the size floor rejects 0.0 and every other value <= 0
        for bad, message in ((1e6 * (1 + 2**-52), OVER), (-1e7, OVER), (1e-6 * (1 - 2**-53), UNDER), (0.0, UNDER)):
            with raises(f"{field} {message}, got {bad}"):
                RobotParams(**{field: bad})
        for edge in (1e6, 1e-6):
            assert getattr(RobotParams(**{field: edge}), field) == edge


class TestMembership:
    @pytest.mark.parametrize("field, args", [("left", (-2e6, 0.0, 1.0)), ("peak", (0.0, 2e6, 3e6)),
                                             ("right", (0.0, 1.0, 2e6))])
    def test_breakpoints_are_bounded(self, field, args):
        with raises(f"triangle {field} {OVER}, got "):
            TriangularMF(*args)

    @pytest.mark.parametrize("lo, hi, field", [(-2e6, 0.0, "lo"), (0.0, 2e6, "hi")])
    def test_universe_bounds_are_bounded(self, lo, hi, field):
        with raises(f"variable 'x': {field} {OVER}, got "):
            uniform_variable("x", lo, hi, ("A", "B"))
        var = uniform_variable("x", -1e6, 1e6, ("A", "B"))
        with raises(f"variable 'x': {field} {OVER}, got "):
            replace(var, **{field: lo if field == "lo" else hi})

    def test_a_narrow_input_universe_is_accepted(self):
        assert uniform_variable("x", 0.0, 1e-9, ("A", "B")).hi == 1e-9


class TestRuleBase:
    @pytest.mark.parametrize("field", ["d_max", "v_max"])
    def test_builtin_scales_are_bounded_and_floored(self, field):
        for bad, message in ((2e6, OVER), (1e-7, UNDER)):
            with raises(f"{field} {message}, got "):
                builtin(3, **{field: bad})
        assert builtin(3, **{field: 1e6}) and builtin(3, **{field: 1e-6})

    @pytest.mark.parametrize("role", ["right", "left"])
    def test_narrow_output_universe_is_rejected_by_name(self, role):
        rb = builtin(3)
        narrow = uniform_variable(role, 0.0, 5e-7, ("S", "M", "F"))
        with raises(f"variable '{role}': universe width hi - lo {UNDER}, got 5e-07"):
            replace(rb, **{f"{role}_var": narrow})

    def test_huge_output_universe_is_rejected_at_its_line(self):
        # parsed clean before the bound; infer then overflowed its centroid
        # sum to nan, and its memo handed the nan back with no warning
        text = render_rulebase(builtin(3)).replace("var right range 0.0 2.0", "var right range -1e307 1e307")
        with pytest.raises(RuleDefinitionError) as excinfo:
            parse_rulebase(text)
        assert excinfo.value.issues == [Issue(f"variable 'right': lo {OVER}, got -1e+307", 3)]

    def test_huge_shoulders_are_rejected_at_their_term_lines(self):
        text = render_rulebase(builtin(3)).replace("var right range 0.0 2.0", "var right range -1e307 1e307")
        text = text.replace("term right S tri 0.0 0.0 1.0", "term right S tri -1e307 -1e307 1.0")
        text = text.replace("term right F tri 1.0 2.0 2.0", "term right F tri 1.0 1e307 1e307")
        lines = text.splitlines()
        with pytest.raises(RuleDefinitionError) as excinfo:
            parse_rulebase(text)
        assert excinfo.value.issues == [
            Issue(f"triangle left {OVER}, got -1e+307", lines.index("term right S tri -1e307 -1e307 1.0") + 1, 18),
            Issue(f"triangle peak {OVER}, got 1e+307", lines.index("term right F tri 1.0 1e307 1e307") + 1, 18),
        ]

    def test_narrow_output_universe_is_rejected_at_its_line(self):
        text = render_rulebase(builtin(3))
        for old, new in (("var left range 0.0 2.0", "var left range 0.0 5e-07"),
                         ("term left S tri 0.0 0.0 1.0", "term left S tri 0.0 0.0 2.5e-07"),
                         ("term left M tri 0.0 1.0 2.0", "term left M tri 0.0 2.5e-07 5e-07"),
                         ("term left F tri 1.0 2.0 2.0", "term left F tri 2.5e-07 5e-07 5e-07")):
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(RuleDefinitionError) as excinfo:
            parse_rulebase(text)
        assert excinfo.value.issues == [Issue(f"variable 'left': universe width hi - lo {UNDER}, got 5e-07", 4)]

    def test_outputs_at_the_edges_infer_finite_values_without_warnings(self):
        for v_max in (1e-6, 1e6):
            rb = builtin(7, d_max=1e6, v_max=v_max)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for e_theta, e_d in ((0.1, 3.0), (-3.0, 1e6), (0.0, 0.0)):
                    res = infer(rb, e_theta, e_d)
                    assert 0.0 <= res.v_right <= v_max and 0.0 <= res.v_left <= v_max
                    assert not (res.right_zero_area or res.left_zero_area)


class TestScenario:
    def test_builtin_controller_farther_than_the_bound_names_start_and_goal(self):
        with raises(f"scenario fields 'start' and 'goal': distance {OVER}, got 2000000.0"):
            benchmark_scenario("5", distance=2e6)
        with raises("scenario fields 'start' and 'goal': "):
            replace(benchmark_scenario(builtin(5)), controller="5", goal=Goal(1e6, 1.0))

    def test_far_goal_is_accepted_up_to_the_bound_and_for_a_rules_controller(self):
        assert Scenario(Pose(0.0, 0.0, 0.0), Goal(1e6, 0.0)).goal.x == 1e6
        rb = builtin(3)
        sc = Scenario(Pose(0.0, 0.0, 0.0), Goal(2e6, 0.0), max_time=0.2, controller=rb)
        _, metrics = run(sc)
        assert not metrics.reached and math.isfinite(metrics.path_length)

    def test_start_and_goal_a_float_range_apart_are_rejected_for_every_controller(self):
        # both coordinates are finite, but the distance between them is not
        for controller in (builtin(3), "whatever.rules", "3"):
            with raises("scenario fields 'start' and 'goal': distance must be finite, got inf"):
                Scenario(Pose(-1e308, 0.0, 0.0), Goal(1e308, 0.0), controller=controller)

    def test_load_scenario_rejects_start_and_goal_a_float_range_apart(self, tmp_path):
        path = tmp_path / "far.json"
        cfg = {"start": {"x": -1e308, "y": 0}, "goal": {"x": 1e308, "y": 0}, "controller": "whatever.rules"}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with raises("scenario fields 'start' and 'goal': distance must be finite, got inf"):
            load_scenario(str(path))

    def test_dt_is_bounded_where_it_enters(self, tmp_path):
        # a dt of 1e302 once overflowed theta partway through a run, with an
        # error that named no scenario field
        with raises(f"scenario field 'dt' {OVER}, got 1e+302"):
            Scenario(Pose(0, 0, 0), Goal(10, 0), dt=1e302, max_time=2e302,
                     params=RobotParams(v_max=1e6, wheel_base=1e-6), controller=builtin(3, d_max=10, v_max=1e6))
        path = tmp_path / "dt.json"
        over = 1e6 * (1 + 2**-52)
        for dt in (over, -over):
            with raises(f"scenario field 'dt' {OVER}, got {dt}"):
                Scenario(Pose(0.0, 0.0, 0.0), Goal(10.0, 0.0), dt=dt, max_time=abs(dt))
            path.write_text(json.dumps({"start": {"x": 0, "y": 0}, "goal": {"x": 10, "y": 0},
                                        "dt": dt, "max_time": abs(dt)}), encoding="utf-8")
            with raises(f"scenario field 'dt' {OVER}, got {dt}"):
                load_scenario(str(path))
        assert Scenario(Pose(0.0, 0.0, 0.0), Goal(10.0, 0.0), dt=1e6, max_time=1e6).dt == 1e6
        path.write_text(json.dumps({"start": {"x": 0, "y": 0}, "goal": {"x": 10, "y": 0},
                                    "dt": 1e6, "max_time": 1e6}), encoding="utf-8")
        assert load_scenario(str(path)).dt == 1e6

    def test_runs_at_the_corner_values_stay_finite(self):
        # the longest tick and the fastest, tightest-turning robot, from starts
        # to goals near the corners of the float range: a tick moves at most
        # 1e12 m and turns at most 2e18 rad, so no row overflows
        top = sys.float_info.max
        pairs = (
            ((top, top), (top, top / 2)),
            ((-top, -top), (-top / 2, -top)),
            ((top, -top), (math.nextafter(top, 0.0), -top)),
            ((-top, top), (-top / 2, top / 2)),
            ((top, -top / 2), (top / 2, -top)),
        )
        rb = builtin(7, d_max=1e6, v_max=1e6)
        params = RobotParams(wheel_base=1e-6, v_max=1e6)
        rows = 0
        for (sx, sy), (gx, gy) in pairs:
            for theta in (0.0, 2.0, -3.0):
                sc = Scenario(Pose(sx, sy, theta), Goal(gx, gy), dt=1e6, max_time=2e7, params=params, controller=rb)
                traj, metrics = run(sc)
                assert all(math.isfinite(v) for sample in traj for v in sample)
                assert math.isfinite(metrics.path_length)
                rows += len(traj)
        assert rows == 15 * 21
