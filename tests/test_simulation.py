import json
import math
import os
import re
from dataclasses import fields, replace

import pytest

from fuzzynav import (
    ComparisonEntry,
    Goal,
    Pose,
    RobotParams,
    Scenario,
    benchmark_scenario,
    builtin,
    compare,
    load_scenario,
    ordering_report,
    run,
    scenario_from_dict,
    scenario_to_dict,
)
from fuzzynav.rulebase import BUILTIN_SIZES
from fuzzynav.simulation import BUILTIN_CONTROLLERS, MAX_TICKS, initial_distance, resolve_controller


class TestRunLoop:
    def test_start_at_goal_never_moves(self):
        sc = Scenario(start=Pose(1.0, 2.0, 0.3), goal=Goal(1.0, 2.0))
        traj, m = run(sc)
        assert m.reached and m.time_to_target == 0.0
        assert len(traj) == 1
        assert traj[0].pose == Pose(1.0, 2.0, 0.3)
        assert traj[0].wheels.v_l == traj[0].wheels.v_r == 0.0
        assert m.time_angle_aligned == 0.0
        assert m.path_length == 0.0

    def test_benchmark_reaches_the_goal(self):
        traj, m = run(benchmark_scenario("3"))
        assert m.reached
        assert m.time_to_target < 120.0
        assert traj[-1].errors.e_d <= 0.1

    def test_timestamps_are_exact_multiples_of_dt(self):
        sc = benchmark_scenario("3")
        traj, _ = run(sc)
        for k, sample in enumerate(traj):
            assert sample.t == k * sc.dt  # exact float equality

    def test_not_reached_when_time_is_too_short(self):
        from dataclasses import replace

        sc = replace(benchmark_scenario("3"), max_time=1.0)
        traj, m = run(sc)
        assert not m.reached and m.time_to_target is None
        assert traj[-1].t == 1.0

    def test_path_length_at_least_straight_line(self):
        sc = benchmark_scenario("3")
        _, m = run(sc)
        slack = sc.params.v_max * sc.dt
        assert m.path_length >= initial_distance(sc) - sc.goal_tol - slack

    def test_halving_v_max_slows_the_run(self):
        # rerun oracle: traversal time is monotone in the speed cap
        sc = benchmark_scenario("3")
        _, fast = run(sc)
        from dataclasses import replace

        slow_sc = replace(sc, params=RobotParams(0.5, 0.1, 1.0))
        _, slow = run(slow_sc)
        assert slow.reached
        assert slow.time_to_target > fast.time_to_target

    def test_run_is_deterministic(self):
        sc = benchmark_scenario("5")
        traj1, m1 = run(sc)
        traj2, m2 = run(sc)
        assert m1 == m2
        assert traj1 == traj2  # exact float equality across reruns

    def test_e_d_non_increasing_after_continuous_alignment(self):
        # regression property for the default configuration
        for name in ("3", "5", "7"):
            sc = benchmark_scenario(name)
            traj, _ = run(sc)
            idx = len(traj)
            for k in range(len(traj) - 1, -1, -1):
                if abs(traj[k].errors.e_theta) <= sc.angle_tol:
                    idx = k
                else:
                    break
            assert idx < len(traj), f"{name}-MF never aligned"
            seg = traj[idx:]
            for before, after in zip(seg, seg[1:]):
                assert after.errors.e_d <= before.errors.e_d

    def test_invalid_scenario_rejected_before_stepping(self):
        pytest_raises_named_field = pytest.raises(ValueError, match="'dt'")
        with pytest_raises_named_field:
            run(Scenario(start=Pose(0, 0, 0), goal=Goal(1, 1), dt=0.0))

    def test_scenario_is_checked_when_built(self):
        with pytest.raises(ValueError, match="^scenario field 'goal_tol' must be > 0$"):
            Scenario(start=Pose(0, 0, 0), goal=Goal(1, 1), goal_tol=0.0)
        sc = benchmark_scenario()
        with pytest.raises(ValueError, match="^scenario field 'angle_tol' must be finite, got nan$"):
            replace(sc, angle_tol=math.nan)
        for bad in (5, 3.0, True, None, ["3"]):
            with pytest.raises(ValueError, match="^scenario field 'controller' must be '3', '5', '7' or a rules-file path$"):
                replace(sc, controller=bad)
        with pytest.raises(ValueError, match="^scenario field 'controller' must not be empty$"):
            benchmark_scenario("")

    def test_integer_controller_never_reads_a_file_descriptor(self, tmp_path):
        # open(5) would read descriptor 5 and close it
        with open(tmp_path / "held.txt", "w+", encoding="utf-8") as fh:
            fd = fh.fileno()
            with pytest.raises(ValueError, match="'controller'"):
                run(benchmark_scenario(fd))
            os.fstat(fd)

    def test_rule_count_matches_controller(self):
        for name, count in (("3", 9), ("5", 25), ("7", 49)):
            _, m = run(benchmark_scenario(name))
            assert m.rule_count == count


class TestControllers:
    def test_builtin_distance_universe_sized_to_scenario(self):
        sc = benchmark_scenario("3")
        rb = resolve_controller(sc)
        assert math.isclose(rb.distance_var.hi, 24.41, abs_tol=1e-12)

    def test_custom_rulebase_accepted_directly(self):
        rb = builtin(5, d_max=24.41)
        sc = benchmark_scenario(rb)
        assert resolve_controller(sc) is rb
        _, m = run(sc)
        assert m.reached and m.rule_count == 25

    def test_builtin_names_follow_the_grids(self):
        assert BUILTIN_SIZES == (3, 5, 7)
        assert BUILTIN_CONTROLLERS == ("3", "5", "7")

    def test_unknown_controller_names_choices(self):
        sc = benchmark_scenario("9")
        with pytest.raises(ValueError, match="3, 5, 7"):
            resolve_controller(sc)

    def test_controller_from_rules_file(self, tmp_path):
        from fuzzynav import render_rulebase

        path = tmp_path / "five.rules"
        path.write_text(render_rulebase(builtin(5, d_max=24.41)), encoding="utf-8")
        from dataclasses import replace

        sc = replace(benchmark_scenario(), controller=str(path))
        _, m = run(sc)
        assert m.reached and m.rule_count == 25

    def test_controller_rules_file_with_byte_order_mark(self, tmp_path):
        from fuzzynav import render_rulebase

        text = render_rulebase(builtin(5, d_max=24.41))
        plain, marked = tmp_path / "plain.rules", tmp_path / "bom.rules"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        resolved = [resolve_controller(replace(benchmark_scenario(), controller=str(p))) for p in (plain, marked)]
        assert resolved[1] == resolved[0]


class TestCompare:
    def test_rows_follow_input_order_with_rule_counts(self):
        entries = compare(benchmark_scenario())
        assert [e.controller for e in entries] == ["3", "5", "7"]
        assert [e.metrics.rule_count for e in entries] == [9, 25, 49]
        assert all(e.metrics.reached for e in entries)

    def test_identical_controllers_give_identical_rows(self):
        entries = compare(benchmark_scenario(), controllers=("5", "5"))
        assert entries[0].metrics == entries[1].metrics
        assert entries[0].trajectory == entries[1].trajectory

    def test_failed_row_keeps_others(self, tmp_path):
        bad = tmp_path / "missing.rules"
        entries = compare(benchmark_scenario(), controllers=("3", str(bad)))
        assert entries[0].metrics is not None
        assert entries[1].metrics is None and entries[1].error

    def test_malformed_rules_file_gives_an_error_row(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("var angle range 0 1\nrule if angle is Z\n", encoding="utf-8")
        sc = benchmark_scenario()
        entries = compare(sc, controllers=("3", str(bad)))
        trajectory, metrics = run(sc)
        assert entries[0] == ComparisonEntry("3", metrics, tuple(trajectory))
        assert entries[1].controller == str(bad)
        assert entries[1].metrics is None and entries[1].trajectory is None
        assert entries[1].error.startswith(
            f"scenario field 'controller': {bad}: line 2, col 1: expected 'rule if angle is <label>"
        )

    def test_empty_controller_gives_an_error_row(self):
        entries = compare(benchmark_scenario(), controllers=("3", ""))
        assert entries[0].metrics.reached
        assert entries[1].error == "scenario field 'controller' must not be empty"

    def test_ordering_report_shape(self):
        entries = compare(benchmark_scenario())
        report = ordering_report(entries)
        assert set(report) == {"time_to_target", "fastest", "three_mf_fastest"}
        assert report["fastest"] in ("3", "5", "7")
        assert isinstance(report["three_mf_fastest"], bool)

    def test_ordering_report_undetermined_on_failure(self):
        entries = compare(benchmark_scenario(), controllers=("3", "nonexistent.rules"))
        report = ordering_report(entries)
        assert report["three_mf_fastest"] is None and report["fastest"] is None


class TestScenarioConfig:
    def base_config(self):
        return {
            "start": {"x": 0.0, "y": 0.0, "theta": 0.0},
            "goal": {"x": 3.0, "y": 4.0},
            "dt": 0.1,
            "max_time": 60.0,
            "goal_tol": 0.1,
            "angle_tol": 0.05,
            "params": {"wheel_base": 0.5, "wheel_radius": 0.1, "v_max": 2.0},
            "controller": "3",
        }

    def test_full_config_round_trip(self):
        sc = scenario_from_dict(self.base_config())
        assert sc.goal == Goal(3.0, 4.0)
        assert initial_distance(sc) == 5.0

    def test_to_dict_round_trips_and_labels_a_rulebase_custom(self):
        sc = Scenario(
            start=Pose(1.5, -2.0, 4.0), goal=Goal(-3.0, 7.25), dt=0.05, max_time=30.0, goal_tol=0.2,
            angle_tol=0.1, params=RobotParams(0.4, 0.05, 1.5), controller="rules/five.rules",
        )
        assert sc.start.theta == 4.0 - math.tau
        data = scenario_to_dict(sc)
        assert list(data) == [f.name for f in fields(Scenario)]
        assert scenario_from_dict(json.loads(json.dumps(data))) == sc
        assert scenario_to_dict(replace(sc, controller=builtin(5))) == {**data, "controller": "custom"}

    def test_defaults_applied_for_optional_fields(self):
        sc = scenario_from_dict({"start": {"x": 0, "y": 0}, "goal": {"x": 1, "y": 1}})
        assert sc.dt == 0.1 and sc.max_time == 120.0
        assert sc.goal_tol == 0.1 and sc.angle_tol == 0.05
        assert sc.controller == "3"

    def test_unknown_keys_rejected_at_each_level(self):
        cfg = self.base_config()
        cfg["speed"] = 3
        with pytest.raises(ValueError, match="unknown scenario key 'speed'"):
            scenario_from_dict(cfg)
        cfg = self.base_config()
        cfg["goal"]["z"] = 1
        with pytest.raises(ValueError, match="unknown goal key 'z'"):
            scenario_from_dict(cfg)
        cfg = self.base_config()
        cfg["params"]["mass"] = 12
        with pytest.raises(ValueError, match="unknown params key 'mass'"):
            scenario_from_dict(cfg)

    def test_field_errors_name_the_field(self):
        cases = [("dt", 0, "'dt'"), ("goal_tol", -1, "'goal_tol'"), ("dt", "fast", "'dt'")]
        # every numeric field rejects non-finite values, naming the field
        for field in ("dt", "max_time", "goal_tol", "angle_tol"):
            cases += [(field, bad, f"'{field}' must be finite") for bad in (math.nan, math.inf, -math.inf)]
        # a nested field names its section first; Goal's own message says "goal x"
        for section, field, label in (("params", "wheel_base", "wheel_base"), ("params", "wheel_radius", "wheel_radius"),
                                      ("params", "v_max", "v_max"), ("start", "x", "x"), ("start", "y", "y"),
                                      ("start", "theta", "theta"), ("goal", "x", "goal x"), ("goal", "y", "goal y")):
            cases += [((section, field), bad, f"^scenario field '{section}': {label} must be finite")
                      for bad in (math.nan, math.inf, -math.inf)]
        for key, bad, match in cases:
            cfg = self.base_config()
            if isinstance(key, tuple):
                cfg[key[0]][key[1]] = bad
            else:
                cfg[key] = bad
            with pytest.raises(ValueError, match=match):
                scenario_from_dict(cfg)

    def test_tick_budget_names_max_time_and_dt(self, tmp_path):
        from dataclasses import replace

        at_budget = replace(benchmark_scenario(), dt=1.0, max_time=float(MAX_TICKS))
        match = "'max_time' / 'dt' must not exceed"
        for over in ({"max_time": MAX_TICKS + 1.0}, {"dt": 1e-9, "max_time": 1e9}):
            with pytest.raises(ValueError, match=match):
                replace(at_budget, **over)
        path = tmp_path / "long.json"
        path.write_text(json.dumps({**self.base_config(), "dt": 1e-9, "max_time": 1e9}), encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            load_scenario(str(path))

    def test_integer_controller_accepted(self):
        cfg = self.base_config()
        cfg["controller"] = 5
        assert scenario_from_dict(cfg).controller == "5"

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="'goal'"):
            scenario_from_dict({"start": {"x": 0, "y": 0}})

    def test_start_requires_coordinates(self):
        with pytest.raises(ValueError, match="'start'"):
            scenario_from_dict({"start": {"theta": 0.0}, "goal": {"x": 1, "y": 1}})

    def test_load_scenario_json_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "start": {,}\n}', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_scenario(str(path))

    def test_load_scenario_rejects_non_finite_tokens_by_name(self, tmp_path):
        path = tmp_path / "inf.json"
        for token in ("NaN", "Infinity", "-Infinity"):
            path.write_text(json.dumps(self.base_config()).replace('"max_time": 60.0', f'"max_time": {token}'),
                            encoding="utf-8")
            with pytest.raises(ValueError, match=f"non-finite number '{token}'"):
                load_scenario(str(path))

    def test_load_scenario_names_the_section_of_an_overflowing_literal(self, tmp_path):
        # json parses 1e400 to inf without calling parse_constant; an integer
        # literal too big for a float counts as inf too
        path = tmp_path / "overflow.json"
        huge = "1" + "0" * 400
        for section, key, literal, message in (("start", "x", "1e400", "x must be finite, got inf"),
                                               ("goal", "y", "-1e400", "goal y must be finite, got -inf"),
                                               ("params", "v_max", "1e400", "v_max must be finite, got inf"),
                                               ("start", "x", huge, "x must be finite, got inf"),
                                               ("goal", "y", "-" + huge, "goal y must be finite, got -inf")):
            cfg = self.base_config()
            cfg[section][key] = "LITERAL"
            path.write_text(json.dumps(cfg).replace('"LITERAL"', literal), encoding="utf-8")
            with pytest.raises(ValueError, match=f"^scenario field '{section}': {message}$"):
                load_scenario(str(path))
        path.write_text(json.dumps({**self.base_config(), "dt": "LITERAL"}).replace('"LITERAL"', huge), encoding="utf-8")
        with pytest.raises(ValueError, match="^scenario field 'dt' must be finite, got inf$"):
            load_scenario(str(path))

    def test_load_scenario_rejects_nesting_past_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"start": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid JSON: "):
            load_scenario(str(path))

    def test_load_scenario_rejects_an_integer_past_the_digit_limit(self, tmp_path):
        # int() refuses more than 4300 digits by default, before any float overflow
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({**self.base_config(), "dt": "LITERAL"}).replace('"LITERAL"', "1" + "0" * 5000),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid JSON: "):
            load_scenario(str(path))

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(self.base_config()), encoding="utf-8")
        sc = load_scenario(str(path))
        assert sc.params.v_max == 2.0

    def test_load_scenario_accepts_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(self.base_config()).encode("utf-8"))
        assert load_scenario(str(path)) == scenario_from_dict(self.base_config())


# Numerically sensitive runs under the 8001-point centroid quadrature:
# (controller, bearing, distance) -> (reached, samples, path_length); None
# is the paper geometry.  The orbiting 0.5 m starts circle the goal for the
# whole 120 s, so a change in the ninth digit of a defuzzified speed shows.
PINNED_RUNS = {
    ("3", None, None): (True, 264, 24.456218166335173),
    ("5", None, None): (True, 328, 24.41570846254852),
    ("7", None, None): (True, 373, 24.419888464978317),
    ("3", -math.pi + 5 * 2 * math.pi / 256, 0.5): (False, 1201, 152.67049149171058),
    ("7", -math.pi + 36 * 2 * math.pi / 256, 0.5): (False, 1201, 131.82259499864858),
}


@pytest.mark.parametrize("case", PINNED_RUNS, ids=lambda c: f"{c[0]}mf-{'paper' if c[1] is None else 'orbit'}")
def test_numerically_sensitive_runs_are_pinned(case):
    controller, bearing, distance = case
    sc = benchmark_scenario(controller) if bearing is None else benchmark_scenario(controller, bearing, distance)
    reached, samples, path_length = PINNED_RUNS[case]
    traj, m = run(sc)
    assert m.reached == reached
    assert len(traj) == samples
    assert abs(m.path_length - path_length) <= 1e-9


class TestBenchmarkScenario:
    def test_geometry(self):
        sc = benchmark_scenario()
        assert math.isclose(initial_distance(sc), 24.41, abs_tol=1e-9)
        assert sc.dt == 0.1
        assert math.isclose(
            math.atan2(sc.goal.y, sc.goal.x), math.pi / 4, abs_tol=1e-12
        )
