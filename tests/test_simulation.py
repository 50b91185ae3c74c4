import functools
import importlib.util
import inspect
import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, astuple, fields, replace

import pytest

from fuzzynav import (
    Goal,
    LinguisticVariable,
    Pose,
    RobotParams,
    Rule,
    RuleBase,
    Scenario,
    Term,
    TriangularMF,
    benchmark_scenario,
    builtin,
    compare,
    infer,
    load_scenario,
    ordering_report,
    run,
    scenario_from_dict,
    uniform_variable,
)
from fuzzynav import engine, simulation
from fuzzynav.kinematics import step_euler, wheel_to_twist
from fuzzynav.rulebase import BUILTIN_SIZES
from fuzzynav.simulation import BUILTIN_CONTROLLERS, MAX_TICKS, initial_distance, resolve_controller


class TestRunLoop:
    def test_start_at_goal_never_moves(self):
        sc = Scenario(start=Pose(1.0, 2.0, 0.3), goal=Goal(1.0, 2.0))
        traj, m = run(sc)
        assert m.reached and m.time_to_target == 0.0
        assert len(traj) == 1
        assert (traj[0].x, traj[0].y, traj[0].theta) == (1.0, 2.0, 0.3)
        assert traj[0].v_l == traj[0].v_r == 0.0
        assert m.time_angle_aligned == 0.0
        assert m.path_length == 0.0

    def test_distance_equal_to_goal_tol_is_reached_at_t0(self):
        traj, m = run(Scenario(start=Pose(0.0, 0.0, 0.0), goal=Goal(0.1, 0.0)))
        assert m.reached and m.time_to_target == 0.0 and len(traj) == 1

    def test_heading_error_equal_to_angle_tol_is_aligned_at_t0(self):
        sc = Scenario(start=Pose(0.0, 0.0, -0.05), goal=Goal(10.0, 0.0), max_time=0.1)
        traj, m = run(sc)
        assert traj[0].e_theta == sc.angle_tol
        assert m.time_angle_aligned == 0.0

    def test_benchmark_reaches_the_goal(self):
        traj, m = run(benchmark_scenario("3"))
        assert m.reached
        assert m.time_to_target < 120.0
        assert traj[-1].e_d <= 0.1

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
                if abs(traj[k].e_theta) <= sc.angle_tol:
                    idx = k
                else:
                    break
            assert idx < len(traj), f"{name}-MF never aligned"
            seg = traj[idx:]
            for before, after in zip(seg, seg[1:]):
                assert after.e_d <= before.e_d

    def test_invalid_scenario_rejected_before_stepping(self):
        pytest_raises_named_field = pytest.raises(ValueError, match="'dt'")
        with pytest_raises_named_field:
            run(Scenario(start=Pose(0, 0, 0), goal=Goal(1, 1), dt=0.0))

    def test_scenario_is_checked_when_built(self):
        with pytest.raises(ValueError, match="^scenario field 'goal_tol' must be > 0$"):
            Scenario(start=Pose(0, 0, 0), goal=Goal(1, 1), goal_tol=0.0)
        with pytest.raises(ValueError, match="^scenario field 'angle_tol' must be > 0$"):
            Scenario(start=Pose(0, 0, 0), goal=Goal(1, 1), angle_tol=0.0)
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


class TestZeroAreaWarning:
    @staticmethod
    def gapped_rulebase():
        # the two distance terms overlap by only 1e-13 m around 10 m, where
        # both fire at ~1e-14, so every clip there encloses less than the
        # engine's zero-area tolerance; an empty aggregate defuzzifies to its
        # universe's midpoint, +1 m/s on the right wheel and -1 m/s on the left
        base = builtin(3)
        distance = LinguisticVariable("distance", 0.0, 20.0, (
            Term("near", TriangularMF(0.0, 0.0, 10.0 + 1e-13)),
            Term("far", TriangularMF(10.0 - 1e-13, 20.0, 20.0)),
        ))
        left = uniform_variable("left", -2.0, 0.0, base.left_var.labels)
        rules = tuple(Rule(a, d, "M", "M") for a in base.angle_var.labels for d in distance.labels)
        return RuleBase(base.angle_var, distance, base.right_var, left, rules)

    def test_one_warning_per_zero_area_tick(self, caplog):
        rb = self.gapped_rulebase()
        assert infer(rb, 0.0, 10.0)[2:] == (True, True)
        assert infer(rb, 0.0, 9.9)[2:] == (False, False)
        # starting 10 m from the goal, the robot turns on the spot at every
        # tick and never leaves the gap: ten ticks infer, the last sample stops
        sc = Scenario(start=Pose(0.0, 0.0, 0.0), goal=Goal(10.0, 0.0), max_time=1.0, controller=rb)
        with caplog.at_level(logging.WARNING, logger="fuzzynav.navigator"):
            traj, _ = run(sc)
        assert len(traj) == 11
        records = [(r.name, r.levelno) for r in caplog.records]
        assert records == [("fuzzynav.navigator", logging.WARNING)] * 10
        messages = [r.getMessage() for r in caplog.records]
        assert messages[0] == "zero-area aggregation at e_theta=0.0000 e_d=10.0000 (right=True left=True)"
        pattern = r"zero-area aggregation at e_theta=[-+]?\d\.\d{4} e_d=10\.0000 \(right=True left=True\)"
        assert all(re.fullmatch(pattern, m) for m in messages)
        assert len(set(messages)) == 10  # each tick's heading error, not one message repeated


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

    @pytest.mark.parametrize("name", BUILTIN_CONTROLLERS)
    def test_runs_share_one_builtin_per_key(self, name):
        sc = benchmark_scenario(name)
        assert resolve_controller(sc) is resolve_controller(replace(sc))
        assert builtin(int(name), d_max=initial_distance(sc)) is not builtin(int(name), d_max=initial_distance(sc))

    @pytest.mark.parametrize("name", BUILTIN_CONTROLLERS)
    def test_keys_an_ulp_or_a_v_max_apart_share_no_builtin(self, name):
        # 3.0 and the next float up are distinct distance universes, as is a slower robot
        far = math.nextafter(3.0, 4.0)
        keys = ((3.0, 2.0), (far, 2.0), (3.0, 1.5))
        scenarios = [Scenario(Pose(0.0, 0.0, 0.5), Goal(d, 0.0), params=RobotParams(v_max=v), controller=name)
                     for d, v in keys]
        resolved = [resolve_controller(sc) for sc in scenarios]
        assert len({id(rb) for rb in resolved}) == 3
        for rb, (d, v) in zip(resolved, keys):
            assert (rb.distance_var.hi, rb.right_var.hi, rb.left_var.hi) == (d, v, v)
        for sc, (d, v) in [*zip(scenarios, keys)] * 2:  # shared bases, run alternately
            fresh = replace(sc, controller=builtin(int(name), d_max=d, v_max=v))
            assert repr(run(sc)) == repr(run(fresh))

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

    def test_far_scenario_raises_before_any_row(self):
        # a rules-file controller allows any finite distance; the built-ins do not
        sc = Scenario(Pose(0.0, 0.0, 0.0), Goal(2e6, 0.0), controller="whatever.rules")
        message = "scenario fields 'start' and 'goal': distance must not exceed 1e+06 in magnitude, got 2000000.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compare(sc)

    def test_ordering_report_shape(self):
        entries = compare(benchmark_scenario())
        report = ordering_report(entries)
        assert set(report) == {"time_to_target", "fastest", "three_mf_fastest"}
        assert report["fastest"] in ("3", "5", "7")
        assert isinstance(report["three_mf_fastest"], bool)

    def test_ordering_report_undetermined_when_runs_miss(self):
        entries = compare(replace(benchmark_scenario(), max_time=1.0))
        report = ordering_report(entries)
        assert report["time_to_target"] == {"3": None, "5": None, "7": None}
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

    def test_asdict_round_trips_through_json(self):
        sc = Scenario(
            start=Pose(1.5, -2.0, 4.0), goal=Goal(-3.0, 7.25), dt=0.05, max_time=30.0, goal_tol=0.2,
            angle_tol=0.1, params=RobotParams(0.4, 0.05, 1.5), controller="rules/five.rules",
        )
        assert sc.start.theta == 4.0 - math.tau
        data = asdict(sc)
        assert list(data) == [f.name for f in fields(Scenario)]
        assert scenario_from_dict(json.loads(json.dumps(data))) == sc

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


# The engine's work on a closed loop: (controller, straight behind at 3 m)
# -> (ticks, rule firings, centroids).  The paper runs fire once per tick;
# a memo that stopped hitting on the plateau ticks of a turn on the spot
# would fire 59/59/62 times behind, and an output pair defuzzified twice
# where one centroid serves both would take 526/654/744 centroids ahead.
PINNED_WORK = {
    ("3", False): (263, 263, 447),
    ("5", False): (327, 327, 439),
    ("7", False): (372, 372, 585),
    ("3", True): (59, 36, 61),
    ("5", True): (59, 41, 67),
    ("7", True): (62, 45, 80),
}


@pytest.mark.parametrize("case", PINNED_WORK, ids=lambda c: f"{c[0]}mf-{'behind' if c[1] else 'paper'}")
def test_engine_work_per_run_is_pinned(case, monkeypatch):
    controller, behind = case
    calls = {"_term_strengths": 0, "_centroid": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(engine, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(engine, name, counting)
    sc = benchmark_scenario(controller, bearing=math.pi, distance=3.0) if behind else benchmark_scenario(controller)
    # the second run reuses the first's built-in and memo, and does the same work
    runs = []
    for _ in range(2):
        traj, _ = run(sc)
        runs.append((repr(traj), len(traj) - 1, calls["_term_strengths"], calls["_centroid"]))
        calls.update(dict.fromkeys(calls, 0))
    assert runs[0] == runs[1]
    assert runs[0][1:] == PINNED_WORK[case]


def bits(*values):
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("controller", BUILTIN_CONTROLLERS)
def test_loop_steps_through_the_public_kinematic_model(controller, monkeypatch):
    # replaying the recorded wheel speeds through wheel_to_twist and
    # step_euler from the start pose gives every recorded pose and the
    # path length bit for bit, and run reaches both through the names
    # its module binds
    calls = {"wheel_to_twist": 0, "step_euler": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(simulation, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(simulation, name, counting)
    sc = benchmark_scenario(controller)
    traj, m = run(sc)
    assert calls == dict.fromkeys(calls, len(traj) - 1)
    x, y, theta = sc.start.x, sc.start.y, sc.start.theta
    path_length = 0.0
    for sample in traj[:-1]:
        assert bits(sample.x, sample.y, sample.theta) == bits(x, y, theta)
        new_x, new_y, theta = step_euler(x, y, theta, *wheel_to_twist(sample.v_l, sample.v_r, sc.params.wheel_base),
                                         sc.dt)
        path_length += math.hypot(new_x - x, new_y - y)
        x, y = new_x, new_y
    assert bits(traj[-1].x, traj[-1].y, traj[-1].theta) == bits(x, y, theta)
    assert bits(m.path_length) == bits(path_length)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what ``python tools/bit_digest.py`` prints: trajectory sha256s, then each case's final bits in hex
PIN_FILE = os.path.join(ROOT, "tests", "pins", "closed_loop.txt")


@functools.cache
def _bit_digest():
    spec = importlib.util.spec_from_file_location("bit_digest", os.path.join(ROOT, "tools", "bit_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _current_lines():
    return list(_bit_digest().lines())


def _pinned_lines():
    with open(PIN_FILE, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _case(line):
    """A pin line's case: its trajectory file, or its controller, bearing and distance."""
    c, bearing, *rest = line.split()
    return c if not rest else f"{c}-MF bearing {float.fromhex(bearing):.6f} ({bearing}) distance {rest[0]} m"


def _pin_mismatches(pinned, current):
    """One entry per case whose pinned and current lines differ: the case, then both lines."""
    old, new = ({_case(line): line for line in lines} for lines in (pinned, current))
    return [f"{case}\n  pinned:  {old.get(case)}\n  current: {new.get(case)}"
            for case in {**old, **new} if old.get(case) != new.get(case)]


def test_pin_file_lists_the_cases_the_tool_prints():
    assert list(map(_case, _current_lines())) == list(map(_case, _pinned_lines()))


# one test per trajectory file and controller; re-record: python tools/bit_digest.py > tests/pins/closed_loop.txt
@pytest.mark.parametrize("first", dict.fromkeys(line.split()[0] for line in _pinned_lines()),
                         ids=lambda first: first if first.endswith(".csv") else f"{first}mf-cases")
def test_closed_loop_bits_match_the_pin_file(first):
    pinned, current = ([line for line in lines if line.split()[0] == first] for lines in (_pinned_lines(), _current_lines()))
    assert current == pinned, "\n".join(_pin_mismatches(pinned, current))


def test_a_pin_mismatch_names_its_case():
    # one hex digit of the 5-MF paper run's path length changed
    pinned = _pinned_lines()
    i = next(i for i, line in enumerate(pinned) if line.startswith("5 0x1.921fb54442d18p-1 24.41 "))
    *fields, path = pinned[i].split()
    changed = list(pinned)
    changed[i] = " ".join([*fields, path[:4] + format(int(path[4], 16) ^ 1, "x") + path[5:]])
    assert _pin_mismatches(pinned, changed) == [
        f"5-MF bearing 0.785398 (0x1.921fb54442d18p-1) distance 24.41 m\n  pinned:  {pinned[i]}\n  current: {changed[i]}"
    ]


def _moved(sc, phi, tx, ty):
    """``sc`` with its start and goal rotated by ``phi`` about the origin, then shifted by (tx, ty)."""
    cos, sin = math.cos(phi), math.sin(phi)
    s, g = sc.start, sc.goal
    return replace(sc, start=Pose(s.x * cos - s.y * sin + tx, s.x * sin + s.y * cos + ty, s.theta + phi),
                   goal=Goal(g.x * cos - g.y * sin + tx, g.x * sin + g.y * cos + ty))


# (rotation in rad, then translation in m)
RIGID_MOTIONS = ((0.3, 0.0, 0.0), (0.0, 100.0, -50.0), (2.0, 1000.0, 1000.0))


def test_map_is_invariant_under_rigid_motions():
    # the loop reads only (e_d, e_theta), so moving start and goal together
    # changes no case's pinned reached state or tick count on the map
    tool = _bit_digest()
    pinned = {tuple(fields[:3]): fields[3:5] for fields in map(str.split, _pinned_lines()) if len(fields) > 2}
    changed, cases = [], 0
    for c in tool.CONTROLLERS:
        for distance in tool.DISTANCES:
            for bearing in tool.BEARINGS:
                sc = benchmark_scenario(c, bearing, distance)
                for motion in RIGID_MOTIONS:
                    traj, m = run(_moved(sc, *motion))
                    if [str(m.reached), str(len(traj) - 1)] != pinned[c, bearing.hex(), repr(distance)]:
                        changed.append((c, bearing, distance, motion))
                cases += 1
    assert cases == 144
    assert changed == []


class TestBenchmarkScenario:
    def test_geometry(self):
        sc = benchmark_scenario()
        assert math.isclose(initial_distance(sc), 24.41, abs_tol=1e-9)
        assert sc.dt == 0.1
        assert math.isclose(
            math.atan2(sc.goal.y, sc.goal.x), math.pi / 4, abs_tol=1e-12
        )

    def test_runs_with_numpy_unimportable(self):
        # the package needs no numpy at run time: a fresh interpreter that
        # cannot import it runs the 3-MF benchmark to the same metrics
        src = os.path.dirname(os.path.dirname(inspect.getfile(run)))
        code = f"""
import sys
sys.modules["numpy"] = None
sys.path.insert(0, {src!r})
from dataclasses import astuple
from fuzzynav import benchmark_scenario, run
print(repr(astuple(run(benchmark_scenario("3"))[1])))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == repr(astuple(run(benchmark_scenario("3"))[1]))
