"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any failure is a release blocker.
"""
import json
import math
import time

import numpy as np

from fuzzynav import (
    LinguisticVariable,
    Pose,
    Term,
    TriangularMF,
    Twist,
    WheelSpeeds,
    benchmark_scenario,
    builtin,
    compare,
    infer,
    ordering_report,
    parse_rulebase,
    run,
    step_euler,
    step_exact,
    wheel_to_twist,
    RobotParams,
)
from fuzzynav.cli import main
from fuzzynav.simulation import initial_distance

from golden_tables import GOLDEN
from test_engine import aggregate, brute_centroid


def ok(line: str):
    print(f"PASS: {line}")


def test_rule_counts():
    counts = {n: len(builtin(n).rules) for n in (3, 5, 7)}
    assert counts == {3: 9, 5: 25, 7: 49}
    ok(f"rule counts 9/25/49 exact ({counts})")


def test_rule_grid_fidelity():
    checked = 0
    for n in (3, 5, 7):
        rb = builtin(n)
        golden_right, golden_left = GOLDEN[n]
        assert len(rb.rules) == len(golden_right) == len(golden_left)
        for rule in rb.rules:
            cell = (rule.angle_term, rule.distance_term)
            assert rule.right_term == golden_right[cell], f"{n}-MF right {cell}"
            assert rule.left_term == golden_left[cell], f"{n}-MF left {cell}"
            checked += 2
    assert checked == 166  # 2 * (9 + 25 + 49), both motors
    ok(f"rule-grid fidelity: {checked} cells match the golden transcription exactly")


def test_defuzzification_oracle():
    t0 = time.perf_counter()
    # 100 random aggregations vs an independent 100001-point rectangle rule
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(100):
        var = builtin((3, 5, 7)[i % 3], d_max=24.41).right_var
        k = rng.integers(1, len(var.labels) + 1)
        labels = rng.choice(var.labels, size=k, replace=False)
        (value, zero_area), clips = aggregate(var, [(str(l), float(rng.uniform(0.05, 1.0))) for l in labels])
        assert not zero_area
        worst = max(worst, abs(value - brute_centroid(clips, var.lo, var.hi)))
    assert worst <= 1e-6

    # symmetric triangle clipped at 1.0: centroid equals the apex
    var = LinguisticVariable("v", 0.0, 2.0, (
        Term("mid", TriangularMF(0.5, 1.0, 1.5)),
        Term("lo", TriangularMF(0.0, 0.0, 1.0)),
        Term("hi", TriangularMF(1.0, 2.0, 2.0)),
    ))
    (value, _), _ = aggregate(var, [("mid", 1.0)])
    assert abs(value - 1.0) <= 1e-9
    ok(
        f"defuzzification oracle: worst |centroid error| {worst:.2e} <= 1e-6; "
        f"symmetric apex {abs(value - 1.0):.1e} <= 1e-9 ({time.perf_counter() - t0:.2f} s)"
    )


def test_kinematics_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    orders = []
    for _ in range(100):
        pose = Pose(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
        tw = Twist(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]), rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))

        def gap(dt):
            a, b = step_euler(pose, tw, dt), step_exact(pose, tw, dt)
            return math.hypot(a.x - b.x, a.y - b.y)

        orders.append(math.log2(gap(0.02) / gap(0.01)))
    assert all(1.7 <= o <= 2.3 for o in orders)

    params = RobotParams()
    for _ in range(100):
        speed = rng.uniform(-2, 2)
        tw = wheel_to_twist(WheelSpeeds(speed, speed), params)
        pose = Pose(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
        assert step_euler(pose, tw, 0.1).theta - pose.theta == 0.0
        assert step_exact(pose, tw, 0.1).theta - pose.theta == 0.0
    ok(
        f"kinematics oracle: euler->exact order in [{min(orders):.2f}, {max(orders):.2f}] "
        f"within [1.7, 2.3]; equal wheels give |dtheta| = 0 exactly ({time.perf_counter() - t0:.2f} s)"
    )


def test_benchmark_run():
    t0 = time.perf_counter()
    results = {}
    for name in ("3", "5", "7"):
        sc = benchmark_scenario(name)
        assert math.isclose(initial_distance(sc), 24.41, abs_tol=1e-9)
        assert sc.dt == 0.1
        traj, metrics = run(sc)
        assert metrics.reached, f"{name}-MF did not reach the goal"
        assert metrics.time_to_target <= 120.0
        assert traj[-1].errors.e_d <= 0.1
        assert metrics.time_angle_aligned is not None, f"{name}-MF never aligned"
        aligned_sample = traj[int(round(metrics.time_angle_aligned / sc.dt))]
        assert abs(aligned_sample.errors.e_theta) <= 0.05
        assert abs(traj[-1].errors.e_theta) <= 0.05
        results[name] = metrics.time_to_target
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"benchmark took {elapsed:.2f} s, budget 2 s"
    ok(
        "benchmark run: all three controllers reach 24.41 m at dt=0.1 "
        f"(times {results}, {elapsed:.2f} s < 2 s)"
    )


def test_qualitative_ordering_reported_not_asserted():
    entries = compare(benchmark_scenario())
    report = ordering_report(entries)
    times = report["time_to_target"]
    # recorded either way: the ranking depends on the membership layout
    holds = report["three_mf_fastest"]
    assert holds in (True, False)
    ok(
        f"qualitative ordering (reported): time_to_target {times}; "
        f"fewest-terms-fastest ranking {'HOLDS' if holds else 'does NOT hold'} under the default layout"
    )


def test_symmetry_suite():
    t0 = time.perf_counter()
    rb = builtin(3, d_max=24.41)
    rng = np.random.default_rng(41)

    worst_straight = 0.0
    for e_d in rng.uniform(0, 24.41, 200):
        res = infer(rb, 0.0, float(e_d))
        worst_straight = max(worst_straight, abs(res.v_right - res.v_left))
    assert worst_straight <= 1e-9

    # mirror identity on the half of the distance universe where the
    # published grids are mirror-symmetric (see test_navigator for the
    # near-zero-column irregularity this excludes)
    worst_mirror = 0.0
    for _ in range(200):
        e_theta = rng.uniform(-math.pi, math.pi)
        e_d = rng.uniform(24.41 / 2, 24.41)
        fwd = infer(rb, e_theta, e_d)
        rev = infer(rb, -e_theta, e_d)
        worst_mirror = max(worst_mirror, abs(fwd.v_right - rev.v_left), abs(fwd.v_left - rev.v_right))
    assert worst_mirror <= 1e-9
    ok(
        f"symmetry suite: straight-line worst {worst_straight:.1e} <= 1e-9; "
        f"mirror worst {worst_mirror:.1e} <= 1e-9 ({time.perf_counter() - t0:.2f} s)"
    )


def test_round_trip(tmp_path):
    for n in (3, 5, 7):
        path = tmp_path / f"builtin_{n}.rules"
        assert main(["export-rules", "--controller", str(n), "--out", str(path), "--quiet"]) == 0
        assert main(["validate", str(path), "--quiet"]) == 0
        assert parse_rulebase(path.read_text(encoding="utf-8")) == builtin(n)
    ok("round-trip: export -> validate -> parse is structurally identical for all built-ins")


def test_determinism(tmp_path):
    t0 = time.perf_counter()
    sc = tmp_path / "benchmark.json"
    bearing = math.pi / 4
    sc.write_text(
        json.dumps(
            {
                "start": {"x": 0.0, "y": 0.0, "theta": 0.0},
                "goal": {"x": 24.41 * math.cos(bearing), "y": 24.41 * math.sin(bearing)},
            }
        ),
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["compare", "--scenario", str(sc), "--out", str(out1), "--quiet"]) == 0
    assert main(["compare", "--scenario", str(sc), "--out", str(out2), "--quiet"]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    ok(
        f"determinism: two compare invocations byte-identical across {len(names)} artifacts "
        f"({time.perf_counter() - t0:.2f} s)"
    )
