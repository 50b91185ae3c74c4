"""A full closed-loop run on the 24.41 m benchmark scenario.

Simulates the 3-MF controller from the origin to a goal 24.41 m away at a
45-degree bearing, prints trajectory snapshots and the summary metrics,
and writes the plot-ready CSV next to this script.
"""
import os

from fuzzynav import benchmark_scenario, run

sc = benchmark_scenario("3")
print(f"start:  ({sc.start.x}, {sc.start.y}) heading {sc.start.theta}")
print(f"goal:   ({sc.goal.x:.3f}, {sc.goal.y:.3f})")
print(f"tick:   {sc.dt} s, stop at e_d <= {sc.goal_tol} m or t >= {sc.max_time} s\n")

trajectory, metrics = run(sc)

print("   t      x       y      theta    e_d     e_theta   v_l    v_r")
for sample in trajectory[:: len(trajectory) // 12]:
    print(
        f"{sample.t:6.1f} {sample.pose.x:7.2f} {sample.pose.y:7.2f} {sample.pose.theta:8.3f} "
        f"{sample.errors.e_d:7.3f} {sample.errors.e_theta:+8.3f} {sample.wheels.v_l:6.3f} {sample.wheels.v_r:6.3f}"
    )

print(f"\nreached:            {metrics.reached}")
print(f"time to target:     {metrics.time_to_target} s")
print(f"time angle aligned: {metrics.time_angle_aligned} s")
print(f"path length:        {metrics.path_length:.3f} m (straight line 24.41 m)")
print(f"rule grid:          {metrics.rule_count} rules (at most 4 cells fire per tick)")

out = os.path.join(os.path.dirname(__file__), "benchmark_3mf_trajectory.csv")
with open(out, "w", encoding="utf-8", newline="\n") as fh:
    fh.write("t,x,y,theta,e_d,e_theta,v_l,v_r\n")
    for s in trajectory:
        cells = (s.t, s.pose.x, s.pose.y, s.pose.theta, s.errors.e_d, s.errors.e_theta, s.wheels.v_l, s.wheels.v_r)
        fh.write(",".join(f"{v:.9g}" for v in cells) + "\n")
print(f"\nwrote {out}")
