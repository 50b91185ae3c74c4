"""Differential-drive kinematics: wheel speeds, twists, and integrators.

Converts wheel speeds to a body twist, shows the curvature radius
consistency v = omega * R, and compares the Euler step used in the
simulation loop against the exact constant-twist arc: halving the step
size quarters the one-step discrepancy (second-order agreement).  Every
function takes and returns plain floats.
"""
import math

from fuzzynav import RobotParams, curvature_radius, step_euler, step_exact, wheel_to_twist

params = RobotParams(wheel_base=0.5, wheel_radius=0.1, v_max=2.0)

print("wheel speeds -> body twist:")
for v_l, v_r in ((1.0, 1.0), (-1.0, 1.0), (1.0, 2.0)):
    v, omega = wheel_to_twist(v_l, v_r, params.wheel_base)
    radius = curvature_radius(v, omega)
    print(f"  v_l={v_l:+.1f} v_r={v_r:+.1f}  ->  v={v:+.2f} m/s, omega={omega:+.2f} rad/s, R={radius}")

print("\nexact arc: a unit twist for pi seconds is half a circle of radius 1:")
x, y, theta = step_exact(0.0, 0.0, 0.0, 1.0, 1.0, math.pi)
print(f"  end pose: x={x:+.6f}, y={y:+.6f}, theta={theta:+.6f}")

print("\nEuler vs exact, one step from (0, 0, 0) with v=1, omega=1:")
print("  dt        gap [m]     ratio to previous")
prev = None
for exponent in range(0, 5):
    dt = 0.1 / 2**exponent
    ax, ay, _ = step_euler(0.0, 0.0, 0.0, 1.0, 1.0, dt)
    bx, by, _ = step_exact(0.0, 0.0, 0.0, 1.0, 1.0, dt)
    gap = math.hypot(ax - bx, ay - by)
    ratio = "" if prev is None else f"{prev / gap:10.3f}"
    print(f"  {dt:8.5f}  {gap:.3e}  {ratio}")
    prev = gap
print("  (ratios near 4 = the Euler step agrees with the arc to second order)")
