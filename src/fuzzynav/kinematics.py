"""Differential-drive kinematics on plain floats.

Wheel speeds (v_l, v_r) map to a body twist (v, omega), which moves the
planar pose (x, y, theta).  Two integrators are provided: explicit Euler,
which the simulation loop steps through, and the exact constant-twist arc,
used as a reference.  Sign convention: omega = (v_r - v_l) / L, so a faster
right wheel turns the robot counterclockwise, and the curvature radius
satisfies v = omega * R.  Both steps reject dt <= 0 and return theta
wrapped to (-pi, pi]; every other input is an unchecked float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._limits import require_finite

__all__ = [
    "Pose",
    "RobotParams",
    "wrap_angle",
    "wheel_to_twist",
    "curvature_radius",
    "step_euler",
    "step_exact",
    "OMEGA_STRAIGHT_TOL",
]

# Angular rates below this are treated as straight-line motion.
OMEGA_STRAIGHT_TOL = 1e-12


def wrap_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]; angles already in range pass unchanged."""
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = (angle + math.pi) % math.tau - math.pi
    return math.pi if wrapped <= -math.pi else wrapped


@dataclass(frozen=True)
class Pose:
    """Planar pose; theta is stored wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        require_finite("x", self.x)
        require_finite("y", self.y)
        require_finite("theta", self.theta)
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class RobotParams:
    """Geometry and actuation limits of the robot.

    Every field must be finite and lie in [1e-6, 1e6].
    """

    wheel_base: float = 0.5
    wheel_radius: float = 0.1
    v_max: float = 2.0

    def __post_init__(self):
        for name in ("wheel_base", "wheel_radius", "v_max"):
            require_finite(name, getattr(self, name), bounded=True, floored=True)


def wheel_to_twist(v_l: float, v_r: float, wheel_base: float) -> tuple[float, float]:
    """Body twist (v, omega) of wheel rim speeds: v = (v_r + v_l)/2, omega = (v_r - v_l)/L."""
    return (v_r + v_l) / 2.0, (v_r - v_l) / wheel_base


def curvature_radius(v: float, omega: float) -> float:
    """Turn radius about the ICC, measured at the axle midpoint: R = v / omega.

    Straight-line motion, |omega| strictly below OMEGA_STRAIGHT_TOL, returns
    math.inf, as ``step_exact`` steps straight there.
    """
    return math.inf if abs(omega) < OMEGA_STRAIGHT_TOL else v / omega


def step_euler(x: float, y: float, theta: float, v: float, omega: float, dt: float) -> tuple[float, float, float]:
    """Explicit-Euler pose update over one step of length dt."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    return x + v * math.cos(theta) * dt, y + v * math.sin(theta) * dt, wrap_angle(theta + omega * dt)


def step_exact(x: float, y: float, theta: float, v: float, omega: float, dt: float) -> tuple[float, float, float]:
    """Exact pose update for a twist held constant over dt (circular arc).

    Below OMEGA_STRAIGHT_TOL the arc counts as straight and the Euler step
    is taken.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if abs(omega) < OMEGA_STRAIGHT_TOL:
        return step_euler(x, y, theta, v, omega, dt)
    theta1 = theta + omega * dt
    radius = v / omega
    return (
        x + radius * (math.sin(theta1) - math.sin(theta)),
        y - radius * (math.cos(theta1) - math.cos(theta)),
        wrap_angle(theta1),
    )
