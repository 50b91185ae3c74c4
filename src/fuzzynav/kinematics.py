"""Differential-drive kinematics.

Wheel speeds map to a body twist (v, omega), which integrates the planar
pose (x, y, theta).  Two integrators are provided: explicit Euler, used by
the simulation loop, and the exact constant-twist arc, used as a reference.
Sign convention: omega = (v_r - v_l) / L, so a faster right wheel turns the
robot counterclockwise, and the curvature radius satisfies v = omega * R.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Pose",
    "WheelSpeeds",
    "Twist",
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


def _require_finite(name: str, value: float):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Pose:
    """Planar pose; theta is stored wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        _require_finite("x", self.x)
        _require_finite("y", self.y)
        _require_finite("theta", self.theta)
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class WheelSpeeds:
    """Linear rim speeds of the two wheels, m/s."""

    v_l: float
    v_r: float

    def __post_init__(self):
        _require_finite("v_l", self.v_l)
        _require_finite("v_r", self.v_r)


@dataclass(frozen=True)
class Twist:
    """Body velocity: linear v (m/s) along heading, angular omega (rad/s)."""

    v: float
    omega: float

    def __post_init__(self):
        _require_finite("v", self.v)
        _require_finite("omega", self.omega)


@dataclass(frozen=True)
class RobotParams:
    """Geometry and actuation limits of the robot."""

    wheel_base: float = 0.5
    wheel_radius: float = 0.1
    v_max: float = 2.0

    def __post_init__(self):
        for name in ("wheel_base", "wheel_radius", "v_max"):
            _require_finite(name, getattr(self, name))
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


def wheel_to_twist(ws: WheelSpeeds, p: RobotParams) -> Twist:
    """v = (v_r + v_l)/2, omega = (v_r - v_l)/L."""
    return Twist((ws.v_r + ws.v_l) / 2.0, (ws.v_r - ws.v_l) / p.wheel_base)


def curvature_radius(ws: WheelSpeeds, p: RobotParams) -> float:
    """Instantaneous turn radius about the ICC, measured at the axle midpoint.

    R = L (v_r + v_l) / (2 (v_r - v_l)), i.e. R = v / omega.  Straight-line
    motion (equal wheel speeds) returns math.inf.
    """
    diff = ws.v_r - ws.v_l
    if abs(diff) < OMEGA_STRAIGHT_TOL:
        return math.inf
    return p.wheel_base * (ws.v_r + ws.v_l) / (2.0 * diff)


def step_euler(pose: Pose, tw: Twist, dt: float) -> Pose:
    """Explicit-Euler pose update over one step of length dt."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    return Pose(
        pose.x + tw.v * math.cos(pose.theta) * dt,
        pose.y + tw.v * math.sin(pose.theta) * dt,
        pose.theta + tw.omega * dt,
    )


def step_exact(pose: Pose, tw: Twist, dt: float) -> Pose:
    """Exact pose update for a twist held constant over dt (circular arc)."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if abs(tw.omega) < OMEGA_STRAIGHT_TOL:
        return step_euler(pose, tw, dt)
    theta1 = pose.theta + tw.omega * dt
    radius = tw.v / tw.omega
    return Pose(
        pose.x + radius * (math.sin(theta1) - math.sin(pose.theta)),
        pose.y - radius * (math.cos(theta1) - math.cos(pose.theta)),
        theta1,
    )

