"""Goal-seeking control loop glue.

Turns (pose, goal) into the controller's two inputs - distance error and
heading error - and runs one inference step to get wheel speeds.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .engine import infer
from .kinematics import Pose, WheelSpeeds, _require_finite, wrap_angle
from .rulebase import RuleBase

__all__ = ["Goal", "Errors", "compute_errors", "control_step", "COINCIDENT_TOL"]

log = logging.getLogger(__name__)

# Below this distance the goal bearing is numerically undefined; the angle
# error is defined as 0 so the controller lands in its slow/stop cell.
COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class Goal:
    """Target point in the world frame."""

    x: float
    y: float

    def __post_init__(self):
        _require_finite("goal x", self.x)
        _require_finite("goal y", self.y)


@dataclass(frozen=True)
class Errors:
    """Controller inputs: distance to goal and heading-to-bearing error."""

    e_d: float
    e_theta: float

    def __post_init__(self):
        if not self.e_d >= 0:
            raise ValueError("e_d must be >= 0")
        if not -math.pi < self.e_theta <= math.pi:
            raise ValueError("e_theta must lie in (-pi, pi]")


def compute_errors(pose: Pose, goal: Goal) -> Errors:
    """Distance error and wrapped angle error from ``pose`` to ``goal``.

    The angle error is the goal bearing minus the heading, wrapped to
    (-pi, pi].  When the pose coincides with the goal the bearing is
    undefined and the angle error is taken as 0.
    """
    dx = goal.x - pose.x
    dy = goal.y - pose.y
    e_d = math.hypot(dx, dy)
    if e_d < COINCIDENT_TOL:
        return Errors(e_d, 0.0)
    return Errors(e_d, wrap_angle(math.atan2(dy, dx) - pose.theta))


def control_step(rb: RuleBase, errors: Errors) -> WheelSpeeds:
    """One inference step: controller errors -> commanded wheel speeds."""
    result = infer(rb, errors.e_theta, errors.e_d)
    if result.right_zero_area or result.left_zero_area:
        log.warning(
            "zero-area aggregation at e_theta=%.4f e_d=%.4f (right=%s left=%s)",
            errors.e_theta,
            errors.e_d,
            result.right_zero_area,
            result.left_zero_area,
        )
    return WheelSpeeds(v_l=result.v_left, v_r=result.v_right)
