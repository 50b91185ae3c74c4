"""Goal-seeking control loop glue.

Turns a pose (x, y, theta) and a goal into the controller's two inputs -
distance error and heading error - and runs one inference step to get
wheel speeds, all as plain floats.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from ._limits import require_finite
from .engine import infer
from .kinematics import wrap_angle
from .rulebase import RuleBase

__all__ = ["Goal", "compute_errors", "control_step", "COINCIDENT_TOL"]

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
        require_finite("goal x", self.x)
        require_finite("goal y", self.y)


def compute_errors(x: float, y: float, theta: float, goal: Goal) -> tuple[float, float]:
    """Distance error and wrapped angle error ``(e_d, e_theta)`` from the
    pose ``(x, y, theta)`` to ``goal``.

    The angle error is the goal bearing minus the heading, wrapped to
    (-pi, pi].  When the pose coincides with the goal the bearing is
    undefined and the angle error is taken as 0.
    """
    dx = goal.x - x
    dy = goal.y - y
    e_d = math.hypot(dx, dy)
    if e_d < COINCIDENT_TOL:
        return e_d, 0.0
    return e_d, wrap_angle(math.atan2(dy, dx) - theta)


def control_step(rb: RuleBase, e_d: float, e_theta: float) -> tuple[float, float]:
    """One inference step: controller errors -> commanded wheel speeds ``(v_l, v_r)``."""
    result = infer(rb, e_theta, e_d)
    if result.right_zero_area or result.left_zero_area:
        log.warning(
            "zero-area aggregation at e_theta=%.4f e_d=%.4f (right=%s left=%s)",
            e_theta,
            e_d,
            result.right_zero_area,
            result.left_zero_area,
        )
    return result.v_left, result.v_right
