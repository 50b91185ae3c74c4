"""Fuzzy goal-seeking navigation for differential-drive robots.

A Mamdani inference engine over triangular fuzzy sets, three built-in
controller rule grids (3/5/7 membership functions per variable), planar
differential-drive kinematics, and a deterministic closed-loop simulator
with controller-comparison metrics.
"""
from .membership import (
    LinguisticVariable,
    Term,
    TriangularMF,
    fuzzify,
    uniform_variable,
)
from .engine import InferenceResult, infer
from .rulebase import (
    BUILTIN_SIZES,
    DEFAULT_ANGLE_BAND,
    Rule,
    RuleBase,
    builtin,
)
from .ruleformat import Issue, RuleDefinitionError, parse_rulebase, render_rulebase
from .kinematics import (
    Pose,
    RobotParams,
    Twist,
    WheelSpeeds,
    curvature_radius,
    step_euler,
    step_exact,
    wheel_to_twist,
    wrap_angle,
)
from .navigator import Errors, Goal, compute_errors, control_step
from .simulation import (
    BENCHMARK_DISTANCE,
    BENCHMARK_DT,
    ComparisonEntry,
    Metrics,
    Scenario,
    TrajectorySample,
    benchmark_scenario,
    compare,
    load_scenario,
    ordering_report,
    run,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_DISTANCE",
    "BENCHMARK_DT",
    "BUILTIN_SIZES",
    "ComparisonEntry",
    "DEFAULT_ANGLE_BAND",
    "Errors",
    "Goal",
    "InferenceResult",
    "Issue",
    "LinguisticVariable",
    "Metrics",
    "Pose",
    "RobotParams",
    "Rule",
    "RuleBase",
    "RuleDefinitionError",
    "Scenario",
    "Term",
    "TrajectorySample",
    "TriangularMF",
    "Twist",
    "WheelSpeeds",
    "benchmark_scenario",
    "builtin",
    "compare",
    "compute_errors",
    "control_step",
    "curvature_radius",
    "fuzzify",
    "infer",
    "load_scenario",
    "ordering_report",
    "parse_rulebase",
    "render_rulebase",
    "run",
    "scenario_from_dict",
    "scenario_to_dict",
    "step_euler",
    "step_exact",
    "uniform_variable",
    "wheel_to_twist",
    "wrap_angle",
]
