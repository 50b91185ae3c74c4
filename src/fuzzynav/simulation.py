"""Closed-loop goal-seeking simulation and controller comparison.

A scenario fixes the start pose, goal, timing, tolerances, robot geometry
and controller choice.  ``run`` integrates the loop (errors -> inference ->
twist -> Euler step) until the goal disc is reached or time runs out, and
reports the trajectory plus summary metrics.  ``compare`` reruns one
scenario with each built-in controller.  Everything here is deterministic:
identical scenarios produce identical trajectories, bit for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import NamedTuple

from .kinematics import Pose, RobotParams, WheelSpeeds, _require_finite, step_euler, wheel_to_twist
from .navigator import Errors, Goal, compute_errors, control_step
from .rulebase import BUILTIN_SIZES, RuleBase, builtin
from .ruleformat import parse_rulebase

__all__ = [
    "Scenario",
    "TrajectorySample",
    "Metrics",
    "ComparisonEntry",
    "run",
    "compare",
    "ordering_report",
    "benchmark_scenario",
    "initial_distance",
    "resolve_controller",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "BUILTIN_CONTROLLERS",
    "BENCHMARK_DISTANCE",
    "BENCHMARK_DT",
]

BUILTIN_CONTROLLERS = tuple(str(n) for n in BUILTIN_SIZES)

# Benchmark geometry: straight-line distance and control period.
BENCHMARK_DISTANCE = 24.41
BENCHMARK_DT = 0.1
BENCHMARK_BEARING = math.pi / 4

# When a scenario starts on top of its goal, the distance universe would
# collapse; it is floored at this width instead.
MIN_D_MAX = 1.0

# Bound on max_time / dt, so every run ends within a known number of ticks.
MAX_TICKS = 1_000_000


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: geometry, timing, tolerances and controller.

    ``controller`` is "3", "5" or "7" for a built-in rule base, a path to a
    rule-definition file, or a ready-made :class:`RuleBase`.  The fields are
    checked on construction: an invalid one raises ValueError naming it.
    """

    start: Pose
    goal: Goal
    dt: float = BENCHMARK_DT
    max_time: float = 120.0
    goal_tol: float = 0.1
    angle_tol: float = 0.05
    params: RobotParams = RobotParams()
    controller: str | RuleBase = "3"

    def __post_init__(self):
        for name in _NUMBER_FIELDS:
            _require_finite(f"scenario field '{name}'", getattr(self, name))
        if not self.dt > 0:
            raise ValueError("scenario field 'dt' must be > 0")
        if not self.max_time >= self.dt:
            raise ValueError("scenario field 'max_time' must be >= dt")
        if self.max_time / self.dt > MAX_TICKS:
            raise ValueError(f"scenario fields 'max_time' / 'dt' must not exceed {MAX_TICKS} ticks")
        if not self.goal_tol > 0:
            raise ValueError("scenario field 'goal_tol' must be > 0")
        if not self.angle_tol > 0:
            raise ValueError("scenario field 'angle_tol' must be > 0")
        if not isinstance(self.controller, (str, RuleBase)):
            raise ValueError("scenario field 'controller' must be '3', '5', '7' or a rules-file path")
        if self.controller == "":
            raise ValueError("scenario field 'controller' must not be empty")


class TrajectorySample(NamedTuple):
    """State recorded at one control tick; the terminal sample has zero wheels."""

    t: float
    pose: Pose
    errors: Errors
    wheels: WheelSpeeds


@dataclass(frozen=True)
class Metrics:
    """Summary of one run, comparable across controllers."""

    reached: bool
    time_to_target: float | None
    time_angle_aligned: float | None
    path_length: float
    rule_count: int


@dataclass(frozen=True)
class ComparisonEntry:
    """One controller's result on the shared comparison scenario."""

    controller: str
    metrics: Metrics | None
    trajectory: tuple[TrajectorySample, ...] | None
    error: str | None = None


def initial_distance(sc: Scenario) -> float:
    return math.hypot(sc.goal.x - sc.start.x, sc.goal.y - sc.start.y)


def resolve_controller(sc: Scenario) -> RuleBase:
    """Materialise the scenario's controller as a rule base.

    Built-in controllers size their distance universe to the scenario's
    initial start-goal distance (floored at MIN_D_MAX) and their velocity
    universe to the robot's v_max.  Any other name is read as a rules
    file; one that cannot be read or parsed raises ValueError naming the
    field and the path.
    """
    spec = sc.controller
    if isinstance(spec, RuleBase):
        return spec
    if spec in BUILTIN_CONTROLLERS:
        d_max = max(initial_distance(sc), MIN_D_MAX)
        return builtin(int(spec), d_max=d_max, v_max=sc.params.v_max)
    try:
        text = _read_text(spec)
    except ValueError as exc:
        raise ValueError(
            f"scenario field 'controller' is not one of 3, 5, 7 and not a readable rules file: {exc}"
        ) from exc
    try:
        return parse_rulebase(text)
    except ValueError as exc:
        raise ValueError(f"scenario field 'controller': {spec}: {exc}") from exc


def run(sc: Scenario) -> tuple[list[TrajectorySample], Metrics]:
    """Simulate ``sc`` to termination.

    Each tick: compute errors, record a sample, then stop if the goal disc
    is reached (e_d <= goal_tol) or time is up (t >= max_time); otherwise
    infer wheel speeds and advance one Euler step.  Termination is checked
    before actuation, so a run that starts at the goal never moves.
    Timestamps are k*dt exactly.
    """
    rb = resolve_controller(sc)
    trajectory: list[TrajectorySample] = []
    pose = sc.start
    k = 0
    time_aligned: float | None = None
    path_length = 0.0
    while True:
        t = k * sc.dt
        errors = compute_errors(pose, sc.goal)
        if time_aligned is None and abs(errors.e_theta) <= sc.angle_tol:
            time_aligned = t
        reached = errors.e_d <= sc.goal_tol
        if reached or t >= sc.max_time:
            trajectory.append(TrajectorySample(t, pose, errors, WheelSpeeds(0.0, 0.0)))
            break
        wheels = control_step(rb, errors)
        trajectory.append(TrajectorySample(t, pose, errors, wheels))
        new_pose = step_euler(pose, wheel_to_twist(wheels, sc.params), sc.dt)
        path_length += math.hypot(new_pose.x - pose.x, new_pose.y - pose.y)
        pose = new_pose
        k += 1
    metrics = Metrics(
        reached=reached,
        time_to_target=trajectory[-1].t if reached else None,
        time_angle_aligned=time_aligned,
        path_length=path_length,
        rule_count=len(rb.rules),
    )
    return trajectory, metrics


def compare(
    sc: Scenario,
    controllers: tuple[str, ...] = BUILTIN_CONTROLLERS,
) -> list[ComparisonEntry]:
    """Run the same scenario once per controller.

    A run that raises ValueError (an invalid controller, an unreadable or
    malformed rules file) is reported in its row; the remaining rows are
    still produced.  Row order follows ``controllers``.
    """
    entries = []
    for name in controllers:
        try:
            trajectory, metrics = run(replace(sc, controller=name))
            entries.append(ComparisonEntry(name, metrics, tuple(trajectory)))
        except ValueError as exc:
            entries.append(ComparisonEntry(name, None, None, error=str(exc)))
    return entries


def ordering_report(entries: list[ComparisonEntry]) -> dict:
    """Which controller reached the goal fastest, as a JSON-friendly dict.

    ``three_mf_fastest`` is true/false when every run reached the goal and
    null otherwise; the flag is reported, not asserted, because the ranking
    depends on the membership-function layout.
    """
    times = {
        e.controller: (e.metrics.time_to_target if e.metrics and e.metrics.reached else None)
        for e in entries
    }
    if times and all(t is not None for t in times.values()):
        fastest = min(times, key=times.get)
        three_fastest = fastest == "3" if "3" in times else None
    else:
        fastest = None
        three_fastest = None
    return {"time_to_target": times, "fastest": fastest, "three_mf_fastest": three_fastest}


def benchmark_scenario(
    controller: str | RuleBase = "3",
    bearing: float = BENCHMARK_BEARING,
    distance: float = BENCHMARK_DISTANCE,
) -> Scenario:
    """Desk-scale comparison scenario: 24.41 m to the goal at 0.1 s ticks.

    The robot starts at the origin facing +x with the goal placed
    ``distance`` metres away at ``bearing``, so the default run opens with
    a 45-degree heading error.
    """
    return Scenario(
        start=Pose(0.0, 0.0, 0.0),
        goal=Goal(distance * math.cos(bearing), distance * math.sin(bearing)),
        controller=controller,
    )


_NUMBER_FIELDS = ("dt", "max_time", "goal_tol", "angle_tol")  # finite numbers, all optional


def _check_keys(mapping: dict, allowed: set[str], where: str):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} key '{unknown[0]}'")


def _number(mapping: dict, key: str, where: str) -> float:
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} field '{key}' must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer literal too big for a float: inf, as 1e400 parses
        return math.inf if value > 0 else -math.inf


def _record(cls, data: dict, where: str, **defaults):
    """Build ``cls`` from the mapping ``data[where]``, whose keys must be
    fields of ``cls`` and whose values must be numbers; ``defaults`` fill
    fields that the config may omit and ``cls`` gives no default.  A value
    that ``cls`` rejects raises ValueError naming the section."""
    mapping = data[where]
    required = [f.name for f in fields(cls) if f.default is MISSING and f.name not in defaults]
    if not isinstance(mapping, dict) or not set(required) <= set(mapping):
        need = f" with {' and '.join(required)}" if required else ""
        raise ValueError(f"scenario field '{where}' must be a mapping{need}")
    _check_keys(mapping, {f.name for f in fields(cls)}, where)
    values = {**defaults, **{k: _number(mapping, k, where) for k in mapping}}
    try:
        return cls(**values)
    except ValueError as exc:  # e.g. "x must be finite, got inf" from a 1e400 literal
        raise ValueError(f"scenario field '{where}': {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from plain config data, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ValueError("scenario config must be a mapping")
    _check_keys(data, {f.name for f in fields(Scenario)}, "scenario")
    for required in ("start", "goal"):
        if required not in data:
            raise ValueError(f"scenario field '{required}' is required")
    start = _record(Pose, data, "start", theta=0.0)
    goal = _record(Goal, data, "goal")
    params = _record(RobotParams, data, "params") if "params" in data else RobotParams()

    controller = data.get("controller", "3")
    if isinstance(controller, int) and not isinstance(controller, bool):
        controller = str(controller)
    numbers = {k: _number(data, k, "scenario") for k in _NUMBER_FIELDS if k in data}
    return Scenario(start=start, goal=goal, params=params, controller=controller, **numbers)


def scenario_to_dict(sc: Scenario) -> dict:
    """Config-shaped echo of a scenario (a RuleBase controller rendered as "custom")."""
    return asdict(sc if isinstance(sc.controller, str) else replace(sc, controller="custom"))


def _read_text(path: str) -> str:
    """The text of a UTF-8 input file, a leading byte-order mark skipped.

    A file that cannot be opened, read or decoded raises ValueError naming
    ``path``.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:  # strerror alone: str(exc) repeats the path
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Read a JSON scenario config; see ``docs/scenario_format.md``."""

    def reject(token: str):  # NaN, Infinity, -Infinity: valid for Python's json only
        raise ValueError(f"non-finite number '{token}'")

    text = _read_text(path)
    try:
        data = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a rejected token, too many digits, too deep a nesting
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(data)
