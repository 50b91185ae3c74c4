"""Closed-loop goal-seeking simulation and controller comparison.

A scenario fixes the start pose, goal, timing, tolerances, robot geometry
and controller choice.  ``run`` integrates the loop (errors -> inference ->
twist -> Euler step, the last two through the public kinematic model
``wheel_to_twist`` and ``step_euler``) until the goal disc is reached or
time runs out, and reports the trajectory plus summary metrics.
``compare`` reruns one scenario with each built-in controller.  Everything here is deterministic:
identical scenarios produce identical trajectories, bit for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache
from typing import NamedTuple

from ._limits import require_finite
from .kinematics import Pose, RobotParams, step_euler, wheel_to_twist
from .navigator import Goal, compute_errors, control_step
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
    ``dt`` must be at most 1e6.  ``start`` and ``goal`` must be a finite
    distance apart, and at most 1e6 apart for a built-in controller.
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
        for name in _NUMBER_FIELDS:  # dt bounded, so that no tick overflows (see ``run``)
            require_finite(f"scenario field '{name}'", getattr(self, name), bounded=name == "dt")
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
        bounded = self.controller in BUILTIN_CONTROLLERS  # a built-in sizes its distance universe from it
        require_finite("scenario fields 'start' and 'goal': distance", initial_distance(self), bounded=bounded)


class TrajectorySample(NamedTuple):
    """One control tick, a trajectory CSV row; the terminal sample has zero wheels."""

    t: float
    x: float
    y: float
    theta: float
    e_d: float
    e_theta: float
    v_l: float
    v_r: float


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
    metrics: Metrics
    trajectory: tuple[TrajectorySample, ...]


def initial_distance(sc: Scenario) -> float:
    return math.hypot(sc.goal.x - sc.start.x, sc.goal.y - sc.start.y)


def resolve_controller(sc: Scenario) -> RuleBase:
    """Materialise the scenario's controller as a rule base.

    Built-in controllers size their distance universe to the scenario's
    initial start-goal distance (floored at MIN_D_MAX) and their velocity
    universe to the robot's v_max.  Runs share one built-in per size,
    distance universe and v_max, the 32 last used, with its compiled
    outputs and memo, so only the first run with a key builds and
    compiles it.  Results cannot change: a base is immutable and its memo
    returns what recomputing returns.  Threads that share a base stay
    correct and only hit the memo less often.  Any other name is read as
    a rules file, afresh on every call; one that cannot be read or parsed
    raises ValueError naming the field and the path.
    """
    spec = sc.controller
    if isinstance(spec, RuleBase):
        return spec
    if spec in BUILTIN_CONTROLLERS:
        return _shared_builtin(int(spec), max(initial_distance(sc), MIN_D_MAX), sc.params.v_max)
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


# A fixed limit, not a knob: the benchmark's closed-loop case pools use 12 to
# 21 keys (distances an ulp apart are distinct keys), and a base with its
# compiled outputs holds ~9-13 KiB.  ``builtin`` is looked up on each miss,
# so a wrapper bound to ``simulation.builtin`` (the benchmark's trace) sees
# every base built.
@lru_cache(maxsize=32)
def _shared_builtin(size: int, d_max: float, v_max: float) -> RuleBase:
    return builtin(size, d_max=d_max, v_max=v_max)


def run(sc: Scenario) -> tuple[list[TrajectorySample], Metrics]:
    """Simulate ``sc`` to termination.

    Each tick: compute errors, record a sample, then stop if the goal disc
    is reached (e_d <= goal_tol) or time is up (t >= max_time); otherwise
    infer wheel speeds and advance one Euler step.  Termination is checked
    before actuation, so a run that starts at the goal never moves.
    Timestamps are k*dt exactly.
    """
    rb = resolve_controller(sc)
    goal, dt, wheel_base = sc.goal, sc.dt, sc.params.wheel_base
    trajectory: list[TrajectorySample] = []
    # Plain floats, checked by no tick: every value stays finite by
    # construction.  Output universes are bounded, so |v_l|, |v_r| <= 1e6;
    # wheel_base >= 1e-6, so |omega| <= 2e12; dt <= 1e6, so a tick moves at
    # most 1e12 m and turns at most 2e18 rad, over at most MAX_TICKS ticks.
    x, y, theta = sc.start.x, sc.start.y, sc.start.theta
    k = 0
    time_aligned: float | None = None
    path_length = 0.0
    while True:
        t = k * dt
        e_d, e_theta = compute_errors(x, y, theta, goal)
        if time_aligned is None and abs(e_theta) <= sc.angle_tol:
            time_aligned = t
        reached = e_d <= sc.goal_tol
        if reached or t >= sc.max_time:
            trajectory.append(TrajectorySample(t, x, y, theta, e_d, e_theta, 0.0, 0.0))
            break
        v_l, v_r = control_step(rb, e_d, e_theta)
        trajectory.append(TrajectorySample(t, x, y, theta, e_d, e_theta, v_l, v_r))
        new_x, new_y, theta = step_euler(x, y, theta, *wheel_to_twist(v_l, v_r, wheel_base), dt)
        path_length += math.hypot(new_x - x, new_y - y)
        x, y = new_x, new_y
        k += 1
    metrics = Metrics(
        reached=reached,
        time_to_target=trajectory[-1].t if reached else None,
        time_angle_aligned=time_aligned,
        path_length=path_length,
        rule_count=len(rb.rules),
    )
    return trajectory, metrics


def compare(sc: Scenario) -> list[ComparisonEntry]:
    """Run the same scenario once per built-in controller, in order 3, 5, 7.

    A built-in's validity does not depend on its size, so an invalid
    scenario raises ValueError on the first run and no row is produced.
    """
    entries = []
    for name in BUILTIN_CONTROLLERS:
        trajectory, metrics = run(replace(sc, controller=name))
        entries.append(ComparisonEntry(name, metrics, tuple(trajectory)))
    return entries


def ordering_report(entries: list[ComparisonEntry]) -> dict:
    """Which controller reached the goal fastest, as a JSON-friendly dict.

    ``three_mf_fastest`` is true/false when every run reached the goal and
    null otherwise; the flag is reported, not asserted, because the ranking
    depends on the membership-function layout.
    """
    times = {e.controller: e.metrics.time_to_target for e in entries}
    if all(t is not None for t in times.values()):
        fastest = min(times, key=times.get)
        three_fastest = fastest == "3"
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
# JSON's names for the non-object types ``json.loads`` returns
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "array"}


def _check_object(data, prefix: str):
    if not isinstance(data, dict):
        kind = _JSON_TYPES.get(type(data), type(data).__name__)
        raise ValueError(f"{prefix}scenario config must be a JSON object, got {kind}")


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
    except ValueError as exc:  # e.g. a non-finite 1e400 literal, or a value out of bounds
        raise ValueError(f"scenario field '{where}': {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from plain config data, rejecting unknown keys."""
    _check_object(data, "")
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
    _check_object(data, f"{path}: ")
    return scenario_from_dict(data)
