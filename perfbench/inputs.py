"""Seeded inputs for the benchmark workloads.

Every input the program receives is made here from the workload seed, before
any timing starts.  Closed-loop start geometries and CLI rule files are drawn
from fixed pools, so the reference outputs in ``reference.json`` (recorded
once by ``record_reference.py``) cover every seed.  Stdlib only: the set-up
probe imports this module before it starts its clock, so it must not pull in
numpy or the package under test.
"""
from __future__ import annotations

import json
import math
import os
import random
from typing import NamedTuple

CONTROLLERS = ("3", "5", "7")

# The paper's benchmark: 24.41 m to a goal at 45 degrees, reached in these
# exact times by the 3/5/7-MF controllers.
PAPER_DISTANCE = 24.41
PAPER_BEARING = math.pi / 4
PAPER_TIMES = {"3": 26.3, "5": 32.7, "7": 37.2}

# Closed-loop sweep: bearings come from a pool of N_BEARINGS evenly spaced
# angles over [-pi, pi), split into STRATA equal strata; a seed picks one
# bearing per stratum, so every seed covers the whole circle.
DISTANCES = (0.5, 3.0, 24.41)
N_BEARINGS = 256
STRATA = 16

# infer_scatter: a seeded cycle of points, long enough that no point repeats
# within a run at today's speed.
N_INFER_POINTS = 1 << 16
INFER_D_MAX = 24.41

# cli_rules: RULE_VARIANTS jittered rule files per grid size, each run on
# one of CLI_BEARINGS goal bearings at the paper distance.
RULE_VARIANTS = 16
CLI_BEARINGS = 16

ANGLE_BAND = math.pi / 6
V_MAX = 2.0


class Case(NamedTuple):
    """One closed-loop run: reference key, controller and goal geometry."""

    key: str
    controller: str
    bearing: float
    distance: float


class CliCase(NamedTuple):
    """One CLI op: reference key, grid size, rules variant and scenario index."""

    key: str
    size: str
    variant: int
    scenario: int


def seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sweep_bearing(k: int) -> float:
    return -math.pi + k * (2.0 * math.pi / N_BEARINGS)


def paper_case(controller: str) -> Case:
    return Case(f"{controller}/paper", controller, PAPER_BEARING, PAPER_DISTANCE)


def sweep_case(controller: str, k: int, j: int) -> Case:
    return Case(f"{controller}/b{k}/d{j}", controller, sweep_bearing(k), DISTANCES[j])


def all_closed_loop_cases() -> list[Case]:
    """The whole pool, for recording references."""
    cases = [paper_case(c) for c in CONTROLLERS]
    for k in range(N_BEARINGS):
        for j in range(len(DISTANCES)):
            cases += [sweep_case(c, k, j) for c in CONTROLLERS]
    return cases


def closed_loop_cases(seed: int) -> list[Case]:
    """The paper scenario per controller, then the seeded bearing sweep.

    Cases are ordered stratum by stratum, so a run that stops part-way
    through a pass has still sampled every controller and distance evenly.
    """
    rng = seeded("closed_loop", seed)
    per = N_BEARINGS // STRATA
    cases = [paper_case(c) for c in CONTROLLERS]
    for s in range(STRATA):
        k = s * per + rng.randrange(per)
        for j in range(len(DISTANCES)):
            cases += [sweep_case(c, k, j) for c in CONTROLLERS]
    return cases


def infer_points(seed: int) -> list[tuple[int, float, float]]:
    """(controller index, e_theta, e_d), uniform over the full universes."""
    rng = seeded("infer_scatter", seed)
    return [
        (rng.randrange(len(CONTROLLERS)), rng.uniform(-math.pi, math.pi), rng.uniform(0.0, INFER_D_MAX))
        for _ in range(N_INFER_POINTS)
    ]


def cli_case(size: str, variant: int, scenario: int) -> CliCase:
    return CliCase(f"{size}/v{variant}/s{scenario}", size, variant, scenario)


def all_cli_cases() -> list[CliCase]:
    return [
        cli_case(size, v, s)
        for size in CONTROLLERS
        for v in range(RULE_VARIANTS)
        for s in range(CLI_BEARINGS)
    ]


def cli_cases(seed: int) -> list[CliCase]:
    """Every rules variant once, each on a seeded scenario, in seeded order.

    Using the whole pool keeps the share of runs that miss the goal (and so
    run to max_time) the same for every seed.  The first op, which the
    set-up probe times, is always the 5-term variant 0.
    """
    rng = seeded("cli_rules", seed)
    cases = [cli_case(size, v, rng.randrange(CLI_BEARINGS)) for size in CONTROLLERS for v in range(RULE_VARIANTS)]
    rng.shuffle(cases)
    first = next(i for i, c in enumerate(cases) if c.size == "5" and c.variant == 0)
    return cases[first:] + cases[:first]


def cli_scenario(index: int) -> dict:
    bearing = -math.pi + index * (2.0 * math.pi / CLI_BEARINGS)
    return {
        "start": {"x": 0.0, "y": 0.0, "theta": 0.0},
        "goal": {"x": PAPER_DISTANCE * math.cos(bearing), "y": PAPER_DISTANCE * math.sin(bearing)},
        "dt": 0.1,
        "max_time": 120.0,
        "controller": "3",
    }


def _jittered_peaks(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """Evenly spaced peaks over [lo, hi]; interior peaks move up to 30% of a gap."""
    gap = (hi - lo) / (n - 1)
    peaks = [lo + i * gap for i in range(n)]
    for i in range(1, n - 1):
        peaks[i] += rng.uniform(-0.3, 0.3) * gap
    return peaks


def _dense_terms(peaks: list[float]) -> list[tuple[float, float, float]]:
    """Triangles whose feet sit on the peaks two places away; edges are shoulders.

    Any interior point then has up to four terms with positive membership,
    against two in a 50%-overlap partition.
    """
    n = len(peaks)
    last = n - 1
    terms = []
    for i, p in enumerate(peaks):
        left = p if i == 0 else peaks[max(i - 2, 0)]
        right = p if i == last else peaks[min(i + 2, last)]
        terms.append((left, p, right))
    return terms


def rules_text(size: str, variant: int, labels: dict[str, tuple[str, ...]], rules) -> str:
    """A rule-definition file: jittered dense terms plus the given rule grid.

    ``labels`` maps each role to its term labels in universe order and
    ``rules`` is a sequence of (angle, distance, right, left) label tuples;
    both come from the built-in grid of the same size.
    """
    rng = seeded(f"rules-{size}", variant)
    n = int(size)
    universes = {
        "angle": (-math.pi, math.pi, -ANGLE_BAND, ANGLE_BAND),
        "distance": (0.0, PAPER_DISTANCE, 0.0, PAPER_DISTANCE),
        "right": (0.0, V_MAX, 0.0, V_MAX),
        "left": (0.0, V_MAX, 0.0, V_MAX),
    }
    lines = [f"# benchmark rules: {n}-term grid, variant {variant}"]
    for role, (lo, hi, span_lo, span_hi) in universes.items():
        lines.append(f"var {role} range {lo!r} {hi!r}")
        peaks = _jittered_peaks(rng, n, span_lo, span_hi)
        for label, (a, b, c) in zip(labels[role], _dense_terms(peaks)):
            lines.append(f"term {role} {label} tri {a!r} {b!r} {c!r}")
    for a, d, r, l in rules:
        lines.append(f"rule if angle is {a} and distance is {d} then right is {r}, left is {l}")
    return "\n".join(lines) + "\n"


def builtin_grid(fuzzynav, size: str) -> tuple[dict[str, tuple[str, ...]], list[tuple[str, str, str, str]]]:
    """Labels and rule grid of a built-in controller, via the public API."""
    rb = fuzzynav.builtin(int(size))
    labels = {
        "angle": rb.angle_var.labels,
        "distance": rb.distance_var.labels,
        "right": rb.right_var.labels,
        "left": rb.left_var.labels,
    }
    return labels, [tuple(r) for r in rb.rules]


def rules_path(workdir: str, case: CliCase) -> str:
    return os.path.join(workdir, f"rules_{case.size}_{case.variant}.rules")


def scenario_path(workdir: str, case: CliCase) -> str:
    return os.path.join(workdir, f"scenario_{case.scenario}.json")


def write_cli_inputs(fuzzynav, cases: list[CliCase], workdir: str):
    """Write the rules file and scenario JSON of every case into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    grids = {}
    for case in cases:
        path = rules_path(workdir, case)
        if not os.path.exists(path):
            if case.size not in grids:
                grids[case.size] = builtin_grid(fuzzynav, case.size)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rules_text(case.size, case.variant, *grids[case.size]))
        path = scenario_path(workdir, case)
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cli_scenario(case.scenario), fh)
