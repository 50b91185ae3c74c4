"""Print the closed loop's bits: the pin that ``tests/pins/closed_loop.txt`` holds.

    python tools/bit_digest.py > tests/pins/closed_loop.txt

Prints one ``name sha256`` line per benchmark trajectory that ``fuzzynav
compare`` writes for ``demos/benchmark_scenario.json``.  Then one line per
case of the 144-case map (the 3, 5 and 7-MF built-ins, 16 bearings evenly
spaced over [-pi, pi) and distances 0.5, 3 and 24.41 m), and one per
``ORBITS`` case: controller, bearing in hex, distance, reached state, tick
count, and the hex of the final x, y, theta and path length.

It takes no flag.  Its standard output is the pin: a tier-1 test in
``tests/test_simulation.py`` compares it with the committed file line by
line, and a deliberate bit change re-records the file with the command
above, so ``git diff`` shows each moved case old -> new.  Runs whichever
``fuzzynav`` the interpreter imports, so it checks an installed package as
well as ``src`` on ``PYTHONPATH``.  Standard library only; takes ~1 s on a
2-vCPU VM.
"""
from __future__ import annotations

import hashlib
import math
import os
import tempfile
from collections.abc import Iterator

from fuzzynav import benchmark_scenario, run
from fuzzynav.cli import main as cli_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTROLLERS = ("3", "5", "7")
BEARINGS = tuple(-math.pi + i * (2.0 * math.pi / 16) for i in range(16))
DISTANCES = (0.5, 3.0, 24.41)
# Two 0.5 m starts off the map's bearings that circle the goal for the whole
# 120 s, so a change in the ninth digit of a defuzzified speed shows.
ORBITS = (("3", -math.pi + 5 * 2 * math.pi / 256, 0.5), ("7", -math.pi + 36 * 2 * math.pi / 256, 0.5))


def trajectory_lines() -> Iterator[str]:
    """``name sha256`` of each trajectory CSV ``compare`` writes for the benchmark scenario."""
    scenario = os.path.join(ROOT, "demos", "benchmark_scenario.json")
    with tempfile.TemporaryDirectory() as out:
        if cli_main(["compare", "--scenario", scenario, "--out", out, "--quiet"]) != 0:
            raise SystemExit("compare did not reach the goal with every controller")
        for c in CONTROLLERS:
            name = f"trajectory_{c}.csv"
            with open(os.path.join(out, name), "rb") as fh:
                yield f"{name} {hashlib.sha256(fh.read()).hexdigest()}"


def case_line(c: str, bearing: float, distance: float) -> str:
    """One run's case and outcome: reached, ticks and the hex of the final
    x, y, theta and the path length."""
    trajectory, m = run(benchmark_scenario(c, bearing, distance))
    last = trajectory[-1]
    fields = (last.x.hex(), last.y.hex(), last.theta.hex(), m.path_length.hex())
    return f"{c} {bearing.hex()} {distance!r} {m.reached} {len(trajectory) - 1} {' '.join(fields)}"


def lines() -> Iterator[str]:
    """The pin, line by line: the trajectory digests, the map, then ``ORBITS``."""
    yield from trajectory_lines()
    for c in CONTROLLERS:
        for distance in DISTANCES:
            for bearing in BEARINGS:
                yield case_line(c, bearing, distance)
    for case in ORBITS:
        yield case_line(*case)


def main() -> None:
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
