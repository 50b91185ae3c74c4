"""Print the digests that pin the closed loop's bits.

    python tools/bit_digest.py

Prints one ``name sha256`` line per benchmark trajectory that ``fuzzynav
compare`` writes for ``demos/benchmark_scenario.json``, then one ``map``
line: a sha256 over the 144-case map (the 3, 5 and 7-MF built-ins, 16
bearings evenly spaced over [-pi, pi) and distances 0.5, 3 and 24.41 m),
one line per case with its reached state, tick count, and the hex of its
final pose and path length.

Runs whichever ``fuzzynav`` the interpreter imports, so it checks an
installed package as well as ``src`` on ``PYTHONPATH``; the tier-1 tests
compare its output with the pins in ``tests/test_cli.py``.  Standard
library only; takes ~2 s.
"""
from __future__ import annotations

import hashlib
import math
import os
import tempfile

from fuzzynav import benchmark_scenario, run
from fuzzynav.cli import main as cli_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTROLLERS = ("3", "5", "7")
BEARINGS = tuple(-math.pi + i * (2.0 * math.pi / 16) for i in range(16))
DISTANCES = (0.5, 3.0, 24.41)


def trajectory_digests() -> dict[str, str]:
    """sha256 of each trajectory CSV ``compare`` writes for the benchmark scenario."""
    scenario = os.path.join(ROOT, "demos", "benchmark_scenario.json")
    with tempfile.TemporaryDirectory() as out:
        if cli_main(["compare", "--scenario", scenario, "--out", out, "--quiet"]) != 0:
            raise SystemExit("compare did not reach the goal with every controller")
        digests = {}
        for c in CONTROLLERS:
            name = f"trajectory_{c}.csv"
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def map_digest() -> str:
    """sha256 over one line per map case: reached, ticks and the hex of the
    final x, y, theta and the path length."""
    h = hashlib.sha256()
    for c in CONTROLLERS:
        for distance in DISTANCES:
            for bearing in BEARINGS:
                trajectory, m = run(benchmark_scenario(c, bearing, distance))
                last = trajectory[-1]
                fields = (last.x.hex(), last.y.hex(), last.theta.hex(), m.path_length.hex())
                h.update(f"{c} {bearing.hex()} {distance!r} {m.reached} {len(trajectory) - 1} {' '.join(fields)}\n"
                         .encode())
    return h.hexdigest()


def main() -> None:
    for name, digest in trajectory_digests().items():
        print(name, digest)
    print("map", map_digest())


if __name__ == "__main__":
    main()
