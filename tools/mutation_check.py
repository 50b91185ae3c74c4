"""Mutation check: every listed one-line mutant must fail its tests.

    python tools/mutation_check.py

Each mutant names a source file, an anchor text that occurs exactly once
in it, the text that replaces the anchor, and the test files expected to
catch the change.  For each mutant the script copies ``src``, ``tests``,
``demos``, ``docs``, ``README.md`` and ``pyproject.toml`` to a temporary
directory, applies the mutant there and runs pytest on its test files,
one process at a time.  The unmutated copy runs the same files first, so a
suite that already fails cannot pass for a kill.

The mutants pin the comparisons the docs and docstrings state (inclusive
or strict ties), the run's time and tick budgets, the distance floor of a
built-in, the order the centroid's envelope takes tied clips in, its check
of an interpolated crossing and the strength a term fires above, the
inference memo and the one centroid shared by mirrored outputs, the
built-in rule bases that runs share and their keys, the inclusive ends of
the magnitude bound and the size floor, a built-in's angle band of
(0, pi], the strict overlap a variable's terms need to cover their
universe and the strictly increasing peaks of a uniform partition, the
order a render writes terms and rules in, and the JSON name of a rejected
scenario's type.  ``EQUIVALENT`` lists mutants that no test can kill, each
with the reason; they are not run.

Exits non-zero if any mutant survives, if any anchor is missing or occurs
more than once, or if pytest does not run cleanly.  Uses only the standard
library and pytest.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "demos", "docs", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str  # must occur exactly once in ``path``
    new: str
    tests: tuple[str, ...]


class Equivalent(NamedTuple):
    path: str
    old: str
    new: str
    reason: str


KINEMATICS = "src/fuzzynav/kinematics.py"
NAVIGATOR = "src/fuzzynav/navigator.py"
SIMULATION = "src/fuzzynav/simulation.py"
ENGINE = "src/fuzzynav/engine.py"
LIMITS = "src/fuzzynav/_limits.py"
RULEBASE = "src/fuzzynav/rulebase.py"
MEMBERSHIP = "src/fuzzynav/membership.py"
RULEFORMAT = "src/fuzzynav/ruleformat.py"

MUTANTS = (
    Mutant(KINEMATICS, "return math.pi if wrapped <= -math.pi else wrapped",
           "return math.pi if wrapped < -math.pi else wrapped", ("tests/test_kinematics.py",)),
    Mutant(KINEMATICS, "if abs(diff) < OMEGA_STRAIGHT_TOL:",
           "if abs(diff) <= OMEGA_STRAIGHT_TOL:", ("tests/test_kinematics.py",)),
    Mutant(KINEMATICS, "if abs(tw.omega) < OMEGA_STRAIGHT_TOL:",
           "if abs(tw.omega) <= OMEGA_STRAIGHT_TOL:", ("tests/test_kinematics.py",)),
    Mutant(NAVIGATOR, "if e_d < COINCIDENT_TOL:",
           "if e_d <= COINCIDENT_TOL:", ("tests/test_navigator.py",)),
    Mutant(SIMULATION, "reached = errors.e_d <= sc.goal_tol",
           "reached = errors.e_d < sc.goal_tol", ("tests/test_simulation.py",)),
    Mutant(SIMULATION, "abs(errors.e_theta) <= sc.angle_tol",
           "abs(errors.e_theta) < sc.angle_tol", ("tests/test_simulation.py",)),
    Mutant(SIMULATION, "if reached or t >= sc.max_time:",
           "if reached or t > sc.max_time:", ("tests/test_simulation.py",)),
    Mutant(SIMULATION, "if self.max_time / self.dt > MAX_TICKS:",
           "if self.max_time / self.dt >= MAX_TICKS:", ("tests/test_simulation.py",)),
    Mutant(SIMULATION, "if not self.max_time >= self.dt:",
           "if not self.max_time > self.dt:", ("tests/test_simulation.py",)),
    Mutant(SIMULATION, "MIN_D_MAX = 1.0", "MIN_D_MAX = 0.0", ("tests/test_simulation.py",)),
    Mutant(LIMITS, "not -MAX_MAGNITUDE <= value <= MAX_MAGNITUDE",
           "not -MAX_MAGNITUDE < value < MAX_MAGNITUDE", ("tests/test_limits.py",)),
    Mutant(LIMITS, "not value >= MIN_SIZE", "not value > MIN_SIZE", ("tests/test_limits.py",)),
    Mutant(RULEBASE, "if not 0 < angle_band <= math.pi:",
           "if not 0 < angle_band < math.pi:", ("tests/test_rulebase.py",)),
    Mutant(MEMBERSHIP, "if start < reach:", "if start <= reach:", ("tests/test_membership.py",)),
    # the envelope takes clips of equal strength in the order of their runs
    # and lines (the rest of each flat clip tuple), so where two tie the
    # listing order cannot pick the owner;
    # it checks an interpolated crossing at its two neighbouring grid points,
    # so one rounded past the overlap is moved back; and a term at strength
    # 0.0 does not reach it
    Mutant(ENGINE, "fired.sort(reverse=True)", "fired.sort(key=lambda clip: clip[0], reverse=True)",
           ("tests/test_engine.py",)),
    Mutant(ENGINE, """                    if (line_before > other_before) != (d0 > 0.0):
                        j -= 1
                        line_j, other_j = line_before, other_before
                        x = hi if j - 1 == _LAST else (j - 1) * step + lo
                        line_before = (s if (y := (x - c) / w) > s else y) if w else s
                        other_before = (ps if (y := (x - pc) / pw) > ps else y) if pw else ps
                    elif (line_j > other_j) == (d0 > 0.0):
                        j += 1
                        line_before, other_before = line_j, other_j
                        x = hi if j == _LAST else j * step + lo
                        line_j = (s if (y := (x - c) / w) > s else y) if w else s
                        other_j = (ps if (y := (x - pc) / pw) > ps else y) if pw else ps
""", "", ("tests/test_engine.py",)),
    Mutant(ENGINE, "        if s > 0.0:\n            # [first, up) rises",
           "        if s >= 0.0:\n            # [first, up) rises", ("tests/test_engine.py",)),
    # a render writes a base as stored: sorting either its terms or its rules
    # breaks the identity on a permuted file
    Mutant(RULEFORMAT, "for t in var.terms:", "for t in sorted(var.terms, key=lambda t: t.mf.peak):",
           ("tests/test_ruleformat.py",)),
    Mutant(RULEFORMAT, "for r in rb.rules]", "for r in sorted(rb.rules)]", ("tests/test_ruleformat.py",)),
    Mutant(SIMULATION, 'bool: "boolean", ', "", ("tests/test_cli.py",)),
    # a memo turned off, or an output pair defuzzified twice where one
    # centroid serves both, leaves every result as it is and adds work
    Mutant(ENGINE, "_MEMO_SIZE = 1", "_MEMO_SIZE = 0", ("tests/test_engine.py", "tests/test_simulation.py")),
    Mutant(ENGINE, "(v_right, right_zero) if shared and ls == rs else _centroid(left, ls)", "_centroid(left, ls)",
           ("tests/test_engine.py", "tests/test_simulation.py")),
    Mutant(MEMBERSHIP, "if any(q <= p for p, q in zip(peaks, peaks[1:])):",
           "if any(q < p for p, q in zip(peaks, peaks[1:])):", ("tests/test_membership.py",)),
    # runs share one built-in per key: a cache turned off builds one per run,
    # and a key whose v_max the miss path drops serves the default universe
    Mutant(SIMULATION, "@lru_cache(maxsize=32)", "@lru_cache(maxsize=0)", ("tests/test_simulation.py",)),
    Mutant(SIMULATION, "builtin(size, d_max=d_max, v_max=v_max)", "builtin(size, d_max=d_max)",
           ("tests/test_simulation.py",)),
)

EQUIVALENT = (
    Equivalent(ENGINE, "if step * total < ZERO_AREA_TOL:", "if step * total <= ZERO_AREA_TOL:",
               "no input is known whose area equals ZERO_AREA_TOL exactly: where builtin(3)'s flag "
               "flips, one float step of strength moves the area from 1e-12 less one ulp to 1e-12 "
               "plus one ulp"),
)


def anchor_problems(root: str = ROOT) -> list[str]:
    """One line per anchor that does not occur exactly once in its file."""
    problems = []
    for m in MUTANTS + EQUIVALENT:
        with open(os.path.join(root, m.path), encoding="utf-8") as fh:
            count = fh.read().count(m.old)
        if count != 1:
            problems.append(f"{m.path}: anchor {m.old.strip()!r} occurs {count} times, not once")
    return problems


def _copy(dest: str):
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest)


def _pytest(copy: str, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _run(tests: tuple[str, ...], mutant: Mutant | None = None) -> int:
    """pytest's exit code on ``tests`` in a fresh copy, ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="fuzzynav-mutant-") as copy:
        _copy(copy)
        if mutant is not None:
            path = os.path.join(copy, mutant.path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        return _pytest(copy, tests)


def main() -> int:
    problems = anchor_problems()
    for problem in problems:
        print(f"mutation_check: {problem}")
    if problems:
        return 1
    every_test = tuple(sorted({t for m in MUTANTS for t in m.tests}))
    code = _run(every_test)
    if code != 0:
        print(f"mutation_check: the unmutated tests exit {code}: {' '.join(every_test)}")
        return 1
    killed = 0
    for m in MUTANTS:
        started = time.perf_counter()
        code = _run(m.tests, m)
        # 1: a test failed; 0: all passed; anything else: pytest itself did not run cleanly
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        killed += code == 1
        change = f"{m.old.strip()!r} -> {m.new.strip()!r}"
        print(f"{verdict:<9} {os.path.basename(m.path)}: {change} ({time.perf_counter() - started:.1f} s)")
    for e in EQUIVALENT:
        print(f"{'skipped':<9} {os.path.basename(e.path)}: {e.old.strip()!r} -> {e.new.strip()!r}: equivalent, {e.reason}")
    print(f"{killed} of {len(MUTANTS)} mutants killed; {len(EQUIVALENT)} listed as equivalent, not run")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
