"""Two-input, two-output Mamdani inference.

Pipeline: fuzzify both inputs, fire the rules with min-AND, give each
output term the max strength of the rules naming it, clip the terms at
those strengths, aggregate with max, and defuzzify by centroid (trapezoid
rule on a fixed 8001-point grid).  A rule base is compiled on its first
inference into a table from each (angle term, distance term) cell to its
rules' consequents and output terms sampled on that grid.  Only the cells
whose two input degrees are both non-zero fire (at most four for a
50%-overlap partition), and each compiled base keeps its last few crisp
results keyed by the two degree tuples, so a repeated degree pair (a robot
on a saturated plateau of both inputs) reuses its result.  All values are
immutable, every function is pure and the result memo is a thread-safe
``functools.lru_cache``, so a rule base can be shared freely across
threads.

``infer`` runs the whole pipeline and is the one entry point; the stages
are private (``_term_strengths`` fires and takes the per-term max,
``_centroid`` clips, aggregates and defuzzifies).
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .membership import LinguisticVariable, fuzzify, mf_eval

if TYPE_CHECKING:
    from .rulebase import RuleBase

__all__ = ["CompiledRuleBase", "InferenceResult", "infer", "ZERO_AREA_TOL"]

# Uniform-grid resolution for centroid quadrature.  8001 points keeps the
# trapezoid rule within ~5e-8 of a brute-force reference for clipped
# triangular curves, while one defuzzification stays well under a
# millisecond.
_SAMPLES = 8001

# Crisp results each compiled rule base keeps, least recently used first out.
# A tick whose heading error lies past the outermost angle peak and whose
# distance is clamped at the universe edge repeats the previous tick's
# degrees, so a few entries catch the plateaus of a closed-loop run.
_MEMO_SIZE = 16

# Below this aggregated area the centroid is numerically meaningless; the
# universe midpoint is returned and flagged instead.
ZERO_AREA_TOL = 1e-12


class InferenceResult(NamedTuple):
    """Crisp wheel velocities with per-output zero-area flags."""

    v_right: float
    v_left: float
    right_zero_area: bool
    left_zero_area: bool


class _Sampled(NamedTuple):
    """An output universe with every term sampled on the quadrature grid."""

    lo: float
    hi: float
    xs: np.ndarray
    curves: np.ndarray  # one row per term


@lru_cache(maxsize=64)
def _sample(lo: float, hi: float, mfs: tuple) -> _Sampled:
    xs = np.linspace(lo, hi, _SAMPLES)
    curves = np.vstack([mf_eval(mf, xs) for mf in mfs])
    xs.setflags(write=False)
    curves.setflags(write=False)
    return _Sampled(lo, hi, xs, curves)


def _centroid(sampled: _Sampled, strengths) -> tuple[float, bool]:
    """(crisp value, zero-area flag): the centroid of the terms clipped at
    ``strengths`` and aggregated with max, clamped to the universe.

    Below ``ZERO_AREA_TOL`` of area (nothing fired) the universe midpoint
    is returned with the flag set, so the caller stays total.
    """
    lo, hi, xs, curves = sampled
    clips = np.asarray(strengths, dtype=float)
    mu = np.max(np.minimum(curves, clips[:, None]), axis=0)
    h = (hi - lo) / (_SAMPLES - 1)
    area = h * (mu.sum() - 0.5 * (mu[0] + mu[-1]))
    if area < ZERO_AREA_TOL:
        return 0.5 * (lo + hi), True
    xmu = xs * mu
    moment = h * (xmu.sum() - 0.5 * (xmu[0] + xmu[-1]))
    return float(min(max(moment / area, lo), hi)), False


def _term_strengths(cells, n_right: int, n_left: int, angle, dist) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(right, left) per-term strengths from the two inputs' degrees: for
    each output term, the max min-AND strength of the rules naming it.

    Only cells whose two degrees are both > 0.0 fire.  Any other cell's
    strength is 0.0 or -0.0, which cannot raise a max that starts at 0.0,
    so the result equals firing every rule, bit for bit.
    """
    right = [0.0] * n_right
    left = [0.0] * n_left
    hot = [(d, deg) for d, deg in enumerate(dist) if deg > 0.0]
    for row, deg in zip(cells, angle):
        if deg > 0.0:
            for d, d_deg in hot:
                s = min(deg, d_deg)
                for r, l in row[d]:
                    if s > right[r]:
                        right[r] = s
                    if s > left[l]:
                        left[l] = s
    return tuple(right), tuple(left)


class CompiledRuleBase(NamedTuple):
    """A rule base resolved for inference.

    ``cells[a][d]`` holds the (right, left) consequents of the rules on
    cell (a, d), in rule order (none for a cell the grid leaves out);
    ``right`` and ``left`` the sampled output universes.
    ``outputs(angle, dist)`` is the crisp ``InferenceResult`` for the two
    inputs' degrees, memoised on them.
    """

    angle_var: LinguisticVariable
    distance_var: LinguisticVariable
    cells: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    right: _Sampled
    left: _Sampled
    outputs: Callable[[tuple[float, ...], tuple[float, ...]], InferenceResult]

    @classmethod
    def of(cls, angle_var: LinguisticVariable, distance_var: LinguisticVariable,
           right_var: LinguisticVariable, left_var: LinguisticVariable, rules) -> CompiledRuleBase:
        """Compile from the four variables and each rule's resolved term indices."""
        grid = [[[] for _ in distance_var.terms] for _ in angle_var.terms]
        for a, d, r, l in rules:
            grid[a][d].append((r, l))
        cells = tuple(tuple(tuple(cell) for cell in row) for row in grid)
        # keyed by geometry, so equal right and left variables share one sampling
        right, left = (_sample(v.lo, v.hi, tuple(t.mf for t in v.terms)) for v in (right_var, left_var))
        n_right, n_left = len(right_var.terms), len(left_var.terms)

        # Keys compare by value, so degrees 0.0 and -0.0 share an entry: both
        # leave their cells unfired, so the result is the same.  The memo
        # holds the tables, not the compiled base, so no reference cycle
        # keeps a dropped base's sampled outputs alive.  ``_term_strengths``
        # and ``_centroid`` are module globals, looked up on every miss.
        @lru_cache(maxsize=_MEMO_SIZE)
        def outputs(angle, dist) -> InferenceResult:
            rs, ls = _term_strengths(cells, n_right, n_left, angle, dist)
            (v_right, right_zero), (v_left, left_zero) = _centroid(right, rs), _centroid(left, ls)
            return InferenceResult(v_right, v_left, right_zero, left_zero)

        return cls(angle_var, distance_var, cells, right, left, outputs)


def infer(rb: RuleBase, e_theta: float, e_d: float) -> InferenceResult:
    """Full Mamdani step: crisp (angle error, distance error) -> wheel velocities.

    Raises ValueError naming the input when either is not finite.
    """
    for name, value in (("e_theta", e_theta), ("e_d", e_d)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    compiled = rb.compiled
    return compiled.outputs(fuzzify(compiled.angle_var, e_theta), fuzzify(compiled.distance_var, e_d))
