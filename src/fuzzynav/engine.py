"""Two-input, two-output Mamdani inference.

Pipeline: fuzzify both inputs, fire the rules with min-AND, give each
output term the max strength of the rules naming it, clip the terms at
those strengths, aggregate with max, and defuzzify by centroid (trapezoid
rule on a fixed 8001-point grid).  A rule base is compiled on its first
inference into a table from each (angle term, distance term) cell to its
rule's consequent pair and output terms sampled on that grid, each kept only
on the span of grid indices where it is non-zero.  Clipping and aggregation
run only over the spans of the terms that fired; every sample outside them
is exactly zero, and the trapezoid sums still run over all 8001 points, so
the result equals clipping every term on the whole grid, bit for bit.  One
working buffer serves each centroid: once the area is summed, the moment
x·mu is formed in it in place.  The min-AND and the final clamp are
conditional expressions making the comparisons of ``min`` and ``max``,
so they equal the builtins, signed zeros included, without their calls.
When the two outputs share one sampling and their per-term strengths are
equal (a robot heading straight at the goal on a mirrored rule grid), one
centroid serves both.  Only the cells whose two input degrees are both
non-zero fire (at most four for a 50%-overlap partition), and each
compiled base keeps its last few crisp results keyed by the two degree
tuples, so a repeated degree pair (a robot on a saturated plateau of both
inputs) reuses its result.
All values are immutable, every function is pure (the one working buffer is
allocated per call) and the result memo is a thread-safe
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

from ._limits import require_finite
from .membership import LinguisticVariable, fuzzify

if TYPE_CHECKING:
    from .rulebase import RuleBase

__all__ = ["CompiledRuleBase", "InferenceResult", "infer", "ZERO_AREA_TOL"]

# Uniform-grid resolution for centroid quadrature.  8001 points keeps the
# trapezoid rule within ~5e-8 of a brute-force reference for clipped
# triangular curves.  Clipping touches only the fired terms' spans, but the
# two trapezoid sums still read all 8001 points: numpy's pairwise sum groups
# by array length, so summing a shorter window would change the last bits.
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
    """An output universe with every term sampled on the quadrature grid.

    Term k is non-zero only on the grid indices ``[start, stop)`` of
    ``spans[k]`` (``(0, 0)`` for a term narrower than one grid step), and
    ``segments[k]`` holds its samples there; every other sample is 0.0.
    """

    lo: float
    hi: float
    xs: np.ndarray
    spans: tuple[tuple[int, int], ...]
    segments: tuple[np.ndarray, ...]


# Keyed by output geometry.  Four entries hold the three built-ins' outputs
# at one v_max (right and left share one) with one to spare.  A built-in's
# entry takes about 0.2 MB, and a caller that cycles through more geometries
# than the cache holds gets no hits from it, so a larger cache only holds
# memory.
@lru_cache(maxsize=4)
def _sample(lo: float, hi: float, mfs: tuple) -> _Sampled:
    xs = np.linspace(lo, hi, _SAMPLES)
    xs.setflags(write=False)
    spans, segments = [], []
    for mf in mfs:
        # a side too narrow to divide by overflows to an infinite slope, which
        # the clip takes to 0.0 or 1.0, as fuzzify's float division does
        with np.errstate(over="ignore"):
            up = 1.0 if mf.is_left_shoulder else (xs - mf.left) / (mf.peak - mf.left)
            down = 1.0 if mf.is_right_shoulder else (mf.right - xs) / (mf.right - mf.peak)
        row = np.clip(np.minimum(up, down), 0.0, 1.0)
        nonzero = np.flatnonzero(row)
        start, stop = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
        segment = row[start:stop].copy()
        segment.setflags(write=False)
        spans.append((start, stop))
        segments.append(segment)
    return _Sampled(lo, hi, xs, tuple(spans), tuple(segments))


def _centroid(sampled: _Sampled, strengths) -> tuple[float, bool]:
    """(crisp value, zero-area flag): the centroid of the terms clipped at
    ``strengths`` and aggregated with max, clamped to the universe.

    Below ``ZERO_AREA_TOL`` of area (nothing fired) the universe midpoint
    is returned with the flag set, so the caller stays total.

    Only terms with strength > 0.0 are clipped, each over its own span: a
    term at strength 0.0 clips to 0.0 everywhere and any term clips to 0.0
    outside its span, and neither can raise a max that starts at 0.0.  The
    first fired term's clip is written straight into the zeroed buffer:
    a span holds only samples > 0.0, so its clip is > 0.0 and equals its
    max with 0.0.  So the aggregate holds the same 8001 values as clipping
    every term on the whole grid, and the full-length sums add them in the
    same order.

    That buffer is the call's only one.  After the area sum is read, x·mu
    is formed in place over the fired window; every sample outside it is
    +0.0, so the buffer then holds the 8001 moment terms of the full grid.
    The clamp to the universe makes the comparisons of ``min(max(c, lo),
    hi)``.
    """
    lo, hi, xs, spans, segments = sampled
    mu = None
    for k, s in enumerate(strengths):
        if s > 0.0:
            start, stop = spans[k]
            if mu is None:
                mu = np.zeros(_SAMPLES)
                np.minimum(segments[k], s, out=mu[start:stop])
                first, last = start, stop
            else:
                window = mu[start:stop]
                np.maximum(window, np.minimum(segments[k], s), out=window)
                if start < first:
                    first = start
                if stop > last:
                    last = stop
    if mu is None:
        return 0.5 * (lo + hi), True
    h = (hi - lo) / (_SAMPLES - 1)
    area = h * (float(mu.sum()) - 0.5 * (float(mu[0]) + float(mu[-1])))
    if area < ZERO_AREA_TOL:
        return 0.5 * (lo + hi), True
    window = mu[first:last]
    np.multiply(xs[first:last], window, out=window)
    moment = h * (float(mu.sum()) - 0.5 * (float(mu[0]) + float(mu[-1])))
    crisp = moment / area
    crisp = lo if lo > crisp else crisp
    return float(hi if hi < crisp else crisp), False


def _term_strengths(cells, n_right: int, n_left: int, angle, dist) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(right, left) per-term strengths from the two inputs' degrees: for
    each output term, the max min-AND strength of the cells naming it.

    Only cells whose two degrees are both > 0.0 fire.  Any other cell's
    strength is 0.0 or -0.0, which cannot raise a max that starts at 0.0,
    so the result equals firing every rule, bit for bit.  The min-AND is
    ``b if b < a else a``, the comparison ``min(a, b)`` makes, with no
    builtin call per cell.
    """
    right = [0.0] * n_right
    left = [0.0] * n_left
    hot = [(d, deg) for d, deg in enumerate(dist) if deg > 0.0]
    for row, deg in zip(cells, angle):
        if deg > 0.0:
            for d, d_deg in hot:
                s = d_deg if d_deg < deg else deg
                r, l = row[d]
                if s > right[r]:
                    right[r] = s
                if s > left[l]:
                    left[l] = s
    return tuple(right), tuple(left)


class CompiledRuleBase(NamedTuple):
    """A rule base resolved for inference.

    ``cells[a][d]`` holds the (right, left) consequent term indices of the
    rule on cell (a, d); ``right`` and ``left`` the sampled output
    universes.
    ``outputs(angle, dist)`` is the crisp ``InferenceResult`` for the two
    inputs' degrees, memoised on them.
    """

    angle_var: LinguisticVariable
    distance_var: LinguisticVariable
    cells: tuple[tuple[tuple[int, int], ...], ...]
    right: _Sampled
    left: _Sampled
    outputs: Callable[[tuple[float, ...], tuple[float, ...]], InferenceResult]

    @classmethod
    def of(cls, angle_var: LinguisticVariable, distance_var: LinguisticVariable,
           right_var: LinguisticVariable, left_var: LinguisticVariable, rules) -> CompiledRuleBase:
        """Compile from the four variables and each rule's resolved term indices."""
        grid = [[None] * len(distance_var.terms) for _ in angle_var.terms]
        for a, d, r, l in rules:
            grid[a][d] = (r, l)
        cells = tuple(map(tuple, grid))
        # keyed by geometry, so equal right and left variables share one sampling
        right, left = (_sample(v.lo, v.hi, tuple(t.mf for t in v.terms)) for v in (right_var, left_var))
        n_right, n_left = len(right_var.terms), len(left_var.terms)
        shared = left is right

        # Keys compare by value, so degrees 0.0 and -0.0 share an entry: both
        # leave their cells unfired, so the result is the same.  The memo
        # holds the tables, not the compiled base, so no reference cycle
        # keeps a dropped base's sampled outputs alive.  ``_term_strengths``
        # and ``_centroid`` are module globals, looked up on every miss.
        # Strengths are never -0.0 or nan, so equal tuples are equal bit for
        # bit, and on one shared sampling they give one centroid.
        @lru_cache(maxsize=_MEMO_SIZE)
        def outputs(angle, dist) -> InferenceResult:
            rs, ls = _term_strengths(cells, n_right, n_left, angle, dist)
            v_right, right_zero = _centroid(right, rs)
            v_left, left_zero = (v_right, right_zero) if shared and ls == rs else _centroid(left, ls)
            return InferenceResult(v_right, v_left, right_zero, left_zero)

        return cls(angle_var, distance_var, cells, right, left, outputs)


def infer(rb: RuleBase, e_theta: float, e_d: float) -> InferenceResult:
    """Full Mamdani step: crisp (angle error, distance error) -> wheel velocities.

    Raises ValueError naming the input when either is not finite.
    """
    if not math.isfinite(e_theta):
        require_finite("e_theta", e_theta)
    if not math.isfinite(e_d):
        require_finite("e_d", e_d)
    compiled = rb.compiled
    return compiled.outputs(fuzzify(compiled.angle_var, e_theta), fuzzify(compiled.distance_var, e_d))
