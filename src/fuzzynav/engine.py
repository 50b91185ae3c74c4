"""Two-input, two-output Mamdani inference.

Pipeline: fuzzify both inputs, fire the rules with min-AND, give each
output term the max strength of the rules naming it, clip the terms at
those strengths, aggregate with max, and defuzzify by centroid (trapezoid
rule on a fixed 8001-point grid).  A rule base resolves its rules into a
cell table, from each (angle term, distance term) cell to its rule's
consequent term pair, when it is built.  On its first inference each
output variable is compiled: its grid step, and per term its breakpoints
and the grid indices of its support, found by ``bisect``.  The grid
itself is never built.  A clipped term is linear on each of at most three
runs of grid indices, so the max of the fired clips is linear between
their run ends and the points where two of them cross, and the trapezoid
sums over each linear piece are taken in closed form from its two end
values.  The result is the 8001-point trapezoid rule to within a few ulps,
in pure Python.  The min-AND and the final clamp are conditional
expressions making the comparisons of ``min`` and ``max``, so they equal
the builtins, signed zeros included, without their calls.
When the two outputs compile alike and their per-term strengths are
equal (a robot heading straight at the goal on a mirrored rule grid), one
centroid serves both.  Only the cells whose two input degrees are both
non-zero fire (at most four for a 50%-overlap partition), and each
rule base keeps its last crisp result keyed by the two degree tuples, so
a tick that repeats the previous tick's degrees (a robot on a saturated
plateau of both inputs) reuses it.
All values are immutable, every function is pure and the result memo is a
thread-safe ``functools.lru_cache``, so a rule base can be shared freely
across threads.

``infer`` runs the whole pipeline and is the one entry point; the stages
are private (``_term_strengths`` fires and takes the per-term max,
``_centroid`` clips, aggregates and defuzzifies).
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from ._limits import require_finite
from .membership import LinguisticVariable, fuzzify

if TYPE_CHECKING:
    from .rulebase import RuleBase

__all__ = ["InferenceResult", "infer", "ZERO_AREA_TOL"]

# The trapezoid rule's grid: 8001 evenly spaced points over the universe,
# ``lo + i * step`` with the last point at ``hi``, as ``numpy.linspace``
# places them.  It keeps the centroid within ~5e-8 of a brute-force reference
# for clipped triangular curves.  The points are never built: the sums over
# them are taken in closed form.
_SAMPLES = 8001
_LAST = _SAMPLES - 1

# Crisp results each rule base keeps: the last.  A tick whose heading error
# lies past the outermost angle peak and whose distance is clamped at the
# universe edge repeats the previous tick's degrees; measured on closed
# loops, dense rules files and scatter, every hit repeats the call before.
_MEMO_SIZE = 1

# Below this aggregated area the centroid is numerically meaningless; the
# universe midpoint is returned and flagged instead.
ZERO_AREA_TOL = 1e-12


class InferenceResult(NamedTuple):
    """Crisp wheel velocities with per-output zero-area flags."""

    v_right: float
    v_left: float
    right_zero_area: bool
    left_zero_area: bool


class _Output(NamedTuple):
    """An output variable compiled for ``_centroid``: its universe, the grid
    step and, ordered by ``first``, one ``(first, stop, k, left, peak -
    left, right, right - peak)`` per term with a grid point inside its
    support.  ``k`` is the term's index and ``[first, stop)`` the grid
    indices of its support, as ``bisect`` finds them: from the first point
    past ``left`` (0 for a left shoulder) to the first point at or past
    ``right`` (``_SAMPLES`` for a right shoulder).  A shoulder's flat side
    has width 0.0.
    """

    lo: float
    hi: float
    step: float
    terms: tuple[tuple[int, int, int, float, float, float, float], ...]


def _output(var: LinguisticVariable) -> _Output:
    """``var`` compiled for ``_centroid``; the grid points never decrease,
    so ``bisect`` finds each support's ends by exact comparisons."""
    lo, hi = var.lo, var.hi
    step = (hi - lo) / _LAST
    grid = range(_SAMPLES)

    def x(i):
        return hi if i == _LAST else i * step + lo

    terms = []
    for k, (left, rise, right, fall, left_shoulder, right_shoulder) in enumerate(var._table):
        first = 0 if left_shoulder else bisect_right(grid, left, key=x)
        stop = _SAMPLES if right_shoulder else bisect_left(grid, right, key=x)
        if first < stop:
            terms.append((first, stop, k, left, rise, right, fall))
    return _Output(lo, hi, step, tuple(sorted(terms)))


def _mu(line: tuple[float, float, float], x: float) -> float:
    """The line ``(c, w, s)`` at ``x``: ``min((x - c) / w, s)``, or ``s``
    where ``w`` is 0.0."""
    c, w, s = line
    if not w:
        return s
    y = (x - c) / w
    return s if y > s else y


def _centroid(out: _Output, strengths) -> tuple[float, bool]:
    """(crisp value, zero-area flag): the centroid of the terms clipped at
    ``strengths`` and aggregated with max, clamped to the universe.

    Below ``ZERO_AREA_TOL`` of area (nothing fired) the universe midpoint
    is returned with the flag set, so the caller stays total.

    The value is the trapezoid rule on the grid ``lo + i * step``, summed
    in closed form.  A fired term is non-zero on its support, where its
    clip rises, holds its strength and falls: three runs of grid indices,
    each along one line.  The runs' inner ends are estimated from where a
    side meets the strength, and each side's value is capped at it, so an
    estimate one point off moves the result by an ulp at most; the
    support's ends are exact, so a side narrower than a grid step keeps
    its foot at 0.0, as the sampled curve does.  Between consecutive run
    ends ("cuts") every fired clip is one line.  There the aggregate
    follows the line highest at the interval's first point, up to the last
    point before a line that ends higher crosses it, and so on.  Each
    piece along one line adds its sums of mu and i·mu from its two end
    values.  Which line is on top is decided by values alone, so the order
    in which the terms are listed does not reach the result; the terms are
    scanned in order of ``first`` only so the scan can stop at the first
    term that starts past the interval.

    The clamp to the universe makes the comparisons of ``min(max(c, lo),
    hi)``.
    """
    lo, hi, step, terms = out
    fired = []
    cuts = set()
    for first, stop, k, left, rise, right, fall in terms:
        s = strengths[k]
        if s > 0.0:
            # [first, up) rises, [up, down) holds s, [down, stop) falls
            if rise:
                up = math.ceil((left + s * rise - lo) / step)
                up = first if up < first else stop if up > stop else up
            else:
                up = first
            if fall:
                down = math.floor((right - s * fall - lo) / step) + 1
                down = up if down < up else stop if down > stop else down
            else:
                down = stop
            # each run's line is (c, w, s); (x - right) / -fall is
            # (right - x) / fall bit for bit
            fired.append((first, up, down, stop, (left, rise, s), (0.0, 0.0, s), (right, -fall, s)))
            cuts.update((first, up, down, stop))
    if not fired:
        return 0.5 * (lo + hi), True

    # the aggregate, left to right: [first index, last index, line, mu at
    # first, mu at last] per piece along one line
    pieces = []
    cuts = sorted(cuts)
    for p, q in zip(cuts, cuts[1:]):
        end = q - 1
        xp = hi if p == _LAST else p * step + lo
        xe = hi if end == _LAST else end * step + lo
        # only the highest plateau, and the sides clipped above it, can be
        # on top: (value at p, value at end, line) for each of them
        level = 0.0
        sides = []
        for first, up, down, stop, rising, flat, falling in fired:
            if first > p:
                break
            if p < stop:
                if p < up:
                    sides.append(rising)
                elif p < down:
                    if flat[2] > level:
                        level = flat[2]
                        lines = [(level, level, flat)]
                else:
                    sides.append(falling)
        if not level:
            lines = []
        for line in sides:
            c, w, s = line
            if s > level:
                y = (xp - c) / w
                y_end = (xe - c) / w
                lines.append((s if y > s else y, s if y_end > s else y_end, line))
        if not lines:
            continue
        # on top from p: the highest line there, of equal ones the highest at end
        y, y_end, line = max(lines) if len(lines) > 1 else lines[0]
        i = p
        while True:
            # it holds up to the last point before a line that ends higher
            # crosses it
            j = end
            for other_y, other_end, _ in lines:
                if other_end > y_end:
                    gap = y - other_y
                    x = i + int(gap / (gap + other_end - y_end) * (end - i))
                    j = x if x < j else j
            y_j = y_end if j == end else _mu(line, hi if j == _LAST else j * step + lo)
            if pieces and pieces[-1][2] == line and pieces[-1][1] == i - 1:
                pieces[-1][1] = j
                pieces[-1][4] = y_j
            else:
                pieces.append([i, j, line, y, y_j])
            if j == end:
                break
            i = j + 1
            x = hi if i == _LAST else i * step + lo
            lines = [(_mu(other, x), other_end, other) for _, other_end, other in lines]
            y, y_end, line = max(lines)

    # sums of mu and i·mu over the grid, each piece's from its end values and
    # the sums of i and i² over its indices
    total = moment = 0.0
    for i0, i1, _, y0, y1 in pieces:
        n = i1 - i0 + 1
        area = n * (y0 + y1) * 0.5
        total += area
        moment += i0 * area + y0 * (n * (n - 1) // 2) + (y1 - y0) * (n * (2 * n - 1) / 6)
    mu_first = pieces[0][3] if pieces[0][0] == 0 else 0.0
    mu_last = pieces[-1][4] if pieces[-1][1] == _LAST else 0.0
    # the trapezoid rule halves the two end points; x_i = lo + i * step
    total -= 0.5 * (mu_first + mu_last)
    if step * total < ZERO_AREA_TOL:
        return 0.5 * (lo + hi), True
    crisp = lo + step * (moment - 0.5 * _LAST * mu_last) / total
    crisp = lo if lo > crisp else crisp
    return hi if hi < crisp else crisp, False


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


def _compile(cells, right_var: LinguisticVariable, left_var: LinguisticVariable
             ) -> Callable[[tuple[float, ...], tuple[float, ...]], InferenceResult]:
    """``outputs(angle, dist)``: the crisp ``InferenceResult`` for the two
    inputs' degrees over the cell table ``cells[a][d] = (right, left)``
    consequent term indices, memoised on the degrees."""
    # right and left variables that compile alike share one compiled output
    right, left = _output(right_var), _output(left_var)
    left = right if left == right else left
    n_right, n_left = len(right_var.terms), len(left_var.terms)
    shared = left is right

    # Keys compare by value, so degrees 0.0 and -0.0 share an entry: both
    # leave their cells unfired, so the result is the same.  The memo
    # holds the tables, not the rule base, so no reference cycle keeps a
    # dropped base's compiled outputs alive.  ``_term_strengths`` and
    # ``_centroid`` are module globals, looked up on every miss.
    # Strengths are never -0.0 or nan, so equal tuples are equal bit for
    # bit, and on one shared output they give one centroid.
    @lru_cache(maxsize=_MEMO_SIZE)
    def outputs(angle, dist) -> InferenceResult:
        rs, ls = _term_strengths(cells, n_right, n_left, angle, dist)
        v_right, right_zero = _centroid(right, rs)
        v_left, left_zero = (v_right, right_zero) if shared and ls == rs else _centroid(left, ls)
        return InferenceResult(v_right, v_left, right_zero, left_zero)

    return outputs


def infer(rb: RuleBase, e_theta: float, e_d: float) -> InferenceResult:
    """Full Mamdani step: crisp (angle error, distance error) -> wheel velocities.

    Raises ValueError naming the input when either is not finite.
    """
    if not math.isfinite(e_theta):
        require_finite("e_theta", e_theta)
    if not math.isfinite(e_d):
        require_finite("e_d", e_d)
    return rb.compiled(fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d))
