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
in pure Python.  The pieces come from an upper envelope: the fired clips
are inserted one at a time, strongest first, into the pieces built so
far, so the work follows the aggregate's pieces rather than the fired
terms on every interval between run ends, however deep the terms overlap.
The min-AND, the final clamp and each line's cap at its clip's strength
are conditional expressions making the comparisons of ``min`` and
``max``, so they equal the builtins, signed zeros included, without their
calls; the envelope evaluates its lines inline, with no call per value.
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
    step and, in listing order, one ``(first, stop, k, left, peak - left,
    right, right - peak)`` per term with a grid point inside its support.
    ``k`` is the term's index and ``[first, stop)`` the grid indices of its
    support, as ``bisect`` finds them: from the first point past ``left``
    (0 for a left shoulder) to the first point at or past ``right``
    (``_SAMPLES`` for a right shoulder).  A shoulder's flat side has width
    0.0.
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
    return _Output(lo, hi, step, tuple(terms))


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
    its foot at 0.0, as the sampled curve does.  Each fired clip is one
    flat tuple ``(s, first, up, down, stop, left, rise, right, -fall)``:
    it rises along ``(x - left) / rise`` over ``[first, up)``, holds ``s``
    over ``[up, down)`` and falls along ``(x - right) / -fall`` over
    ``[down, stop)``, each capped at ``s``.  ``_envelope_pieces`` cuts the
    aggregate into pieces, each a run of grid indices along one line, and
    each piece adds its sums of mu and i·mu from its two end values.

    The clamp to the universe makes the comparisons of ``min(max(c, lo),
    hi)``.
    """
    lo, hi, step, terms = out
    fired = []
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
            # (x - right) / -fall is (right - x) / fall bit for bit
            fired.append((s, first, up, down, stop, left, rise, right, -fall))
    if not fired:
        return 0.5 * (lo + hi), True
    pieces = _envelope_pieces(fired, lo, hi, step)

    # sums of mu and i·mu over the grid, each piece's from its end values and
    # the sums of i and i² over its indices
    total = moment = 0.0
    for i0, i1, _, _, _, y0, y1 in pieces:
        n = i1 - i0 + 1
        area = n * (y0 + y1) * 0.5
        total += area
        moment += i0 * area + y0 * (n * (n - 1) // 2) + (y1 - y0) * (n * (2 * n - 1) / 6)
    mu_first = pieces[0][5] if pieces[0][0] == 0 else 0.0
    mu_last = pieces[-1][6] if pieces[-1][1] == _LAST else 0.0
    # the trapezoid rule halves the two end points; x_i = lo + i * step
    total -= 0.5 * (mu_first + mu_last)
    if step * total < ZERO_AREA_TOL:
        return 0.5 * (lo + hi), True
    crisp = lo + step * (moment - 0.5 * _LAST * mu_last) / total
    crisp = lo if lo > crisp else crisp
    return hi if hi < crisp else crisp, False


def _envelope_pieces(fired, lo, hi, step) -> list[tuple]:
    """The max of the ``fired`` clips, left to right, as ``(first index,
    last index, c, w, s, mu at first, mu at last)`` per piece along one
    line, built as an upper envelope.  A piece's line is ``s`` where ``w``
    is 0.0 and ``(x - c) / w`` capped at ``s`` elsewhere, ``x`` being the
    grid point ``lo + i * step`` (``hi`` at the last index); ``fired`` is
    sorted in place.

    Each clip's rise, plateau and fall runs are inserted once into the
    pieces built so far, the strongest clip first; nothing assumes an order
    of the supports.  Clips of equal strength go in the order of their runs
    and lines, so which one owns a stretch where they tie, and with it the
    pieces' bits, does not depend on the order the terms are listed in.  A
    run and each piece it meets are one line each over their overlap, so
    the run wins a prefix, a suffix, all or none of it.
    The two lines' end values settle most overlaps; the rest are settled by
    the values at the overlap's two ends and, where those disagree, one
    interpolated crossing, checked at its two neighbouring grid points.
    Where no piece lies the aggregate is 0.0, so the run wins, and a run
    that wins nothing leaves the pieces as they are.  Every value of a
    line is evaluated inline, as ``(s if (y := (x - c) / w) > s else y)
    if w else s``.
    """
    # strongest first, so that most later runs lie below the pieces they
    # meet; ties go by the rest of the tuple, its runs and lines
    fired.sort(reverse=True)
    # the last piece is a sentinel past the grid, so no walk runs off the end
    env = [(_SAMPLES, _SAMPLES, 0.0, 0.0, 0.0, 0.0, 0.0)]
    for s, first, up, down, stop, left, rise, right, fall in fired:
        k = 0
        for a, b, c, w in ((first, up - 1, left, rise), (up, down - 1, 0.0, 0.0), (down, stop - 1, right, fall)):
            if a > b:
                continue
            while env[k][1] < a:
                k += 1
            if w:
                ya = ((hi if a == _LAST else a * step + lo) - c) / w
                ya = s if ya > s else ya
                yb = ((hi if b == _LAST else b * step + lo) - c) / w
                yb = s if yb > s else yb
                low, high = (ya, yb) if ya < yb else (yb, ya)
            else:
                ya = yb = low = high = s
            if env[k][0] > b:
                # nothing there yet
                env.insert(k, (a, b, c, w, s, ya, yb))
                continue
            new = None  # what replaces env[start:m], once the run changes anything
            run = -1  # the first index of the stretch the line holds, mu there run_y
            i = a
            m = k
            while env[m][0] <= b:
                piece = env[m]
                p0, p1, pc, pw, ps, y0, y1 = piece
                m += 1
                if i < p0:
                    # a gap, which the run wins
                    if new is None:
                        new, start = [], m - 1
                    if run < 0:
                        run = i
                        if i == a:
                            run_y = ya
                        else:
                            run_y = (s if (y := ((hi if i == _LAST else i * step + lo) - c) / w) > s else y) if w else s
                i = p1 + 1
                if high <= (y0 if y0 < y1 else y1):
                    # nowhere above the piece
                    if run >= 0:
                        x = hi if p0 - 1 == _LAST else (p0 - 1) * step + lo
                        new.append((run, p0 - 1, c, w, s, run_y, (s if (y := (x - c) / w) > s else y) if w else s))
                        run = -1
                    if new is not None:
                        new.append(piece)
                    continue
                o0 = a if a > p0 else p0
                o1 = b if b < p1 else p1
                if low > (y0 if y0 > y1 else y1):
                    # everywhere above it
                    d0 = d1 = 1.0
                else:
                    # the line less the piece at o0 and o1; o0 is a or p0
                    # and o1 is b or p1, so each side needs one line at most
                    if o0 == p0:
                        if o0 == a:
                            d0 = ya - y0
                        else:
                            x = hi if o0 == _LAST else o0 * step + lo
                            d0 = ((s if (y := (x - c) / w) > s else y) if w else s) - y0
                    else:
                        x = hi if o0 == _LAST else o0 * step + lo
                        d0 = ya - ((ps if (y := (x - pc) / pw) > ps else y) if pw else ps)
                    if o1 == p1:
                        if o1 == b:
                            d1 = yb - y1
                        else:
                            x = hi if o1 == _LAST else o1 * step + lo
                            d1 = ((s if (y := (x - c) / w) > s else y) if w else s) - y1
                    else:
                        x = hi if o1 == _LAST else o1 * step + lo
                        d1 = yb - ((ps if (y := (x - pc) / pw) > ps else y) if pw else ps)
                # where the run wins to the overlap's end and the piece goes
                # on past it, that end is b, so end is yb
                if d0 > 0.0 and d1 > 0.0:
                    w0, w1 = o0, o1
                    begin = before = after = None
                    end = yb
                elif d0 > 0.0 or d1 > 0.0:
                    # one crossing, interpolated: j is the first point past
                    # it, so j - 1 and j are its neighbouring grid points
                    j = o0 + 1 + int(d0 / (d0 - d1) * (o1 - o0))
                    x = hi if j == _LAST else j * step + lo
                    line_j = (s if (y := (x - c) / w) > s else y) if w else s
                    other_j = (ps if (y := (x - pc) / pw) > ps else y) if pw else ps
                    x = hi if j - 1 == _LAST else (j - 1) * step + lo
                    line_before = (s if (y := (x - c) / w) > s else y) if w else s
                    other_before = (ps if (y := (x - pc) / pw) > ps else y) if pw else ps
                    # the check: the line wins at j - 1 and not at j, or the reverse
                    if (line_before > other_before) != (d0 > 0.0):
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
                    if d0 > 0.0:
                        w0, w1 = o0, j - 1
                        begin = before = None
                        end, after = line_before, other_j
                    else:
                        w0, w1 = j, o1
                        begin, before = line_j, other_before
                        end, after = yb, None
                else:
                    if run >= 0:
                        x = hi if p0 - 1 == _LAST else (p0 - 1) * step + lo
                        new.append((run, p0 - 1, c, w, s, run_y, (s if (y := (x - c) / w) > s else y) if w else s))
                        run = -1
                    if new is not None:
                        new.append(piece)
                    continue
                if new is None:
                    new, start = [], m - 1
                if w0 > p0:
                    if run >= 0:
                        x = hi if p0 - 1 == _LAST else (p0 - 1) * step + lo
                        new.append((run, p0 - 1, c, w, s, run_y, (s if (y := (x - c) / w) > s else y) if w else s))
                        run = -1
                    if before is None:
                        x = hi if w0 - 1 == _LAST else (w0 - 1) * step + lo
                        before = (ps if (y := (x - pc) / pw) > ps else y) if pw else ps
                    new.append((p0, w0 - 1, pc, pw, ps, y0, before))
                if run < 0:
                    run = w0
                    if begin is not None:
                        run_y = begin
                    elif w0 == a:
                        run_y = ya
                    else:
                        x = hi if w0 == _LAST else w0 * step + lo
                        run_y = (s if (y := (x - c) / w) > s else y) if w else s
                if w1 < p1:
                    new.append((run, w1, c, w, s, run_y, end))
                    run = -1
                    if after is None:
                        x = hi if w1 + 1 == _LAST else (w1 + 1) * step + lo
                        after = (ps if (y := (x - pc) / pw) > ps else y) if pw else ps
                    new.append((w1 + 1, p1, pc, pw, ps, after, y1))
            if i <= b:
                # a gap to the run's end, which it wins
                if new is None:
                    new, start = [], m
                if run < 0:
                    run = i
                    if i == a:
                        run_y = ya
                    else:
                        run_y = (s if (y := ((hi if i == _LAST else i * step + lo) - c) / w) > s else y) if w else s
            if run >= 0:
                new.append((run, b, c, w, s, run_y, yb))
            if new is not None:
                env[start:m] = new
    del env[-1]
    return env


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
