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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .membership import LinguisticVariable, fuzzify, mf_eval

if TYPE_CHECKING:
    from .rulebase import RuleBase

__all__ = [
    "AggregatedOutput",
    "CompiledRuleBase",
    "DefuzzResult",
    "InferenceResult",
    "fire_rules",
    "defuzz_centroid",
    "infer",
    "ZERO_AREA_TOL",
]

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


class DefuzzResult(NamedTuple):
    """Crisp value plus a flag set when the aggregated area was ~zero."""

    value: float
    zero_area: bool


class InferenceResult(NamedTuple):
    """Crisp wheel velocities with per-output zero-area flags."""

    v_right: float
    v_left: float
    right_zero_area: bool
    left_zero_area: bool


@dataclass(frozen=True)
class AggregatedOutput:
    """Max-of-clipped-sets membership curve over an output universe.

    ``strengths`` is aligned with ``var.terms``; unfired terms carry 0.
    The curve is mu(x) = max over terms of min(strength, term membership).
    """

    var: LinguisticVariable
    strengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.strengths) != len(self.var.terms):
            raise ValueError(
                f"strengths has {len(self.strengths)} values for the "
                f"{len(self.var.terms)} terms of variable '{self.var.name}'"
            )
        for s in self.strengths:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"strengths must be finite and in [0, 1], got {s}")

    def mu(self, x):
        """Evaluate the aggregated membership curve at ``x`` (scalar or array)."""
        xs = np.asarray(x, dtype=float)
        out = np.zeros_like(xs)
        for strength, term in zip(self.strengths, self.var.terms):
            if strength > 0.0:
                np.maximum(out, np.minimum(strength, mf_eval(term.mf, xs)), out=out)
        if xs.ndim == 0:
            return float(out)
        return out


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


def _sampled(var: LinguisticVariable) -> _Sampled:
    """Sampled terms of ``var``, keyed by geometry so equal variables share them."""
    return _sample(var.lo, var.hi, tuple(t.mf for t in var.terms))


def _centroid(sampled: _Sampled, strengths) -> DefuzzResult:
    """Centroid of the terms clipped at ``strengths``, clamped to the universe.

    Below ``ZERO_AREA_TOL`` of area (nothing fired) the universe midpoint
    is returned with the ``zero_area`` flag set, so the caller stays total.
    """
    lo, hi, xs, curves = sampled
    clips = np.asarray(strengths, dtype=float)
    mu = np.max(np.minimum(curves, clips[:, None]), axis=0)
    h = (hi - lo) / (_SAMPLES - 1)
    area = h * (mu.sum() - 0.5 * (mu[0] + mu[-1]))
    if area < ZERO_AREA_TOL:
        return DefuzzResult(0.5 * (lo + hi), True)
    xmu = xs * mu
    moment = h * (xmu.sum() - 0.5 * (xmu[0] + xmu[-1]))
    return DefuzzResult(float(min(max(moment / area, lo), hi)), False)


def _term_strengths(cells, n_right: int, n_left: int, angle, dist) -> tuple[tuple[float, ...], tuple[float, ...]]:
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

    ``rules`` holds, per rule in rule order, its (angle, distance, right,
    left) term indices; ``cells[a][d]`` the (right, left) consequents of the
    rules on cell (a, d), in rule order (none for a cell the grid leaves
    out); ``right`` and ``left`` the sampled output universes.
    ``outputs(angle, dist)`` is the crisp ``InferenceResult`` for the two
    inputs' degrees, memoised on them.
    """

    angle_var: LinguisticVariable
    distance_var: LinguisticVariable
    rules: tuple[tuple[int, int, int, int], ...]
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
        right, left = _sampled(right_var), _sampled(left_var)
        n_right, n_left = len(right_var.terms), len(left_var.terms)

        # Keys compare by value, so degrees 0.0 and -0.0 share an entry: both
        # leave their cells unfired, so the result is the same.  The memo
        # holds the tables, not the compiled base, so no reference cycle
        # keeps a dropped base's sampled outputs alive.
        @lru_cache(maxsize=_MEMO_SIZE)
        def outputs(angle, dist) -> InferenceResult:
            rs, ls = _term_strengths(cells, n_right, n_left, angle, dist)
            r, l = _centroid(right, rs), _centroid(left, ls)
            return InferenceResult(r.value, l.value, r.zero_area, l.zero_area)

        return cls(angle_var, distance_var, rules, cells, right, left, outputs)

    def fire(self, e_theta: float, e_d: float) -> tuple[float, ...]:
        """Min-AND strength of every rule, in rule order."""
        angle = fuzzify(self.angle_var, e_theta)
        dist = fuzzify(self.distance_var, e_d)
        return tuple([min(angle[a], dist[d]) for a, d, _, _ in self.rules])

    def term_strengths(self, angle, dist) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(right, left) per-term strengths from the two inputs' degrees: for
        each output term, the max min-AND strength of the rules naming it.

        Only cells whose two degrees are both > 0.0 fire.  Any other cell's
        strength is 0.0 or -0.0, which cannot raise a max that starts at 0.0,
        so the result equals firing every rule, bit for bit.
        """
        return _term_strengths(self.cells, len(self.right.curves), len(self.left.curves), angle, dist)


def fire_rules(rb: RuleBase, e_theta: float, e_d: float) -> tuple[float, ...]:
    """Min-AND strength of every rule of ``rb``, in rule order, zeros included."""
    return rb.compiled.fire(e_theta, e_d)


def defuzz_centroid(agg: AggregatedOutput) -> DefuzzResult:
    """Centroid of the aggregated curve by the module's trapezoidal quadrature."""
    return _centroid(_sampled(agg.var), agg.strengths)


def infer(rb: RuleBase, e_theta: float, e_d: float) -> InferenceResult:
    """Full Mamdani step: crisp (angle error, distance error) -> wheel velocities.

    Raises ValueError naming the input when either is not finite.
    """
    for name, value in (("e_theta", e_theta), ("e_d", e_d)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    compiled = rb.compiled
    return compiled.outputs(fuzzify(compiled.angle_var, e_theta), fuzzify(compiled.distance_var, e_d))
