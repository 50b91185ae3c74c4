"""Two-input, two-output Mamdani inference.

Pipeline: fuzzify both inputs, fire every rule with min-AND, give each
output term the max strength of the rules naming it, clip the terms at
those strengths, aggregate with max, and defuzzify by centroid (trapezoid
rule on a fixed 8001-point grid).  A rule base is compiled on its first
inference into term indices and output terms sampled on that grid.  All
values are immutable and every function is pure, so a rule base can be
shared freely across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

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


class CompiledRuleBase(NamedTuple):
    """A rule base resolved for inference: per rule, in rule order, its
    (angle, distance, right, left) term indices; both output universes sampled.
    """

    angle_var: LinguisticVariable
    distance_var: LinguisticVariable
    rules: tuple[tuple[int, int, int, int], ...]
    right: _Sampled
    left: _Sampled

    @classmethod
    def of(cls, angle_var: LinguisticVariable, distance_var: LinguisticVariable,
           right_var: LinguisticVariable, left_var: LinguisticVariable, rules) -> CompiledRuleBase:
        """Compile from the four variables and each rule's resolved term indices."""
        return cls(angle_var, distance_var, rules, _sampled(right_var), _sampled(left_var))

    def fire(self, e_theta: float, e_d: float) -> tuple[float, ...]:
        """Min-AND strength of every rule, in rule order."""
        angle = fuzzify(self.angle_var, e_theta)
        dist = fuzzify(self.distance_var, e_d)
        return tuple([min(angle[a], dist[d]) for a, d, _, _ in self.rules])

    def term_strengths(self, strengths) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(right, left) per-term strengths: the max over the rules naming each term."""
        right = [0.0] * len(self.right.curves)
        left = [0.0] * len(self.left.curves)
        for s, (_, _, r, l) in zip(strengths, self.rules):
            right[r] = max(right[r], s)
            left[l] = max(left[l], s)
        return tuple(right), tuple(left)


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
    right, left = compiled.term_strengths(compiled.fire(e_theta, e_d))
    r, l = _centroid(compiled.right, right), _centroid(compiled.left, left)
    return InferenceResult(r.value, l.value, r.zero_area, l.zero_area)
