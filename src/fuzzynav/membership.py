"""Triangular fuzzy sets and linguistic variables.

A linguistic variable partitions a closed real interval (its universe) into
named overlapping fuzzy sets.  Only triangular membership functions are
supported, with shoulder variants at the universe edges so that every point
of the universe belongs to at least one set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

__all__ = [
    "TriangularMF",
    "Term",
    "LinguisticVariable",
    "fuzzify",
    "uniform_variable",
]


@dataclass(frozen=True)
class TriangularMF:
    """Triangular membership function, optionally shoulder-shaped.

    A plain triangle rises from 0 at ``left`` to 1 at ``peak`` and falls
    back to 0 at ``right``.  Encoding ``left == peak`` gives a left
    shoulder and ``peak == right`` a right shoulder: membership is held at
    1 on the flat side, so boundary terms keep full membership out to the
    universe edge.
    """

    left: float
    peak: float
    right: float

    def __post_init__(self):
        for name in ("left", "peak", "right"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"triangle {name} must be finite, got {getattr(self, name)}")
        if not (self.left <= self.peak <= self.right):
            raise ValueError(
                f"triangle breakpoints must satisfy left <= peak <= right, "
                f"got ({self.left}, {self.peak}, {self.right})"
            )
        if not self.right > self.left:
            raise ValueError("triangle must have nonzero support")

    @property
    def is_left_shoulder(self) -> bool:
        return self.left == self.peak

    @property
    def is_right_shoulder(self) -> bool:
        return self.peak == self.right


def _check_finite_bounds(name: str, lo: float, hi: float):
    """Raise ValueError naming the variable and the bound that is not finite."""
    for field, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise ValueError(f"variable '{name}': {field} must be finite, got {value}")


class Term(NamedTuple):
    label: str
    mf: TriangularMF


@dataclass(frozen=True)
class LinguisticVariable:
    """A named universe [lo, hi] partitioned into labelled fuzzy terms.

    Construction validates the variable: its bounds must be finite, labels
    must be unique, every membership function must lie within the
    universe, and the terms must jointly cover the universe (every x has
    positive membership in at least one term).
    """

    name: str
    lo: float
    hi: float
    terms: tuple[Term, ...]

    def __post_init__(self):
        _check_finite_bounds(self.name, self.lo, self.hi)
        if not self.lo < self.hi:
            raise ValueError(f"variable '{self.name}': universe must satisfy lo < hi")
        if not self.terms:
            raise ValueError(f"variable '{self.name}': needs at least one term")
        labels = [t.label for t in self.terms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"variable '{self.name}': duplicate term labels")
        for t in self.terms:
            if t.mf.left < self.lo or t.mf.right > self.hi:
                raise ValueError(
                    f"variable '{self.name}': term '{t.label}' support "
                    f"[{t.mf.left}, {t.mf.right}] exceeds universe [{self.lo}, {self.hi}]"
                )
        self._check_coverage()

    def _check_coverage(self):
        # Membership is positive on the open interval (left, right), extended
        # to infinity past a shoulder's flat side.  Sweep the sorted spans and
        # require them to chain across [lo, hi] with strict overlap.
        spans = sorted(
            (
                -math.inf if t.mf.is_left_shoulder else t.mf.left,
                math.inf if t.mf.is_right_shoulder else t.mf.right,
            )
            for t in self.terms
        )
        reach = self.lo
        for start, end in spans:
            if start < reach:
                reach = max(reach, end)
        if not reach > self.hi:
            raise ValueError(
                f"variable '{self.name}': terms do not cover the universe "
                f"(gap at or after x = {reach})"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    def clamp(self, x: float) -> float:
        """``x`` clamped to ``[lo, hi]``, equal to ``min(max(x, lo), hi)``
        bit for bit."""
        lo, hi = self.lo, self.hi
        x = lo if lo > x else x
        return hi if hi < x else x

    @cached_property
    def _table(self) -> tuple[tuple[float, float, float, float, bool, bool], ...]:
        """Per term, in term order: (left, peak - left, right, right - peak,
        left shoulder, right shoulder), built on first use."""
        return tuple(
            (t.mf.left, t.mf.peak - t.mf.left, t.mf.right, t.mf.right - t.mf.peak,
             t.mf.is_left_shoulder, t.mf.is_right_shoulder)
            for t in self.terms
        )


def fuzzify(var: LinguisticVariable, x: float) -> tuple[float, ...]:
    """Membership degree of ``x`` in every term of ``var``, in term order.

    ``x`` is clamped to the universe first, so out-of-range inputs land on
    the nearest boundary term instead of fuzzifying to all zeros.  Zeros
    are included, one degree per term.  Each degree is the min of the
    term's rising and falling lines (1.0 on a shoulder's flat side),
    clamped to [0, 1], evaluated from a per-term table of plain floats that
    the variable builds once.  The clamps and the min of the two slopes are
    conditional expressions that make the comparisons of ``min`` and
    ``max``: ``b if b < a else a`` is ``min(a, b)`` and ``b if b > a else
    a`` is ``max(a, b)``, signed zeros included, without a builtin call per
    term.

    Raises ValueError naming the value when ``x`` is not finite.
    """
    if not math.isfinite(x):
        raise ValueError(f"variable '{var.name}': x must be finite, got {x}")
    xc = var.clamp(x)
    degrees = []
    for left, rise, right, fall, left_shoulder, right_shoulder in var._table:
        up = 1.0 if left_shoulder else (xc - left) / rise
        down = 1.0 if right_shoulder else (right - xc) / fall
        deg = down if down < up else up
        deg = 0.0 if 0.0 > deg else deg
        degrees.append(1.0 if 1.0 < deg else deg)
    return tuple(degrees)


def uniform_variable(
    name: str,
    lo: float,
    hi: float,
    labels: tuple[str, ...] | list[str],
    peak_span: tuple[float, float] | None = None,
) -> LinguisticVariable:
    """Variable with uniformly spaced peaks and 50% overlap.

    Peaks are evenly spaced over ``peak_span`` (the whole universe when
    omitted), with ``np.linspace``'s formula: start + i * step, and the
    span's end as the last peak.  Each triangle's feet are the neighbouring
    peaks, and the two edge terms are shoulders, flat from their peak out
    to the universe edge.  Membership degrees of such a partition sum to 1
    everywhere inside the universe, including any saturated zone outside
    the span.

    Raises ValueError naming the bound when ``lo`` or ``hi`` is not finite.
    """
    _check_finite_bounds(name, lo, hi)
    if len(labels) < 2:
        raise ValueError("uniform partition needs at least two labels")
    span_lo, span_hi = peak_span if peak_span is not None else (lo, hi)
    if not (lo <= span_lo < span_hi <= hi):
        raise ValueError(f"peak span [{span_lo}, {span_hi}] must lie within the universe [{lo}, {hi}]")
    a, b = float(span_lo), float(span_hi)
    last = len(labels) - 1
    step = (b - a) / last
    peaks = [a + i * step for i in range(last)] + [b]
    terms = []
    for i, label in enumerate(labels):
        left = peaks[i] if i == 0 else peaks[i - 1]
        right = peaks[i] if i == last else peaks[i + 1]
        terms.append(Term(label, TriangularMF(left, peaks[i], right)))
    return LinguisticVariable(name, float(lo), float(hi), tuple(terms))
