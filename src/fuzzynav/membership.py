"""Triangular fuzzy sets and linguistic variables.

A linguistic variable partitions a closed real interval (its universe) into
named overlapping fuzzy sets.  Only triangular membership functions are
supported, with shoulder variants at the universe edges so that every point
of the universe belongs to at least one set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TriangularMF",
    "Term",
    "LinguisticVariable",
    "mf_eval",
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


def mf_eval(mf: TriangularMF, x):
    """Membership degree of ``x`` in ``mf``; accepts a scalar or array.

    Total function: points outside the support map to 0, except that a
    shoulder holds membership at 1 beyond its flat side.
    """
    xs = np.asarray(x, dtype=float)
    up = 1.0 if mf.is_left_shoulder else (xs - mf.left) / (mf.peak - mf.left)
    down = 1.0 if mf.is_right_shoulder else (mf.right - xs) / (mf.right - mf.peak)
    deg = np.clip(np.minimum(up, down), 0.0, 1.0)
    if xs.ndim == 0:
        return float(deg)
    return deg


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
        for name in ("lo", "hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"variable '{self.name}': {name} must be finite, got {getattr(self, name)}")
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
            if start < reach or (start == -math.inf):
                reach = max(reach, end)
        if not reach > self.hi:
            raise ValueError(
                f"variable '{self.name}': terms do not cover the universe "
                f"(gap at or after x = {reach})"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    def term(self, label: str) -> Term:
        for t in self.terms:
            if t.label == label:
                return t
        raise ValueError(f"unknown label '{label}' for variable '{self.name}'")

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)


def _degree(mf: TriangularMF, x: float) -> float:
    """Scalar twin of ``mf_eval`` in plain floats: the same IEEE operations."""
    up = 1.0 if mf.is_left_shoulder else (x - mf.left) / (mf.peak - mf.left)
    down = 1.0 if mf.is_right_shoulder else (mf.right - x) / (mf.right - mf.peak)
    return min(max(min(up, down), 0.0), 1.0)


def fuzzify(var: LinguisticVariable, x: float) -> tuple[float, ...]:
    """Membership degree of ``x`` in every term of ``var``, in term order.

    ``x`` is clamped to the universe first, so out-of-range inputs land on
    the nearest boundary term instead of fuzzifying to all zeros.  Zeros
    are included, one degree per term; each equals ``mf_eval`` bit for bit.
    """
    xc = var.clamp(x)
    return tuple([_degree(t.mf, xc) for t in var.terms])


def uniform_variable(
    name: str,
    lo: float,
    hi: float,
    labels: tuple[str, ...] | list[str],
    peak_span: tuple[float, float] | None = None,
) -> LinguisticVariable:
    """Variable with uniformly spaced peaks and 50% overlap.

    Peaks sit at ``linspace`` over ``peak_span`` (the whole universe when
    omitted); each triangle's feet are the neighbouring peaks, and the two
    edge terms are shoulders, flat from their peak out to the universe
    edge.  Membership degrees of such a partition sum to 1 everywhere
    inside the universe, including any saturated zone outside the span.
    """
    if len(labels) < 2:
        raise ValueError("uniform partition needs at least two labels")
    span_lo, span_hi = peak_span if peak_span is not None else (lo, hi)
    if not (lo <= span_lo < span_hi <= hi):
        raise ValueError(f"peak span [{span_lo}, {span_hi}] must lie within the universe [{lo}, {hi}]")
    peaks = [float(p) for p in np.linspace(span_lo, span_hi, len(labels))]
    terms = []
    last = len(labels) - 1
    for i, label in enumerate(labels):
        left = peaks[i] if i == 0 else peaks[i - 1]
        right = peaks[i] if i == last else peaks[i + 1]
        terms.append(Term(label, TriangularMF(left, peaks[i], right)))
    return LinguisticVariable(name, float(lo), float(hi), tuple(terms))
