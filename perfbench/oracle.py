"""Brute-force Mamdani inference, independent of the package's engine.

Used outside the timed loop to check a subsample of ``infer`` results.  It
reads only the rule base's data (variables, terms, rules) and evaluates
triangles, min-AND, max aggregation and the centroid with its own code: a
midpoint rule on 100001 cells, the oracle ``tests/test_engine.py`` uses.
"""
from __future__ import annotations

import numpy as np

# Agreement required between infer and this oracle, as in tests/test_engine.py.
TOLERANCE = 1e-6
CELLS = 100001


def _degree(abc, x: float) -> float:
    a, b, c = abc
    if x <= b:
        d = 1.0 if a == b else (x - a) / (b - a)
    else:
        d = 1.0 if b == c else (c - x) / (c - b)
    return min(max(d, 0.0), 1.0)


def _abc(term):
    return term.mf.left, term.mf.peak, term.mf.right


def _centroid(var, strengths: dict[str, float]) -> float:
    h = (var.hi - var.lo) / CELLS
    xs = var.lo + (np.arange(CELLS) + 0.5) * h
    mu = np.zeros_like(xs)
    for term in var.terms:
        s = strengths.get(term.label, 0.0)
        if s <= 0.0:
            continue
        a, b, c = _abc(term)
        rise = np.ones_like(xs) if a == b else (xs - a) / (b - a)
        fall = np.ones_like(xs) if b == c else (c - xs) / (c - b)
        deg = np.clip(np.where(xs <= b, rise, fall), 0.0, 1.0)
        mu = np.maximum(mu, np.minimum(s, deg))
    return float((xs * mu).sum() / mu.sum())


def infer(rb, e_theta: float, e_d: float) -> tuple[float, float]:
    """(v_right, v_left) for crisp inputs, clamped to the input universes."""
    a_var, d_var = rb.angle_var, rb.distance_var
    x_a = min(max(e_theta, a_var.lo), a_var.hi)
    x_d = min(max(e_d, d_var.lo), d_var.hi)
    a_deg = {t.label: _degree(_abc(t), x_a) for t in a_var.terms}
    d_deg = {t.label: _degree(_abc(t), x_d) for t in d_var.terms}
    right: dict[str, float] = {}
    left: dict[str, float] = {}
    for angle, dist, r, l in rb.rules:
        s = min(a_deg[angle], d_deg[dist])
        right[r] = max(right.get(r, 0.0), s)
        left[l] = max(left.get(l, 0.0), s)
    return _centroid(rb.right_var, right), _centroid(rb.left_var, left)
