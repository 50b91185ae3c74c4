import hashlib
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from fuzzynav import (
    InferenceResult,
    LinguisticVariable,
    Rule,
    RuleBase,
    Term,
    TriangularMF,
    builtin,
    fuzzify,
    infer,
    parse_rulebase,
    render_rulebase,
    uniform_variable,
)
from fuzzynav import engine


def tri_vec(mf, xs):
    """Degrees of the triangle ``mf`` on ``xs``: own formula, branching at
    the peak instead of min-of-lines, no package code."""
    a, b, c = mf.left, mf.peak, mf.right
    rise = np.ones_like(xs) if a == b else (xs - a) / (b - a)
    fall = np.ones_like(xs) if b == c else (c - xs) / (c - b)
    return np.clip(np.where(xs <= b, rise, fall), 0.0, 1.0)


def brute_mu_vec(clips, xs):
    """Independent max-of-clipped evaluation of (triangle, strength) clips."""
    best = np.zeros_like(xs)
    for mf, s in clips:
        best = np.maximum(best, np.minimum(s, tri_vec(mf, xs)))
    return best


def brute_centroid(clips, lo, hi, n=100001):
    """Midpoint rectangle-rule centroid on n cells, independent of the package."""
    h = (hi - lo) / n
    xs = lo + (np.arange(n) + 0.5) * h
    mu = brute_mu_vec(clips, xs)
    return float((xs * mu).sum() / mu.sum())


def aggregate(var, fired):
    """Defuzzify (label, strength) consequents of ``var`` through the memo ``infer`` calls.

    One rule per consequent on distance term Z, each on its own angle term
    whose degree is the given strength; Z is at degree 1 and the other
    distance terms at 0, so the grid's other rules (the first term of
    ``var`` as filler) never fire.
    Returns the crisp ``(value, zero_area)`` of ``rb.compiled`` and
    the clips an independent integrator needs: (triangle, strength) per
    fired term, duplicates combined by max.
    """
    n = max(len(fired), 2)
    angle = uniform_variable("angle", 0.0, 1.0, tuple(f"A{i}" for i in range(n)))
    distance = builtin(3).distance_var
    labels = [label for label, _ in fired] + [var.labels[0]] * (n - len(fired))
    rules = []
    for i, label in enumerate(labels):
        for d in distance.labels:
            out = label if d == "Z" else var.labels[0]
            rules.append(Rule(f"A{i}", d, out, out))
    rb = RuleBase(angle, distance, var, var, tuple(rules))
    degrees = tuple(s for _, s in fired) + (0.0,) * (n - len(fired))
    res = rb.compiled(degrees, fuzzify(distance, 0.0))
    strengths = {}
    for label, s in fired:
        strengths[label] = max(s, strengths.get(label, 0.0))
    shapes = dict(var.terms)
    clips = [(shapes[label], s) for label, s in strengths.items() if s > 0]
    return (res.v_right, res.right_zero_area), clips


def per_term_strengths(rb, e_theta, e_d):
    """{label: strength} per output term, (right, left), from the engine's sparse firing."""
    angle, dist = fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d)
    right, left = engine._term_strengths(rb._cells, len(rb.right_var.terms), len(rb.left_var.terms), angle, dist)
    return dict(zip(rb.right_var.labels, right)), dict(zip(rb.left_var.labels, left))


def compiled(var):
    """``var`` as the engine compiles it for the centroid."""
    return engine._output(var)


class TestFireRules:
    """Per-term strengths: min-AND per cell, max per output term."""

    def test_on_peaks_single_rule(self):
        # inputs exactly on the peaks of angle N and distance F: only rule
        # (N, F) -> right M, left F fires, at strength 1
        rb = builtin(3, d_max=24.41)
        e_theta = dict(rb.angle_var.terms)["N"].peak
        e_d = dict(rb.distance_var.terms)["F"].peak
        right, left = per_term_strengths(rb, e_theta, e_d)
        assert right == {"S": 0.0, "M": 1.0, "F": 0.0}
        assert left == {"S": 0.0, "M": 0.0, "F": 1.0}

    def test_crossover_two_rules_at_half(self):
        rb = builtin(3, d_max=24.41)
        # halfway between Z and P angle peaks, distance exactly on F's peak:
        # (Z, F) -> (F, F) and (P, F) -> (F, M), both at 0.5
        angle = dict(rb.angle_var.terms)
        e_theta = 0.5 * (angle["Z"].peak + angle["P"].peak)
        e_d = dict(rb.distance_var.terms)["F"].peak
        right, left = per_term_strengths(rb, e_theta, e_d)
        assert right == {"S": 0.0, "M": 0.0, "F": 0.5}
        assert left == {"S": 0.0, "M": 0.5, "F": 0.5}

    def test_strength_is_min_of_degrees(self):
        # angle degree 0.3 on P alone, distance degree 0.7 on F alone: only
        # rule (P, F) -> right F, left M fires, at min(0.3, 0.7)
        cells = builtin(3, d_max=10.0)._cells
        angle, dist = (0.0, 0.0, 0.3), (0.0, 0.0, 0.7)  # terms N Z P; Z M F
        assert engine._term_strengths(cells, 3, 3, angle, dist) == ((0.0, 0.0, 0.3), (0.0, 0.3, 0.0))


def velocity_var():
    return uniform_variable("right", 0.0, 2.0, ("S", "M", "F"))


class TestAggregate:
    def test_unknown_label_rejected_by_name(self):
        with pytest.raises(ValueError, match="XX"):
            aggregate(velocity_var(), [("XX", 0.5)])

    def test_duplicate_labels_combine_by_max(self):
        var = velocity_var()
        combined, _ = aggregate(var, [("S", 0.3), ("S", 0.8), ("F", 0.5)])
        assert combined == aggregate(var, [("S", 0.8), ("F", 0.5)])[0]
        assert combined != aggregate(var, [("S", 0.3), ("F", 0.5)])[0]


class TestDefuzzCentroid:
    def test_symmetric_triangle_gives_apex(self):
        # (0.5, 1.0, 1.5) is symmetric and grid-aligned: centroid == apex
        var = LinguisticVariable("v", 0.0, 2.0, (
            Term("mid", TriangularMF(0.5, 1.0, 1.5)),
            Term("lo", TriangularMF(0.0, 0.0, 1.0)),
            Term("hi", TriangularMF(1.0, 2.0, 2.0)),
        ))
        (value, zero_area), _ = aggregate(var, [("mid", 1.0)])
        assert not zero_area
        assert abs(value - 1.0) <= 1e-9

    def test_two_equal_triangles_give_midpoint_of_apexes(self):
        var = LinguisticVariable("v", 0.0, 2.0, (
            Term("a", TriangularMF(0.0, 0.25, 0.5)),
            Term("b", TriangularMF(1.5, 1.75, 2.0)),
            Term("cover_lo", TriangularMF(0.0, 0.0, 1.6)),
            Term("cover_hi", TriangularMF(0.4, 2.0, 2.0)),
        ))
        (value, zero_area), _ = aggregate(var, [("a", 0.6), ("b", 0.6)])
        assert not zero_area
        assert abs(value - 0.5 * (0.25 + 1.75)) <= 1e-9

    def test_random_curves_match_independent_integrator(self):
        # 100 random aggregations vs a 100001-cell midpoint rectangle rule
        rng = np.random.default_rng(99)
        worst = 0.0
        for i in range(100):
            n = (3, 5, 7)[i % 3]
            var = builtin(n, d_max=24.41).right_var
            k = rng.integers(1, len(var.labels) + 1)
            labels = rng.choice(var.labels, size=k, replace=False)
            fired = [(str(lab), float(rng.uniform(0.05, 1.0))) for lab in labels]
            (value, zero_area), clips = aggregate(var, fired)
            assert not zero_area
            expected = brute_centroid(clips, var.lo, var.hi)
            worst = max(worst, abs(value - expected))
        assert worst <= 1e-6, f"worst centroid error {worst:.3e}"

    def test_zero_area_flags_and_returns_midpoint(self):
        (value, zero_area), _ = aggregate(velocity_var(), [])
        assert zero_area
        assert value == 1.0  # universe midpoint of [0, 2]

    def test_result_stays_inside_universe(self):
        rng = np.random.default_rng(17)
        var = velocity_var()
        for _ in range(100):
            fired = [("S", rng.uniform(0, 1)), ("F", rng.uniform(0, 1))]
            (value, _), _ = aggregate(var, fired)
            assert 0.0 <= value <= 2.0

    def test_clip_scaling_leaves_symmetric_centroid_fixed(self):
        # clipping a symmetric triangle at any level keeps it symmetric about
        # the apex, so the centroid must not move with the firing strength
        var = LinguisticVariable("v", 0.0, 2.0, (
            Term("mid", TriangularMF(0.5, 1.0, 1.5)),
            Term("lo", TriangularMF(0.0, 0.0, 1.0)),
            Term("hi", TriangularMF(1.0, 2.0, 2.0)),
        ))
        rng = np.random.default_rng(23)
        for c in rng.uniform(0.01, 1.0, 25):
            (value, _), _ = aggregate(var, [("mid", float(c))])
            assert abs(value - 1.0) <= 1e-9


class TestInfer:
    def test_compiled_once_and_outputs_share_one_compiled_form(self, monkeypatch):
        rb = builtin(7, d_max=24.41)
        assert rb.compiled is rb.compiled
        # right and left have the same term geometry, so one compiled output
        # serves both: a miss whose two strength tuples differ defuzzifies
        # twice, on the same object
        outs = []

        def recording(out, strengths, _centroid=engine._centroid):
            outs.append(out)
            return _centroid(out, strengths)

        monkeypatch.setattr(engine, "_centroid", recording)
        res = infer(rb, 0.3, 12.0)
        assert res.v_right != res.v_left
        assert len(outs) == 2 and outs[0] is outs[1]
        assert outs[0] == compiled(rb.right_var) == compiled(rb.left_var)

    def test_rule_z_z_gives_slow_centroid_on_both(self):
        # on the (Z, Z) peaks both motors defuzzify the S shoulder; its exact
        # centroid over [0, 1] with mu = 1 - x is 1/3 (quadrature-accurate:
        # the moment integrand is quadratic, so expect ~1e-8, not exactness)
        rb = builtin(3, d_max=24.41, v_max=2.0)
        res = infer(rb, 0.0, 0.0)
        assert math.isclose(res.v_right, 1.0 / 3.0, abs_tol=1e-6)
        assert math.isclose(res.v_left, 1.0 / 3.0, abs_tol=1e-6)
        assert res.v_right == res.v_left

    def test_rule_p_f_turns_toward_positive_angle(self):
        # (P, F) peaks: right motor gets the F shoulder (centroid 5/3), left
        # the symmetric M triangle (centroid exactly 1)
        rb = builtin(3, d_max=24.41, v_max=2.0)
        res = infer(rb, dict(rb.angle_var.terms)["P"].peak, 24.41)
        assert math.isclose(res.v_right, 5.0 / 3.0, abs_tol=1e-6)
        assert math.isclose(res.v_left, 1.0, abs_tol=1e-9)
        assert res.v_right > res.v_left

    def test_outputs_always_inside_velocity_universe(self):
        rng = np.random.default_rng(31)
        for n in (3, 5, 7):
            rb = builtin(n, d_max=24.41, v_max=2.0)
            for _ in range(100):
                res = infer(rb, rng.uniform(-6, 6), rng.uniform(-2, 40))
                assert 0.0 <= res.v_right <= 2.0
                assert 0.0 <= res.v_left <= 2.0
                assert not res.right_zero_area and not res.left_zero_area

    def test_continuity_smoke(self):
        # perturb inputs by delta and bound the output rate of change; a
        # discontinuity would blow the ratio up to ~1/delta
        rng = np.random.default_rng(37)
        rb = builtin(3, d_max=24.41)
        delta = 1e-6
        K = 0.0
        for _ in range(1000):
            e_theta = rng.uniform(-math.pi * 0.999, math.pi * 0.999)
            e_d = rng.uniform(delta, 24.41 - delta)
            a = infer(rb, e_theta, e_d)
            b = infer(rb, e_theta + delta, e_d + delta)
            change = max(abs(a.v_right - b.v_right), abs(a.v_left - b.v_left))
            K = max(K, change / delta)
        print(f"estimated output Lipschitz bound K ~ {K:.2f}")
        assert K < 1e4


def dense_reference(rb, e_theta, e_d):
    """Every rule fires (min-AND of its two degrees), each output term takes
    the max in rule order, then the engine's centroid: ((right, left)
    per-term strengths, InferenceResult)."""
    angle, dist = fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d)
    right = [0.0] * len(rb.right_var.terms)
    left = [0.0] * len(rb.left_var.terms)
    variables = (rb.angle_var, rb.distance_var, rb.right_var, rb.left_var)
    for rule in rb.rules:
        a, d, r, l = (var.labels.index(label) for var, label in zip(variables, rule))
        s = min(angle[a], dist[d])
        right[r] = max(right[r], s)
        left[l] = max(left[l], s)
    v_right, right_zero = engine._centroid(compiled(rb.right_var), right)
    v_left, left_zero = engine._centroid(compiled(rb.left_var), left)
    return (tuple(right), tuple(left)), InferenceResult(v_right, v_left, right_zero, left_zero)


def dense_rules_text(seed=3):
    """A complete rules file whose triangles reach two neighbouring peaks on
    each side, so up to four degrees per input are non-zero."""
    rng = np.random.default_rng(seed)
    universes = {"angle": (-3.0, 3.0, 7), "distance": (0.0, 8.0, 5), "right": (0.0, 2.0, 5), "left": (0.0, 2.0, 5)}
    lines = [f"var {role} range {lo} {hi}" for role, (lo, hi, _) in universes.items()]
    for role, (lo, hi, n) in universes.items():
        step = (hi - lo) / (n - 1)
        for i in range(n):
            peak = lo + i * step
            left = peak if i == 0 else max(lo, peak - 2 * step)
            right = peak if i == n - 1 else min(hi, peak + 2 * step)
            lines.append(f"term {role} T{i} tri {left!r} {peak!r} {right!r}")
    for a in range(7):
        for d in range(5):
            r, l = rng.integers(0, 5, size=2)
            lines.append(f"rule if angle is T{a} and distance is T{d} then right is T{r}, left is T{l}")
    return "\n".join(lines) + "\n"


def sparse_cases():
    """The built-ins and the dense rules file."""
    rbs = {f"builtin({n})": builtin(n, d_max=24.41) for n in (3, 5, 7)}
    rbs["dense file"] = parse_rulebase(dense_rules_text())
    return rbs


def hexed(values):
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


class TestSparseFiring:
    @pytest.mark.parametrize("name", sorted(sparse_cases()))
    def test_infer_is_hex_equal_to_firing_every_rule(self, name):
        rb = sparse_cases()[name]
        rng = np.random.default_rng(61)
        a_lo, a_hi = rb.angle_var.lo, rb.angle_var.hi
        d_hi = rb.distance_var.hi
        points = [(rng.uniform(1.2 * a_lo, 1.2 * a_hi), rng.uniform(-0.1 * d_hi, 1.2 * d_hi)) for _ in range(400)]
        # the clamped and plateau corners, and every pair of breakpoints
        edges = (a_lo, -math.pi / 6, 0.0, math.pi / 6, a_hi, 2.0 * a_hi)
        points += [(t, d) for t in edges for d in (0.0, d_hi, 2.0 * d_hi)]
        for at in rb.angle_var.terms:
            for dt in rb.distance_var.terms:
                points += [(x, y) for x in (at.mf.left, at.mf.peak, at.mf.right)
                           for y in (dt.mf.left, dt.mf.peak, dt.mf.right)]
        flagged = 0
        for e_theta, e_d in points:
            strengths, want = dense_reference(rb, e_theta, e_d)
            got = tuple(tuple(per_term.values()) for per_term in per_term_strengths(rb, e_theta, e_d))
            assert [hexed(s) for s in got] == [hexed(s) for s in strengths], (e_theta, e_d)
            assert all(0.0 <= s <= 1.0 for s in got[0] + got[1])
            assert max(got[0]) > 0.0, (e_theta, e_d)
            assert hexed(infer(rb, e_theta, e_d)) == hexed(want), (e_theta, e_d)
            flagged += want.right_zero_area
        assert flagged == 0

    def test_dense_file_has_more_than_two_degrees_per_input(self):
        rb = parse_rulebase(dense_rules_text())
        assert sum(d > 0 for d in fuzzify(rb.angle_var, 0.5)) == 4
        assert sum(d > 0 for d in fuzzify(rb.distance_var, 3.0)) == 4

    def test_repeated_degree_pair_reuses_the_result(self):
        rb = builtin(3, d_max=24.41)
        memo = rb.compiled
        # past the outermost angle peak and beyond d_max: the same degrees
        first = infer(rb, 3.0, 30.0)
        hits = memo.cache_info().hits
        assert infer(rb, 2.5, 1e6) == first
        assert memo.cache_info().hits == hits + 1
        for e_theta in np.linspace(-0.5, 0.5, 3 * engine._MEMO_SIZE):
            infer(rb, float(e_theta), 12.0)
        info = memo.cache_info()
        assert info.maxsize == engine._MEMO_SIZE
        assert info.currsize == engine._MEMO_SIZE

    def test_infer_fuzzifies_through_the_module_binding(self, monkeypatch):
        # a trace that wraps engine.fuzzify sees both inputs of every call,
        # memo hits included
        calls = []

        def counting(var, x):
            calls.append(var.name)
            return fuzzify(var, x)

        monkeypatch.setattr(engine, "fuzzify", counting)
        rb = builtin(5)
        infer(rb, 3.0, 30.0)
        infer(rb, 3.0, 30.0)
        assert calls == ["angle", "distance"] * 2

    def test_memo_miss_fires_and_defuzzifies_through_the_module_bindings(self, monkeypatch):
        # a trace that wraps engine._term_strengths and engine._centroid sees
        # every memo miss (one firing, one centroid per distinct output) and
        # no hit
        calls = []
        for name in ("_term_strengths", "_centroid"):
            def counting(*args, _name=name, _fn=getattr(engine, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(engine, name, counting)
        rb = builtin(5)
        infer(rb, 3.0, 30.0)
        infer(rb, 3.0, 30.0)
        assert calls == ["_term_strengths", "_centroid", "_centroid"]


def mirrored_cases():
    """(rule base, angle degrees, distance degrees) whose right and left
    strengths are equal: straight ahead on a built-in, all-zero angle
    degrees on builtin(3), so nothing fires and both outputs are flagged
    (``fuzzify`` never returns them on a covered universe, so they go to
    the memo directly), and straight ahead on builtin(3) with a wider left
    range (two compiled outputs)."""
    def ahead(rb):
        return rb, fuzzify(rb.angle_var, 0.0), fuzzify(rb.distance_var, 10.0)

    b3 = builtin(3, d_max=24.41)
    wide_left = render_rulebase(builtin(3)).replace("var left range 0.0 2.0", "var left range 0.0 3.0")
    return {
        "builtin(5) straight ahead": ahead(builtin(5, d_max=24.41)),
        "nothing fired": (b3, (0.0, 0.0, 0.0), fuzzify(b3.distance_var, 10.0)),
        "left range wider than right": ahead(parse_rulebase(wide_left)),
    }


class TestMirroredOutputs:
    @pytest.mark.parametrize("name", sorted(mirrored_cases()))
    def test_equal_strengths_defuzzify_once_per_compiled_output(self, name, monkeypatch):
        rb, angle, dist = mirrored_cases()[name]
        shared = name != "left range wider than right"
        assert (compiled(rb.left_var) == compiled(rb.right_var)) == shared
        rs, ls = engine._term_strengths(rb._cells, len(rb.right_var.terms), len(rb.left_var.terms), angle, dist)
        assert rs == ls
        right, left = engine._centroid(compiled(rb.right_var), rs), engine._centroid(compiled(rb.left_var), ls)
        calls = []

        def counting(*args, _centroid=engine._centroid):
            calls.append(args)
            return _centroid(*args)

        monkeypatch.setattr(engine, "_centroid", counting)
        got = rb.compiled(angle, dist)
        assert len(calls) == (1 if shared else 2)
        assert hexed(got) == hexed((right[0], left[0], right[1], left[1]))
        assert got.right_zero_area == (name == "nothing fired")
        assert (got.v_left == got.v_right) == shared


def full_grid_centroid(var, strengths):
    """The centroid with every term of ``var`` sampled and clipped over all
    8001 points of ``np.linspace(lo, hi, 8001)`` and summed by the trapezoid
    rule, each sum correctly rounded (``math.fsum``): the quadrature
    ``engine._centroid`` sums in closed form.  A side too narrow to divide
    by overflows to an infinite slope, which the clip takes to 0.0 or 1.0,
    as ``fuzzify``'s float division does."""
    lo, hi = var.lo, var.hi
    xs = np.linspace(lo, hi, 8001)
    with np.errstate(over="ignore"):
        curves = np.vstack([tri_vec(t.mf, xs) for t in var.terms])
    clips = np.asarray(strengths, dtype=float)
    mu = np.max(np.minimum(curves, clips[:, None]), axis=0)
    h = (hi - lo) / 8000
    area = h * (math.fsum(mu.tolist()) - 0.5 * (mu[0] + mu[-1]))
    if area < engine.ZERO_AREA_TOL:
        return 0.5 * (lo + hi), True
    xmu = xs * mu
    moment = h * (math.fsum(xmu.tolist()) - 0.5 * (xmu[0] + xmu[-1]))
    return float(min(max(moment / area, lo), hi)), False


def output_vars():
    """The output variables of the built-ins at two d_max / v_max and of the
    dense rules file, by name (right and left share one geometry in each)."""
    outputs = {}
    for n in (3, 5, 7):
        for d_max, v_max in ((24.41, 2.0), (3.0, 1.0)):
            outputs[f"builtin({n}) v_max={v_max}"] = builtin(n, d_max=d_max, v_max=v_max).right_var
    outputs["dense file"] = parse_rulebase(dense_rules_text()).right_var
    outputs.update(deep_vars())
    return outputs


def deep_vars():
    """Outputs with some grid point inside three or more supports, whose
    terms break peak order, by name: a tall narrow term inside a wide
    term's plateau; supports whose right feet come in another order than
    their left feet, listed out of peak order; and a side narrower than a
    grid step, one that overflows to an infinite slope and a term between
    two grid points (step 2.5e-4)."""
    def var(*terms):
        return LinguisticVariable("v", 0.0, 2.0, tuple(Term(label, TriangularMF(*abc)) for label, abc in terms))

    return {
        "deep nested": var(("lo", (0.0, 0.0, 1.4)), ("wide", (0.2, 1.0, 1.8)), ("tall", (0.95, 1.0, 1.05)),
                           ("hi", (0.6, 2.0, 2.0))),
        "deep crossed feet": var(("c", (0.3, 1.2, 1.5)), ("a", (0.1, 0.5, 1.9)), ("hi", (1.0, 2.0, 2.0)),
                                 ("b", (0.2, 0.4, 0.9)), ("lo", (0.0, 0.0, 1.0))),
        "deep narrow": var(("lo", (0.0, 0.0, 1.2)), ("steep", (0.5, 0.50001, 1.5)), ("cliff", (0.3, 1.0, 1.00005)),
                           ("between", (0.70001, 0.70002, 0.70003)), ("overflow", (0.0, 5e-324, 1.6)),
                           ("hi", (0.4, 2.0, 2.0))),
    }


def narrow_var():
    """Shoulders over [0, 2] plus a term whose support (0.10001, 0.10003)
    falls between two grid points (step 2.5e-4), so it holds no grid point."""
    return LinguisticVariable("v", 0.0, 2.0, (
        Term("lo", TriangularMF(0.0, 0.0, 2.0)),
        Term("narrow", TriangularMF(0.10001, 0.10002, 0.10003)),
        Term("hi", TriangularMF(0.0, 2.0, 2.0)),
    ))


def narrow_side_var():
    """builtin(3)'s right variable with M's rising side 5e-324 wide:
    (x - 0) / 5e-324 overflows to inf, so M steps from 0.0 at x = 0 to its
    falling side at the next grid point."""
    var = uniform_variable("right", 0.0, 2.0, ("S", "M", "F"))
    return replace(var, terms=(var.terms[0], Term("M", TriangularMF(0.0, 5e-324, 2.0)), var.terms[2]))


def zero_area_boundary(var, fired=lambda s: (0.0, s, 0.0)):
    """Strengths ``fired(s)`` on ``var`` (by default M alone) for ``s`` one
    ulp either side of the last one the engine flags, and of the first it
    does not."""
    def flagged(s):
        return engine._centroid(compiled(var), fired(s))[1]

    lo, hi = 1e-15, 1e-9
    assert flagged(lo) and not flagged(hi)
    while math.nextafter(lo, 1.0) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if flagged(mid) else (lo, mid)
    return [fired(s) for s in (math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, 1.0))]


def centroid_cases():
    """(variable, strength tuples) by name: seeded strengths on every output
    of ``output_vars``; on builtin(7), nothing fired, each term alone at 1.0,
    both shoulders and two non-adjacent terms with a gap between them; the
    term between grid points and the narrow side, each alone and with
    neighbours; and the zero-area boundary on builtin(3)."""
    cases = {}
    rng = np.random.default_rng(71)
    for name, var in output_vars().items():
        n = len(var.terms)
        strengths = rng.uniform(0.0, 1.0, (300, n)) * (rng.uniform(size=(300, n)) < 0.4)
        cases[f"seeded {name}"] = (var, [tuple(map(float, row)) for row in strengths])
    var = builtin(7, d_max=24.41).right_var
    edges = [(0.0,) * 7] + [tuple(1.0 if j == k else 0.0 for j in range(7)) for k in range(7)]
    edges += [(0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3), (0.0, 0.8, 0.0, 0.0, 0.0, 0.5, 0.0)]
    cases["builtin(7) edges"] = (var, edges)
    mixed = [(0.0, 1.0, 0.0), (0.4, 1.0, 0.0), (0.0, 0.7, 0.2), (0.3, 0.9, 0.3), (0.0, 0.2, 0.9)]
    cases["narrow term"] = (narrow_var(), mixed)
    cases["narrow side"] = (narrow_side_var(), mixed)
    var = builtin(3, d_max=24.41).right_var
    cases["zero-area boundary"] = (var, zero_area_boundary(var))
    # the deep outputs: the narrow term poking out of the wide plateau or
    # hidden under it, crossed feet with each pair firing, the narrow sides
    # and the term between grid points with their neighbours, and two
    # overlapping terms of the dense file at the zero-area boundary
    deep = deep_vars()
    cases["deep nested edges"] = (deep["deep nested"], [
        (0.0, 0.5, 1.0, 0.0), (0.0, 0.5, 0.4, 0.0), (0.3, 0.5, 0.9, 0.3), (0.0, 0.2, 1.0, 0.0), (0.6, 0.0, 1.0, 0.6)])
    cases["deep crossed feet edges"] = (deep["deep crossed feet"], [
        (0.0, 0.6, 0.0, 0.9, 0.0), (0.5, 0.7, 0.0, 0.0, 0.0), (0.8, 0.0, 0.0, 0.6, 0.3), (0.4, 0.5, 0.6, 0.7, 0.8)])
    cases["deep narrow edges"] = (deep["deep narrow"], [
        (0.0, 1.0, 0.0, 0.0, 0.0, 0.0), (0.3, 0.9, 0.8, 1.0, 0.0, 0.2), (0.0, 0.0, 1.0, 1.0, 0.0, 0.0),
        (0.2, 0.0, 0.0, 1.0, 0.7, 0.0), (0.5, 0.4, 0.3, 0.9, 0.6, 0.5)])
    var = parse_rulebase(dense_rules_text()).right_var
    cases["deep zero-area boundary"] = (var, zero_area_boundary(var, lambda s: (0.0, 0.5 * s, s, 0.0, 0.0)))
    return cases


class TestClosedFormCentroid:
    @pytest.mark.parametrize("name", sorted(centroid_cases()))
    def test_matches_the_full_grid_trapezoid_rule(self, name):
        var, cases = centroid_cases()[name]
        out = compiled(var)
        flags = []
        for strengths in cases:
            got, want = engine._centroid(out, strengths), full_grid_centroid(var, strengths)
            assert got[1] == want[1], strengths
            assert abs(got[0] - want[0]) <= 1e-12, strengths
            assert math.isfinite(got[0]) and var.lo <= got[0] <= var.hi
            flags.append(got[1])
        if name.endswith("zero-area boundary"):
            assert flags == [True, True, False, False]


def seeded_strengths(seed=29, per_var=400):
    """(name, variable, strength tuples) on every output of ``output_vars``,
    drawn with ``random.Random`` so the stream does not depend on numpy's
    version.  Each term is unfired half the time, otherwise it fires at
    0.25, 0.5 or 1.0 (so clips of equal strength meet) or at a uniform
    draw."""
    rng = random.Random(seed)

    def strength():
        r = rng.random()
        return 0.0 if r < 0.5 else rng.choice((0.25, 0.5, 1.0)) if r < 0.65 else rng.random()

    for name, var in sorted(output_vars().items()):
        n = len(var.terms)
        yield name, var, [tuple(strength() for _ in range(n)) for _ in range(per_var)]


class TestCentroidBits:
    def test_seeded_centroids_are_pinned(self):
        # the hex of every value and its flag, hashed in order, so a change
        # to the centroid's arithmetic or to how it breaks ties moves it
        digest = hashlib.sha256()
        for _, var, cases in seeded_strengths():
            out = compiled(var)
            for strengths in cases:
                value, flag = engine._centroid(out, strengths)
                digest.update(f"{value.hex()} {flag}\n".encode())
        assert digest.hexdigest() == "61a985b45f0a4a5675fc5e1556e4803fc82293a8bfe6d712737bd86fbb213d3b"


class TestEnvelope:
    def test_a_crossing_interpolated_past_the_overlap_is_checked_back(self):
        # two falling runs over grid points 0-4 on [0, 2]: the piece drops
        # from 1.0 to 2.2e-16, the run from 0.4 to 4.3e-17 above that, so
        # the line wins at point 4 alone, by less than an ulp of its deficit
        # at point 0; d0 / (d0 - d1) rounds to 1.0 and puts the first point
        # past the crossing at 5, past the overlap
        lo, hi, step = 0.0, 2.0, 2.0 / 8000
        x4 = 4 * step
        piece_line = (math.nextafter(x4, 1.0), -math.nextafter(x4, 1.0), 1.0)
        c = float.fromhex("0x1.0624dd2f1a9ffp-10")
        run_line = (c, -2.5 * c, 0.5)

        def at(line, i):
            return min((i * step - line[0]) / line[1], line[2])

        d0, d1 = at(run_line, 0) - at(piece_line, 0), at(run_line, 4) - at(piece_line, 4)
        assert d0 < 0.0 < d1 and d0 / (d0 - d1) == 1.0
        # each clip is only a falling run over points 0-4 along its line
        fired = [(s, 0, 0, 0, 5, 0.0, 1.0, c, w) for c, w, s in (piece_line, run_line)]
        pieces = engine._envelope_pieces(fired, lo, hi, step)
        assert pieces == [(0, 3, *piece_line, 1.0, at(piece_line, 3)),
                          (4, 4, *run_line, at(run_line, 4), at(run_line, 4))]

    def test_only_terms_above_zero_reach_the_envelope(self, monkeypatch):
        # a clip at 0.0 would add only pieces of 0.0, which leave both sums as
        # they are, so the result cannot show it; the work can
        seen = []

        def recording(fired, *args, _fn=engine._envelope_pieces):
            seen.append(sorted(clip[0] for clip in fired))
            return _fn(fired, *args)

        monkeypatch.setattr(engine, "_envelope_pieces", recording)
        engine._centroid(compiled(builtin(7, d_max=24.41).right_var), (0.0, 0.4, 0.0, 0.0, 0.7, 0.0, 0.0))
        assert seen == [[0.4, 0.7]]

    def test_seeded_pieces_are_ordered_and_end_on_their_lines(self, monkeypatch):
        # an oracle for the envelope's inline arithmetic: the pieces tile
        # part of the grid left to right, and each one's two end values are
        # its line, capped at its strength, at those indices
        calls = []

        def recording(fired, lo, hi, step, _fn=engine._envelope_pieces):
            pieces = _fn(fired, lo, hi, step)
            calls.append((lo, hi, step, pieces))
            return pieces

        monkeypatch.setattr(engine, "_envelope_pieces", recording)
        for _, var, cases in seeded_strengths():
            out = compiled(var)
            for strengths in cases:
                engine._centroid(out, strengths)
        assert len(calls) > 1000
        for lo, hi, step, pieces in calls:
            assert 0 <= pieces[0][0] and pieces[-1][1] <= engine._LAST
            assert all(before[1] < after[0] for before, after in zip(pieces, pieces[1:]))
            for first, last, c, w, s, mu_first, mu_last in pieces:
                assert first <= last
                for i, mu in ((first, mu_first), (last, mu_last)):
                    x = hi if i == engine._LAST else lo + i * step
                    want = min((x - c) / w, s) if w else s
                    assert mu.hex() == want.hex(), (first, last, c, w, s, i)


class TestCompiledOutput:
    @pytest.mark.parametrize("name", sorted(output_vars()) + ["narrow side", "narrow term"])
    def test_support_holds_exactly_the_non_zero_grid_points(self, name):
        var = {**output_vars(), "narrow side": narrow_side_var(), "narrow term": narrow_var()}[name]
        out = compiled(var)
        assert (out.lo, out.hi, out.step) == (var.lo, var.hi, (var.hi - var.lo) / 8000)
        supports = {k: (first, stop) for first, stop, k, *_ in out.terms}
        xs = np.linspace(var.lo, var.hi, 8001)
        for k, term in enumerate(var.terms):
            with np.errstate(over="ignore"):
                nonzero = np.flatnonzero(tri_vec(term.mf, xs))
            # a term with no grid point inside its support is left out
            want = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else None
            assert supports.get(k) == want, term
            if want:
                assert nonzero.size == want[1] - want[0]


def reversed_output_terms(rb):
    """``rb`` rendered and parsed back with each output's term lines in
    reverse order, so a later-listed term lies left of an earlier one."""
    lines = render_rulebase(rb).splitlines()
    for role in ("right", "left"):
        at = [i for i, line in enumerate(lines) if line.startswith(f"term {role} ")]
        for i, line in zip(at, reversed([lines[i] for i in at])):
            lines[i] = line
    return parse_rulebase("\n".join(lines) + "\n")


def equal_feet_rules_text():
    """The dense rules file with the right output's T2 on T1's feet: over
    [0, 1.5] T1 peaks at 0.5 and T2 at 1.0, so at equal strengths below
    their crossing their plateaus tie over a stretch."""
    text = dense_rules_text()
    assert "term right T2 tri 0.0 1.0 2.0\n" in text
    return text.replace("term right T2 tri 0.0 1.0 2.0\n", "term right T2 tri 0.0 1.0 1.5\n")


def term_order_cases():
    """The sparse-firing bases and the equal-feet file."""
    return {**sparse_cases(), "equal feet": parse_rulebase(equal_feet_rules_text())}


class TestTermOrder:
    @pytest.mark.parametrize("name", sorted(term_order_cases()))
    def test_output_terms_out_of_peak_order_give_the_same_bits(self, name):
        # these bases list their output terms in peak order, so only a
        # reversed listing puts a term that starts further left after one
        # that starts further right, and lists the later of two clips that
        # tie first
        rb = term_order_cases()[name]
        flipped = reversed_output_terms(rb)
        assert flipped.right_var.labels == rb.right_var.labels[::-1]
        assert flipped.left_var.labels == rb.left_var.labels[::-1]
        rng = np.random.default_rng(83)
        a, d = rb.angle_var, rb.distance_var
        points = zip(rng.uniform(a.lo, a.hi, 3000).tolist(), rng.uniform(d.lo, d.hi, 3000).tolist())
        for e_theta, e_d in points:
            assert hexed(infer(flipped, e_theta, e_d)) == hexed(infer(rb, e_theta, e_d)), (e_theta, e_d)


class TestErrorPaths:
    def test_unresolvable_antecedent_rejected_before_inference(self):
        rb = builtin(3)
        with pytest.raises(ValueError, match=r"^unresolved antecedent: angle term 'QQ' not defined; "
                                             r"incomplete grid: \(N, Z\) undefined$"):
            RuleBase(rb.angle_var, rb.distance_var, rb.right_var, rb.left_var,
                     (Rule("QQ", "F", "M", "F"),) + rb.rules[1:])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["e_theta", "e_d"])
    def test_infer_rejects_non_finite_input_by_name(self, name, value):
        inputs = {"e_theta": 0.1, "e_d": 5.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            infer(builtin(3), **inputs)

    def test_zero_area_threshold_boundary(self):
        from fuzzynav.engine import ZERO_AREA_TOL

        var = uniform_variable("right", 0.0, 2.0, ("S", "M", "F"))
        # clip area ~ strength^2 for a triangle; 1e-13 strength sits far
        # below the tolerance, 1e-5 safely above it
        assert ZERO_AREA_TOL == 1e-12
        (value, zero_area), _ = aggregate(var, [("M", 1e-13)])
        assert zero_area and value == 1.0
        (_, zero_area), _ = aggregate(var, [("M", 1e-5)])
        assert not zero_area
