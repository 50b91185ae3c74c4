import math

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
from fuzzynav.rulebase import _resolve


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

    One rule per consequent, each on its own angle term whose degree is the
    given strength; every rule shares one distance term at degree 1.
    Returns the crisp ``(value, zero_area)`` of ``rb.compiled.outputs`` and
    the clips an independent integrator needs: (triangle, strength) per
    fired term, duplicates combined by max.
    """
    n = max(len(fired), 2)
    angle = uniform_variable("angle", 0.0, 1.0, tuple(f"A{i}" for i in range(n)))
    distance = builtin(3).distance_var
    rules = tuple(Rule(f"A{i}", "Z", label, label) for i, (label, _) in enumerate(fired))
    rb = RuleBase(angle, distance, var, var, rules)
    degrees = tuple(s for _, s in fired) + (0.0,) * (n - len(fired))
    res = rb.compiled.outputs(degrees, fuzzify(distance, 0.0))
    strengths = {}
    for label, s in fired:
        strengths[label] = max(s, strengths.get(label, 0.0))
    shapes = dict(var.terms)
    clips = [(shapes[label], s) for label, s in strengths.items() if s > 0]
    return (res.v_right, res.right_zero_area), clips


def per_term_strengths(rb, e_theta, e_d):
    """{label: strength} per output term, (right, left), from the engine's sparse firing."""
    compiled = rb.compiled
    angle, dist = fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d)
    right, left = engine._term_strengths(compiled.cells, len(rb.right_var.terms), len(rb.left_var.terms), angle, dist)
    return dict(zip(rb.right_var.labels, right)), dict(zip(rb.left_var.labels, left))


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
        compiled = builtin(3, d_max=10.0).compiled
        angle, dist = (0.0, 0.0, 0.3), (0.0, 0.0, 0.7)  # terms N Z P; Z M F
        assert engine._term_strengths(compiled.cells, 3, 3, angle, dist) == ((0.0, 0.0, 0.3), (0.0, 0.3, 0.0))


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
    def test_compiled_once_and_outputs_share_samples(self):
        rb = builtin(7, d_max=24.41)
        assert rb.compiled is rb.compiled
        # right and left have the same term geometry, so one sampling serves both
        assert rb.compiled.right is rb.compiled.left

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
    compiled = rb.compiled
    angle, dist = fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d)
    right = [0.0] * len(rb.right_var.terms)
    left = [0.0] * len(rb.left_var.terms)
    for a, d, r, l in _resolve(rb)[0]:
        s = min(angle[a], dist[d])
        right[r] = max(right[r], s)
        left[l] = max(left[l], s)
    (v_right, right_zero), (v_left, left_zero) = engine._centroid(compiled.right, right), engine._centroid(compiled.left, left)
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
    """The built-ins, the dense rules file, and builtin(3) without its N row
    (a grid the compile accepts; an N heading fires nothing, so zero area)."""
    rbs = {f"builtin({n})": builtin(n, d_max=24.41) for n in (3, 5, 7)}
    rbs["dense file"] = parse_rulebase(dense_rules_text())
    b3 = builtin(3, d_max=24.41)
    rbs["builtin(3) minus row N"] = RuleBase(b3.angle_var, b3.distance_var, b3.right_var, b3.left_var, b3.rules[3:])
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
            assert max(got[0]) > 0.0 or name == "builtin(3) minus row N", (e_theta, e_d)
            assert hexed(infer(rb, e_theta, e_d)) == hexed(want), (e_theta, e_d)
            flagged += want.right_zero_area
        assert (flagged > 0) == (name == "builtin(3) minus row N")

    def test_dense_file_has_more_than_two_degrees_per_input(self):
        rb = parse_rulebase(dense_rules_text())
        assert sum(d > 0 for d in fuzzify(rb.angle_var, 0.5)) == 4
        assert sum(d > 0 for d in fuzzify(rb.distance_var, 3.0)) == 4

    def test_repeated_degree_pair_reuses_the_result(self):
        rb = builtin(3, d_max=24.41)
        memo = rb.compiled.outputs
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
    """(rule base, e_theta, e_d) whose right and left strengths are equal:
    straight ahead on a built-in, nothing firing on builtin(3) without its
    N row (both outputs flagged), and straight ahead on builtin(3) with a
    wider left range (two samplings)."""
    b3 = builtin(3, d_max=24.41)
    wide_left = render_rulebase(builtin(3)).replace("var left range 0.0 2.0", "var left range 0.0 3.0")
    return {
        "builtin(5) straight ahead": (builtin(5, d_max=24.41), 0.0, 10.0),
        "builtin(3) minus row N": (RuleBase(b3.angle_var, b3.distance_var, b3.right_var, b3.left_var, b3.rules[3:]),
                                   -3.0, 10.0),
        "left range wider than right": (parse_rulebase(wide_left), 0.0, 10.0),
    }


class TestMirroredOutputs:
    @pytest.mark.parametrize("name", sorted(mirrored_cases()))
    def test_equal_strengths_defuzzify_once_per_sampling(self, name, monkeypatch):
        rb, e_theta, e_d = mirrored_cases()[name]
        compiled = rb.compiled
        shared = name != "left range wider than right"
        assert (compiled.left is compiled.right) == shared
        angle, dist = fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d)
        rs, ls = engine._term_strengths(compiled.cells, len(rb.right_var.terms), len(rb.left_var.terms), angle, dist)
        assert rs == ls
        right, left = engine._centroid(compiled.right, rs), engine._centroid(compiled.left, ls)
        calls = []

        def counting(*args, _centroid=engine._centroid):
            calls.append(args)
            return _centroid(*args)

        monkeypatch.setattr(engine, "_centroid", counting)
        got = compiled.outputs(angle, dist)
        assert len(calls) == (1 if shared else 2)
        assert hexed(got) == hexed((right[0], left[0], right[1], left[1]))
        assert got.right_zero_area == (name == "builtin(3) minus row N")
        assert (got.v_left == got.v_right) == shared


def full_grid_centroid(var, strengths):
    """The centroid with every term of ``var`` sampled and clipped over all
    8001 grid points: the formula the windowed ``engine._centroid`` must
    reproduce bit for bit."""
    lo, hi = var.lo, var.hi
    xs = np.linspace(lo, hi, engine._SAMPLES)
    curves = np.vstack([tri_vec(t.mf, xs) for t in var.terms])
    clips = np.asarray(strengths, dtype=float)
    mu = np.max(np.minimum(curves, clips[:, None]), axis=0)
    h = (hi - lo) / (engine._SAMPLES - 1)
    area = h * (mu.sum() - 0.5 * (mu[0] + mu[-1]))
    if area < engine.ZERO_AREA_TOL:
        return 0.5 * (lo + hi), True
    xmu = xs * mu
    moment = h * (xmu.sum() - 0.5 * (xmu[0] + xmu[-1]))
    return float(min(max(moment / area, lo), hi)), False


def sampled(var):
    """``var`` as the compile samples it."""
    return engine._sample(var.lo, var.hi, tuple(t.mf for t in var.terms))


def output_vars():
    """The output variables of the built-ins at two d_max / v_max and of the
    dense rules file, by name (right and left share one geometry in each)."""
    outputs = {}
    for n in (3, 5, 7):
        for d_max, v_max in ((24.41, 2.0), (3.0, 1.0)):
            outputs[f"builtin({n}) v_max={v_max}"] = builtin(n, d_max=d_max, v_max=v_max).right_var
    outputs["dense file"] = parse_rulebase(dense_rules_text()).right_var
    return outputs


def narrow_var():
    """Shoulders over [0, 2] plus a term whose support (0.10001, 0.10003)
    falls between two grid points (step 2.5e-4), so it samples to all zeros."""
    return LinguisticVariable("v", 0.0, 2.0, (
        Term("lo", TriangularMF(0.0, 0.0, 2.0)),
        Term("narrow", TriangularMF(0.10001, 0.10002, 0.10003)),
        Term("hi", TriangularMF(0.0, 2.0, 2.0)),
    ))


def assert_hex_equal(var, strengths):
    got, want = engine._centroid(sampled(var), strengths), full_grid_centroid(var, strengths)
    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), strengths
    return got


class TestWindowedCentroid:
    @pytest.mark.parametrize("name", sorted(output_vars()))
    def test_seeded_strengths_are_hex_equal_to_the_full_grid(self, name):
        var = output_vars()[name]
        rng = np.random.default_rng(71)
        n = len(var.terms)
        for _ in range(300):
            strengths = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.4)
            assert_hex_equal(var, tuple(float(s) for s in strengths))

    def test_edge_cases_are_hex_equal_to_the_full_grid(self):
        var = builtin(7, d_max=24.41).right_var
        spans = sampled(var).spans
        n = len(spans)
        assert assert_hex_equal(var, (0.0,) * n) == (1.0, True)
        for k in range(n):
            assert_hex_equal(var, tuple(1.0 if j == k else 0.0 for j in range(n)))
        # both shoulders: the window runs from index 0 through index 8000
        assert spans[0][0] == 0 and spans[-1][1] == engine._SAMPLES
        assert_hex_equal(var, (0.6,) + (0.0,) * (n - 2) + (0.3,))
        # two non-adjacent terms: a run of zeros inside the window
        assert spans[1][1] < spans[5][0]
        assert_hex_equal(var, (0.0, 0.8, 0.0, 0.0, 0.0, 0.5, 0.0))

    def test_term_narrower_than_a_grid_step_has_an_empty_span(self):
        var = narrow_var()
        assert sampled(var).spans[1] == (0, 0) and sampled(var).segments[1].size == 0
        assert assert_hex_equal(var, (0.0, 1.0, 0.0)) == (1.0, True)
        for strengths in ((0.4, 1.0, 0.0), (0.0, 0.7, 0.2), (0.3, 0.9, 0.3)):
            assert not assert_hex_equal(var, strengths)[1]

    def test_strengths_around_the_zero_area_tolerance(self):
        var = builtin(3, d_max=24.41).right_var
        flags = {assert_hex_equal(var, (0.0, float(s), 0.0))[1] for s in np.geomspace(1e-15, 1e-9, 61)}
        assert flags == {True, False}
        # bisect to the last flagged strength, then step one ulp to either side
        lo, hi = 1e-15, 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if full_grid_centroid(var, (0.0, mid, 0.0))[1] else (lo, mid)
        for s in (math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, 1.0)):
            assert_hex_equal(var, (0.0, s, 0.0))
        assert engine._centroid(sampled(var), (0.0, lo, 0.0))[1]
        assert not engine._centroid(sampled(var), (0.0, hi, 0.0))[1]


class TestSampledSpans:
    @pytest.mark.parametrize("name", sorted(output_vars()))
    def test_span_holds_every_non_zero_sample_and_only_zeros_lie_outside(self, name):
        var = output_vars()[name]
        s = sampled(var)
        assert len(s.spans) == len(s.segments) == len(var.terms)
        xs = np.linspace(var.lo, var.hi, engine._SAMPLES)
        assert s.xs.tobytes() == xs.tobytes()
        for term, (start, stop), segment in zip(var.terms, s.spans, s.segments):
            row = tri_vec(term.mf, xs)
            assert 0 <= start < stop <= engine._SAMPLES
            nonzero = np.flatnonzero(row)
            assert start <= nonzero[0] and nonzero[-1] < stop
            assert segment.tobytes() == row[start:stop].tobytes()
            # exactly +0.0 outside the span, sign bit included
            outside = np.concatenate((row[:start], row[stop:]))
            assert outside.tobytes() == bytes(outside.nbytes)


class TestErrorPaths:
    def test_infer_rejects_unresolvable_antecedent(self):
        from fuzzynav import Rule, RuleBase

        rb = builtin(3)
        broken = RuleBase(
            rb.angle_var, rb.distance_var, rb.right_var, rb.left_var,
            (Rule("QQ", "F", "M", "F"),) + rb.rules[1:],
        )
        with pytest.raises(ValueError, match="antecedent"):
            infer(broken, 0.0, 0.0)

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
