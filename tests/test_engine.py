import math

import numpy as np
import pytest

from fuzzynav import (
    AggregatedOutput,
    InferenceResult,
    LinguisticVariable,
    Rule,
    RuleBase,
    Term,
    TriangularMF,
    builtin,
    defuzz_centroid,
    fire_rules,
    fuzzify,
    infer,
    parse_rulebase,
    uniform_variable,
)
from fuzzynav import engine


def brute_mu(clips, x):
    """Independent max-of-clipped evaluation: own triangle formula, no package code."""
    best = 0.0
    for (a, b, c), s in clips:
        if x <= b:
            d = 1.0 if a == b else max(0.0, (x - a) / (b - a))
        else:
            d = 1.0 if b == c else max(0.0, (c - x) / (c - b))
        best = max(best, min(s, min(d, 1.0)))
    return best


def brute_mu_vec(clips, xs):
    """Vectorised twin of brute_mu; branches at the peak instead of min-of-lines."""
    best = np.zeros_like(xs)
    for (a, b, c), s in clips:
        rise = np.ones_like(xs) if a == b else (xs - a) / (b - a)
        fall = np.ones_like(xs) if b == c else (c - xs) / (c - b)
        deg = np.clip(np.where(xs <= b, rise, fall), 0.0, 1.0)
        best = np.maximum(best, np.minimum(s, deg))
    return best


def brute_centroid(clips, lo, hi, n=100001):
    """Midpoint rectangle-rule centroid on n cells, independent of the package."""
    h = (hi - lo) / n
    xs = lo + (np.arange(n) + 0.5) * h
    mu = brute_mu_vec(clips, xs)
    return float((xs * mu).sum() / mu.sum())


def aggregate(var, fired):
    """Aggregate (label, strength) consequents of ``var`` through the engine's compiled max.

    One rule per consequent, each on its own angle term whose degree is the
    given strength; every rule shares one distance term at degree 1.
    """
    n = max(len(fired), 2)
    angle = uniform_variable("angle", 0.0, 1.0, tuple(f"A{i}" for i in range(n)))
    distance = builtin(3).distance_var
    rules = tuple(Rule(f"A{i}", "Z", label, label) for i, (label, _) in enumerate(fired))
    rb = RuleBase(angle, distance, var, var, rules)
    degrees = tuple(s for _, s in fired) + (0.0,) * (n - len(fired))
    right, _ = rb.compiled.term_strengths(degrees, fuzzify(distance, 0.0))
    return AggregatedOutput(var, right)


def clips_of(agg):
    return [
        ((t.mf.left, t.mf.peak, t.mf.right), s)
        for t, s in zip(agg.var.terms, agg.strengths)
        if s > 0
    ]


def rule_index(rb, angle_term, distance_term):
    return next(
        i for i, r in enumerate(rb.rules) if (r.angle_term, r.distance_term) == (angle_term, distance_term)
    )


class TestFireRules:
    def test_on_peaks_single_rule(self):
        # inputs exactly on the peaks of angle N and distance F: one rule fires
        rb = builtin(3, d_max=24.41)
        e_theta = rb.angle_var.term("N").mf.peak
        e_d = rb.distance_var.term("F").mf.peak
        strengths = fire_rules(rb, e_theta, e_d)
        fired = [(r.right_term, r.left_term, s) for r, s in zip(rb.rules, strengths) if s > 0]
        assert fired == [("M", "F", 1.0)]
        assert strengths[rule_index(rb, "N", "F")] == 1.0

    def test_crossover_two_rules_at_half(self):
        rb = builtin(3, d_max=24.41)
        # halfway between Z and P angle peaks, distance exactly on F's peak
        e_theta = 0.5 * (rb.angle_var.term("Z").mf.peak + rb.angle_var.term("P").mf.peak)
        e_d = rb.distance_var.term("F").mf.peak
        strengths = fire_rules(rb, e_theta, e_d)
        assert [s for s in strengths if s > 0] == [0.5, 0.5]
        assert strengths[rule_index(rb, "Z", "F")] == strengths[rule_index(rb, "P", "F")] == 0.5

    def test_strength_is_min_of_degrees(self):
        # angle degree 0.3 on P, distance degree 0.7 on F -> strength 0.3
        rb = builtin(3, d_max=10.0)
        e_theta = 0.3 * rb.angle_var.term("P").mf.peak
        e_d = 10.0 - 0.3 * 5.0  # F rises over [5, 10]: degree 0.7 at 8.5
        strengths = fire_rules(rb, e_theta, e_d)
        # rule (P, F) -> strength min(0.3, 0.7)
        assert math.isclose(strengths[rule_index(rb, "P", "F")], 0.3, abs_tol=1e-12)

    def test_min_oracle_on_random_inputs(self):
        # hand-rolled strength recomputation for every rule, 1000 random inputs
        rng = np.random.default_rng(42)
        for n in (3, 5, 7):
            rb = builtin(n, d_max=24.41)
            for _ in range(1000 // 3):
                e_theta = rng.uniform(-4, 4)
                e_d = rng.uniform(-1, 30)
                strengths = fire_rules(rb, e_theta, e_d)
                angle_deg = dict(zip(rb.angle_var.labels, fuzzify(rb.angle_var, e_theta)))
                dist_deg = dict(zip(rb.distance_var.labels, fuzzify(rb.distance_var, e_d)))
                expected = tuple(min(angle_deg[r.angle_term], dist_deg[r.distance_term]) for r in rb.rules)
                assert strengths == expected
                assert all(0 <= s <= 1 for s in strengths)
                assert any(s > 0 for s in strengths)


def velocity_var():
    return uniform_variable("right", 0.0, 2.0, ("S", "M", "F"))


class TestAggregate:
    def test_single_full_strength_clip_is_the_triangle(self):
        var = velocity_var()
        agg = aggregate(var, [("M", 1.0)])
        xs = np.linspace(0, 2, 101)
        np.testing.assert_allclose(agg.mu(xs), [TriangularMF(0, 1, 2)(x) for x in xs])

    def test_empty_aggregation_is_zero(self):
        agg = aggregate(velocity_var(), [])
        xs = np.linspace(0, 2, 101)
        assert np.all(agg.mu(xs) == 0.0)

    def test_two_disjoint_plateaus_match_dense_grid_oracle(self):
        # S and F clipped at 0.5 have disjoint supports: two plateaus of 0.5
        var = velocity_var()
        agg = aggregate(var, [("S", 0.5), ("F", 0.5)])
        clips = clips_of(agg)
        xs = np.linspace(0, 2, 2001)
        expected = np.array([brute_mu(clips, x) for x in xs])
        np.testing.assert_allclose(agg.mu(xs), expected, atol=1e-12)
        assert agg.mu(0.25) == 0.5 and agg.mu(1.75) == 0.5
        assert agg.mu(1.0) == 0.0

    def test_unknown_label_rejected_by_name(self):
        with pytest.raises(ValueError, match="XX"):
            aggregate(velocity_var(), [("XX", 0.5)])

    def test_duplicate_labels_combine_by_max(self):
        var = velocity_var()
        agg = aggregate(var, [("M", 0.3), ("M", 0.8)])
        assert agg.strengths[var.labels.index("M")] == 0.8

    def test_curve_bounded_by_max_strength(self):
        rng = np.random.default_rng(5)
        var = uniform_variable("v", 0.0, 2.0, ("VS2", "VS1", "S", "M", "F", "VF1", "VF2"))
        for _ in range(50):
            fired = [
                (label, rng.uniform(0, 1))
                for label in rng.choice(var.labels, size=rng.integers(1, 8), replace=False)
            ]
            agg = aggregate(var, fired)
            mu = agg.mu(np.linspace(0, 2, 501))
            assert np.all(mu >= 0)
            assert np.all(mu <= max(s for _, s in fired) + 1e-15)
            assert np.all(mu <= 1.0)


class TestDefuzzCentroid:
    def test_symmetric_triangle_gives_apex(self):
        # (0.5, 1.0, 1.5) is symmetric and grid-aligned: centroid == apex
        var = LinguisticVariable("v", 0.0, 2.0, (
            Term("mid", TriangularMF(0.5, 1.0, 1.5)),
            Term("lo", TriangularMF(0.0, 0.0, 1.0)),
            Term("hi", TriangularMF(1.0, 2.0, 2.0)),
        ))
        agg = aggregate(var, [("mid", 1.0)])
        value, zero_area = defuzz_centroid(agg)
        assert not zero_area
        assert abs(value - 1.0) <= 1e-9

    def test_two_equal_triangles_give_midpoint_of_apexes(self):
        var = LinguisticVariable("v", 0.0, 2.0, (
            Term("a", TriangularMF(0.0, 0.25, 0.5)),
            Term("b", TriangularMF(1.5, 1.75, 2.0)),
            Term("cover_lo", TriangularMF(0.0, 0.0, 1.6)),
            Term("cover_hi", TriangularMF(0.4, 2.0, 2.0)),
        ))
        agg = aggregate(var, [("a", 0.6), ("b", 0.6)])
        value, zero_area = defuzz_centroid(agg)
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
            agg = aggregate(var, fired)
            value, zero_area = defuzz_centroid(agg)
            assert not zero_area
            expected = brute_centroid(clips_of(agg), var.lo, var.hi)
            worst = max(worst, abs(value - expected))
        assert worst <= 1e-6, f"worst centroid error {worst:.3e}"

    def test_zero_area_flags_and_returns_midpoint(self):
        agg = aggregate(velocity_var(), [])
        value, zero_area = defuzz_centroid(agg)
        assert zero_area
        assert value == 1.0  # universe midpoint of [0, 2]

    def test_result_stays_inside_universe(self):
        rng = np.random.default_rng(17)
        var = velocity_var()
        for _ in range(100):
            fired = [("S", rng.uniform(0, 1)), ("F", rng.uniform(0, 1))]
            value, _ = defuzz_centroid(aggregate(var, fired))
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
            value, _ = defuzz_centroid(aggregate(var, [("mid", float(c))]))
            assert abs(value - 1.0) <= 1e-9


class TestInfer:
    def test_stages_compose_to_infer(self):
        rng = np.random.default_rng(43)
        for n in (3, 5, 7):
            rb = builtin(n, d_max=24.41)
            for _ in range(50):
                e_theta, e_d = rng.uniform(-4, 4), rng.uniform(-1, 30)
                degrees = fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d)
                right, left = rb.compiled.term_strengths(*degrees)
                r = defuzz_centroid(AggregatedOutput(rb.right_var, right))
                l = defuzz_centroid(AggregatedOutput(rb.left_var, left))
                assert infer(rb, e_theta, e_d) == (r.value, l.value, r.zero_area, l.zero_area)

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
        res = infer(rb, rb.angle_var.term("P").mf.peak, 24.41)
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
    """Every rule fires, each output term takes the max in rule order, then
    the engine's centroid: ((right, left) per-term strengths, InferenceResult)."""
    compiled = rb.compiled
    angle, dist = fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d)
    right = [0.0] * len(rb.right_var.terms)
    left = [0.0] * len(rb.left_var.terms)
    for a, d, r, l in compiled.rules:
        s = min(angle[a], dist[d])
        right[r] = max(right[r], s)
        left[l] = max(left[l], s)
    rr, ll = engine._centroid(compiled.right, right), engine._centroid(compiled.left, left)
    return (tuple(right), tuple(left)), InferenceResult(rr.value, ll.value, rr.zero_area, ll.zero_area)


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
            degrees = fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d)
            got = rb.compiled.term_strengths(*degrees)
            assert [hexed(s) for s in got] == [hexed(s) for s in strengths], (e_theta, e_d)
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


class TestErrorPaths:
    def test_fire_rules_rejects_unresolvable_antecedent(self):
        from fuzzynav import Rule, RuleBase

        rb = builtin(3)
        broken = RuleBase(
            rb.angle_var, rb.distance_var, rb.right_var, rb.left_var,
            (Rule("QQ", "F", "M", "F"),) + rb.rules[1:],
        )
        with pytest.raises(ValueError, match="antecedent"):
            fire_rules(broken, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["e_theta", "e_d"])
    def test_infer_rejects_non_finite_input_by_name(self, name, value):
        inputs = {"e_theta": 0.1, "e_d": 5.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            infer(builtin(3), **inputs)

    def test_aggregated_output_rejects_strengths_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^strengths has 1 values for the 3 terms"):
            AggregatedOutput(builtin(3).right_var, (0.5,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 1.5])
    def test_aggregated_output_rejects_a_strength_outside_0_1(self, bad):
        with pytest.raises(ValueError, match="^strengths must be finite and in"):
            AggregatedOutput(builtin(3).right_var, (0.0, bad, 0.2))

    def test_zero_area_threshold_boundary(self):
        from fuzzynav.engine import ZERO_AREA_TOL

        var = uniform_variable("right", 0.0, 2.0, ("S", "M", "F"))
        # clip area ~ strength^2 for a triangle; 1e-13 strength sits far
        # below the tolerance, 1e-5 safely above it
        assert ZERO_AREA_TOL == 1e-12
        tiny = defuzz_centroid(AggregatedOutput(var, (0.0, 1e-13, 0.0)))
        assert tiny.zero_area and tiny.value == 1.0
        small = defuzz_centroid(AggregatedOutput(var, (0.0, 1e-5, 0.0)))
        assert not small.zero_area
