import math

import numpy as np
import pytest

from fuzzynav import (
    AggregatedOutput,
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
    uniform_variable,
)


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

    One rule per consequent, all on the same antecedent cell; the given
    strengths stand in for the fired ones.
    """
    ref = builtin(3)
    rules = tuple(Rule("Z", "Z", label, label) for label, _ in fired)
    rb = RuleBase(ref.angle_var, ref.distance_var, var, var, rules)
    right, _ = rb.compiled.term_strengths(tuple(s for _, s in fired))
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
                right, left = rb.compiled.term_strengths(fire_rules(rb, e_theta, e_d))
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
