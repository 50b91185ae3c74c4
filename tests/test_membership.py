import math
import random

import numpy as np
import pytest

from fuzzynav import LinguisticVariable, Term, TriangularMF, builtin, fuzzify, mf_eval, parse_rulebase, uniform_variable

from test_engine import dense_rules_text


class TestTriangularEval:
    def test_peak(self):
        assert mf_eval(TriangularMF(0, 1, 2), 1.0) == 1.0

    def test_outside_support(self):
        assert mf_eval(TriangularMF(0, 1, 2), 2.5) == 0.0
        assert mf_eval(TriangularMF(0, 1, 2), -0.5) == 0.0

    def test_linear_midpoint(self):
        assert mf_eval(TriangularMF(0, 1, 2), 0.5) == 0.5

    def test_left_shoulder_flat_side(self):
        shoulder = TriangularMF(0, 0, 1)
        assert mf_eval(shoulder, -5.0) == 1.0
        assert mf_eval(shoulder, 0.0) == 1.0
        assert mf_eval(shoulder, 0.5) == 0.5
        assert mf_eval(shoulder, 1.5) == 0.0

    def test_right_shoulder_flat_side(self):
        shoulder = TriangularMF(1, 2, 2)
        assert mf_eval(shoulder, 3.0) == 1.0
        assert mf_eval(shoulder, 2.0) == 1.0
        assert mf_eval(shoulder, 1.5) == 0.5
        assert mf_eval(shoulder, 0.5) == 0.0

    def test_vectorised(self):
        xs = np.array([-1.0, 0.5, 1.0, 1.5, 3.0])
        np.testing.assert_allclose(mf_eval(TriangularMF(0, 1, 2), xs), [0, 0.5, 1, 0.5, 0])

    def test_bounded_and_continuous(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = np.sort(rng.uniform(-5, 5, 2))
            m = rng.uniform(a, b)
            mf = TriangularMF(a, m, b)
            xs = rng.uniform(-6, 6, 50)
            degs = mf_eval(mf, xs)
            assert np.all(degs >= 0) and np.all(degs <= 1)
            # piecewise-linear => Lipschitz with constant 1/min half-width
            lip = 1.0 / min(x for x in (m - a, b - m) if x > 0)
            eps = 1e-7
            shifted = mf_eval(mf, xs + eps)
            assert np.all(np.abs(shifted - degs) <= lip * eps * 1.01 + 1e-12)

    def test_invalid_breakpoints(self):
        with pytest.raises(ValueError):
            TriangularMF(2, 1, 0)
        with pytest.raises(ValueError):
            TriangularMF(1, 1, 1)  # degenerate point support

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["left", "peak", "right"])
    def test_non_finite_breakpoint_rejected_by_name(self, field, bad):
        points = {"left": -1.0, "peak": 0.0, "right": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"^triangle {field} must be finite"):
            TriangularMF(**points)


def three_term_var():
    # peaks -1, 0, 1 with 50% overlap on [-1, 1]
    return LinguisticVariable(
        "angle", -1.0, 1.0,
        (
            Term("N", TriangularMF(-1, -1, 0)),
            Term("Z", TriangularMF(-1, 0, 1)),
            Term("P", TriangularMF(0, 1, 1)),
        ),
    )


class TestFuzzify:
    def test_on_peak(self):
        assert fuzzify(three_term_var(), 0.0) == (0.0, 1.0, 0.0)

    def test_symmetric_crossover(self):
        assert fuzzify(three_term_var(), 0.5) == (0.0, 0.5, 0.5)

    def test_out_of_range_clamps(self):
        assert fuzzify(three_term_var(), 10.0) == (0.0, 0.0, 1.0)
        assert fuzzify(three_term_var(), -10.0) == (1.0, 0.0, 0.0)

    def test_one_degree_per_term_and_coverage(self):
        rng = np.random.default_rng(11)
        var = three_term_var()
        for x in rng.uniform(-2, 2, 100):
            degrees = fuzzify(var, x)
            assert len(degrees) == len(var.terms)
            assert degrees == tuple(mf_eval(t.mf, var.clamp(x)) for t in var.terms)
            assert max(degrees) > 0

    def test_partition_of_unity_for_builtin_layouts(self):
        # uniform 50%-overlap partitions (including the banded angle layout
        # with its saturated shoulders) fuzzify to degrees summing to 1
        rng = np.random.default_rng(13)
        for n in (3, 5, 7):
            rb = builtin(n, d_max=24.41)
            for var in (rb.angle_var, rb.distance_var, rb.right_var, rb.left_var):
                for x in rng.uniform(var.lo, var.hi, 200):
                    total = sum(fuzzify(var, x))
                    assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected_naming_the_value(self, bad):
        with pytest.raises(ValueError, match=f"^variable 'angle': x must be finite, got {bad}$"):
            fuzzify(builtin(3).angle_var, bad)


def table_cases():
    """Every variable of the built-ins at three d_max and of the dense rules
    file, by name (a built-in's left output equals its right one), and one
    universe that ends at 0.0, where clamping -0.0 keeps its sign."""
    variables = {"nonpositive": uniform_variable("nonpositive", -1.0, 0.0, ("N", "Z"))}
    for n in (3, 5, 7):
        for d_max in (0.5, 3.0, 24.41):
            rb = builtin(n, d_max=d_max)
            for var in (rb.angle_var, rb.distance_var, rb.right_var):
                variables[f"builtin({n}, d_max={d_max}) {var.name}"] = var
    rb = parse_rulebase(dense_rules_text())
    for var in (rb.angle_var, rb.distance_var, rb.right_var, rb.left_var):
        variables[f"dense file {var.name}"] = var
    return variables


def probe_points(var, seed):
    """Each term's feet and peak, the universe ends, one ulp either side of
    all of them, +/-0.0, points far outside the universe and seeded ones."""
    edges = [x for t in var.terms for x in (t.mf.left, t.mf.peak, t.mf.right)] + [var.lo, var.hi]
    points = edges + [math.nextafter(x, d) for x in edges for d in (-math.inf, math.inf)]
    width = var.hi - var.lo
    points += [0.0, -0.0, var.lo - 1e6 * width, var.hi + 1e6 * width, -1e300, 1e300]
    rng = random.Random(seed)
    points += [rng.uniform(var.lo - 0.5 * width, var.hi + 0.5 * width) for _ in range(500)]
    return points


class TestTableDrivenFuzzify:
    @pytest.mark.parametrize("name", sorted(table_cases()))
    def test_hex_equal_to_scalar_mf_eval(self, name):
        var = table_cases()[name]
        for x in probe_points(var, seed=19):
            want = [mf_eval(t.mf, var.clamp(x)).hex() for t in var.terms]
            assert [d.hex() for d in fuzzify(var, x)] == want, x

    @pytest.mark.parametrize("name", sorted(table_cases()))
    def test_hex_equal_to_plain_python_min_max(self, name):
        # A numpy-free reference with the builtins fuzzify's comparisons
        # stand in for, so the signed zeros do not rest on np.clip.
        var = table_cases()[name]
        for x in probe_points(var, seed=23):
            xc = min(max(x, var.lo), var.hi)
            want = []
            for t in var.terms:
                up = 1.0 if t.mf.is_left_shoulder else (xc - t.mf.left) / (t.mf.peak - t.mf.left)
                down = 1.0 if t.mf.is_right_shoulder else (t.mf.right - xc) / (t.mf.right - t.mf.peak)
                want.append(min(max(min(up, down), 0.0), 1.0).hex())
            assert [d.hex() for d in fuzzify(var, x)] == want, x
            assert var.clamp(x).hex() == xc.hex(), x


class TestVariableValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lo", "hi"])
    def test_rejects_non_finite_bound_by_name(self, field, bad):
        bounds = {"lo": 0.0, "hi": 1.0, field: bad}
        terms = (Term("a", TriangularMF(0, 0, 1)), Term("b", TriangularMF(0, 1, 1)))
        with pytest.raises(ValueError, match=f"^variable 'v': {field} must be finite"):
            LinguisticVariable("v", terms=terms, **bounds)

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError, match="lo < hi"):
            LinguisticVariable("v", 1.0, 1.0, (Term("a", TriangularMF(0, 0.5, 1)),))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            LinguisticVariable(
                "v", 0.0, 1.0,
                (Term("a", TriangularMF(0, 0, 1)), Term("a", TriangularMF(0, 1, 1))),
            )

    def test_rejects_support_outside_universe(self):
        with pytest.raises(ValueError, match="exceeds universe"):
            LinguisticVariable("v", 0.0, 1.0, (Term("a", TriangularMF(-0.5, 0.5, 1.0)),))

    def test_rejects_coverage_gap(self):
        # two disjoint triangles leave the middle uncovered
        with pytest.raises(ValueError, match="cover"):
            LinguisticVariable(
                "v", 0.0, 1.0,
                (Term("a", TriangularMF(0, 0, 0.3)), Term("b", TriangularMF(0.7, 1, 1))),
            )

    def test_rejects_bare_triangle_at_edge(self):
        # peak inside but foot exactly at the boundary leaves mu(lo) = 0
        with pytest.raises(ValueError, match="cover"):
            LinguisticVariable(
                "v", 0.0, 1.0,
                (Term("a", TriangularMF(0, 0.5, 1)),),
            )


class TestUniformVariable:
    def test_peaks_hit_universe_ends_exactly(self):
        var = uniform_variable("d", 0.0, 24.41, ("Z", "M", "F"))
        assert var.terms[0].mf.peak == 0.0
        assert var.terms[-1].mf.peak == 24.41
        assert var.terms[0].mf.is_left_shoulder
        assert var.terms[-1].mf.is_right_shoulder

    def test_interior_feet_are_neighbour_peaks(self):
        var = uniform_variable("v", 0.0, 2.0, ("VS", "S", "M", "F", "VF"))
        peaks = [t.mf.peak for t in var.terms]
        for i in range(1, 4):
            assert var.terms[i].mf.left == peaks[i - 1]
            assert var.terms[i].mf.right == peaks[i + 1]

    def test_peak_span_saturates_edges(self):
        var = uniform_variable("a", -math.pi, math.pi, ("N", "Z", "P"), peak_span=(-0.5, 0.5))
        assert [t.mf.peak for t in var.terms] == [-0.5, 0.0, 0.5]
        # saturated zone: the edge terms hold membership 1 out to the boundary
        assert mf_eval(var.terms[0].mf, -3.0) == 1.0
        assert mf_eval(var.terms[-1].mf, 3.0) == 1.0
        assert sum(fuzzify(var, -2.0)) == 1.0

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError, match="peak span"):
            uniform_variable("a", 0.0, 1.0, ("x", "y"), peak_span=(-0.5, 0.5))
