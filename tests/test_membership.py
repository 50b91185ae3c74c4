import math

import numpy as np
import pytest

from fuzzynav import LinguisticVariable, Term, TriangularMF, builtin, fuzzify, mf_eval, uniform_variable


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
