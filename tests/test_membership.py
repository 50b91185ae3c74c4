import math
import random
import subprocess
import sys

import numpy as np
import pytest

from fuzzynav import LinguisticVariable, Term, TriangularMF, builtin, fuzzify, parse_rulebase, uniform_variable
from fuzzynav import membership
from fuzzynav.rulebase import DEFAULT_V_MAX

from test_engine import dense_rules_text


def holding(mf, lo=-10.0, hi=10.0):
    """A variable on [lo, hi] whose first term is ``mf``; two shoulders
    spanning the whole universe cover it, so ``mf`` may be any triangle
    inside it and its degree at any x inside it is unclamped."""
    return LinguisticVariable("v", lo, hi, (
        Term("mf", mf),
        Term("lo", TriangularMF(lo, lo, hi)),
        Term("hi", TriangularMF(lo, hi, hi)),
    ))


def degree(mf, x):
    return fuzzify(holding(mf), x)[0]


def mf_eval(mf, x):
    """numpy reference triangle on a scalar or an array: the min of its two
    lines, ``np.clip``'d to [0, 1]; a shoulder's flat side holds 1."""
    xs = np.asarray(x, dtype=float)
    up = 1.0 if mf.is_left_shoulder else (xs - mf.left) / (mf.peak - mf.left)
    down = 1.0 if mf.is_right_shoulder else (mf.right - xs) / (mf.right - mf.peak)
    deg = np.clip(np.minimum(up, down), 0.0, 1.0)
    return float(deg) if xs.ndim == 0 else deg


class TestTriangularEval:
    def test_peak(self):
        assert degree(TriangularMF(0, 1, 2), 1.0) == 1.0

    def test_outside_support(self):
        assert degree(TriangularMF(0, 1, 2), 2.5) == 0.0
        assert degree(TriangularMF(0, 1, 2), -0.5) == 0.0

    def test_linear_midpoint(self):
        assert degree(TriangularMF(0, 1, 2), 0.5) == 0.5

    def test_left_shoulder_flat_side(self):
        shoulder = TriangularMF(0, 0, 1)
        assert degree(shoulder, -5.0) == 1.0
        assert degree(shoulder, 0.0) == 1.0
        assert degree(shoulder, 0.5) == 0.5
        assert degree(shoulder, 1.5) == 0.0

    def test_right_shoulder_flat_side(self):
        shoulder = TriangularMF(1, 2, 2)
        assert degree(shoulder, 3.0) == 1.0
        assert degree(shoulder, 2.0) == 1.0
        assert degree(shoulder, 1.5) == 0.5
        assert degree(shoulder, 0.5) == 0.0

    def test_piecewise_linear_profile(self):
        xs = [-1.0, 0.5, 1.0, 1.5, 3.0]
        assert [degree(TriangularMF(0, 1, 2), x) for x in xs] == [0, 0.5, 1, 0.5, 0]

    def test_vectorised(self):
        xs = np.linspace(-3.0, 3.0, 241)
        for mf in (TriangularMF(0, 1, 2), TriangularMF(-2, -2, 1), TriangularMF(-1, 2, 2)):
            degs = mf_eval(mf, xs)
            assert [d.hex() for d in degs.tolist()] == [degree(mf, x).hex() for x in xs.tolist()], mf
        np.testing.assert_allclose(mf_eval(TriangularMF(0, 1, 2), [-1.0, 0.5, 1.0, 1.5, 3.0]), [0, 0.5, 1, 0.5, 0])

    def test_bounded_and_continuous(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = np.sort(rng.uniform(-5, 5, 2))
            m = rng.uniform(a, b)
            var = holding(TriangularMF(a, m, b))
            # piecewise-linear => Lipschitz with constant 1/min half-width
            lip = 1.0 / min(x for x in (m - a, b - m) if x > 0)
            eps = 1e-7
            for x in rng.uniform(-6, 6, 50):
                deg = fuzzify(var, x)[0]
                assert 0.0 <= deg <= 1.0
                assert abs(fuzzify(var, x + eps)[0] - deg) <= lip * eps * 1.01 + 1e-12

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
            assert degrees == min_max_degrees(var, x)
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


def min_max_degrees(var, x):
    """``fuzzify``'s degrees written with the ``min`` and ``max`` builtins
    whose comparisons its conditional expressions make, numpy-free."""
    xc = min(max(x, var.lo), var.hi)
    degrees = []
    for t in var.terms:
        up = 1.0 if t.mf.is_left_shoulder else (xc - t.mf.left) / (t.mf.peak - t.mf.left)
        down = 1.0 if t.mf.is_right_shoulder else (t.mf.right - xc) / (t.mf.right - t.mf.peak)
        degrees.append(min(max(min(up, down), 0.0), 1.0))
    return tuple(degrees)


class TestTableDrivenFuzzify:
    @pytest.mark.parametrize("name", sorted(table_cases()))
    def test_hex_equal_to_scalar_mf_eval(self, name):
        var = table_cases()[name]
        for x in probe_points(var, seed=19):
            want = [mf_eval(t.mf, var.clamp(x)).hex() for t in var.terms]
            assert [d.hex() for d in fuzzify(var, x)] == want, x

    @pytest.mark.parametrize("name", sorted(table_cases()))
    def test_hex_equal_to_plain_python_min_max(self, name):
        var = table_cases()[name]
        for x in probe_points(var, seed=23):
            want = [d.hex() for d in min_max_degrees(var, x)]
            assert [d.hex() for d in fuzzify(var, x)] == want, x
            assert var.clamp(x).hex() == min(max(x, var.lo), var.hi).hex(), x

    def test_membership_imports_no_numpy(self):
        # membership.py has no relative imports, so it loads on its own
        code = f"""
import importlib.util, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("membership", {membership.__file__!r})
mod = importlib.util.module_from_spec(spec)
sys.modules["membership"] = mod
spec.loader.exec_module(mod)
print(mod.fuzzify(mod.uniform_variable("d", 0.0, 2.0, ("Z", "M", "F")), 1.5))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["(0.0,", "0.5,", "0.5)"]


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
        assert fuzzify(var, -3.0) == (1.0, 0.0, 0.0)
        assert fuzzify(var, 3.0) == (0.0, 0.0, 1.0)
        assert sum(fuzzify(var, -2.0)) == 1.0

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError, match="peak span"):
            uniform_variable("a", 0.0, 1.0, ("x", "y"), peak_span=(-0.5, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lo", "hi"])
    def test_rejects_non_finite_bound_by_name(self, field, bad):
        bounds = {"lo": 0.0, "hi": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"^variable 'x': {field} must be finite, got {bad}$"):
            uniform_variable("x", labels=("a", "b", "c"), **bounds)


def linspace_hex(a, b, n):
    return [float(p).hex() for p in np.linspace(a, b, n)]


def peaks_hex(var):
    return [t.mf.peak.hex() for t in var.terms]


class TestUniformPeaksMatchLinspace:
    """The peaks are ``np.linspace`` over the span, bit for bit."""

    BANDS = (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, math.pi)
    D_MAX = (0.5, 1.0, 3.0, 24.41, 25.0)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_builtin_span(self, n):
        labels = tuple(f"T{i}" for i in range(n))
        for band in self.BANDS:
            var = uniform_variable("angle", -math.pi, math.pi, labels, peak_span=(-band, band))
            assert peaks_hex(var) == linspace_hex(-band, band, n), band
        for hi in self.D_MAX + (1.0, 2.0, DEFAULT_V_MAX):
            assert peaks_hex(uniform_variable("v", 0.0, hi, labels)) == linspace_hex(0.0, hi, n), hi

    def test_seeded_spans(self):
        rng = random.Random(2024)
        for _ in range(5000):
            n = rng.randrange(2, 10)
            scale = 10.0 ** rng.uniform(-6, 6)
            a, b = sorted((rng.uniform(-scale, scale), rng.uniform(-scale, scale)))
            if a == b:
                continue
            var = uniform_variable("v", a, b, tuple(f"T{i}" for i in range(n)))
            assert peaks_hex(var) == linspace_hex(a, b, n), (a, b, n)

    def test_span_whose_step_underflows_is_rejected(self):
        # 1e-323 / 6 rounds to 0.0, where np.linspace switches formula;
        # both peak lists repeat a peak, so a triangle has no support
        labels = tuple(f"T{i}" for i in range(7))
        with pytest.raises(ValueError, match="^triangle must have nonzero support$"):
            uniform_variable("v", 0.0, 1.0, labels, peak_span=(0.0, 1e-323))
        p = [float(x) for x in np.linspace(0.0, 1e-323, 7)]
        with pytest.raises(ValueError, match="^triangle must have nonzero support$"):
            TriangularMF(p[0], p[0], p[1])
