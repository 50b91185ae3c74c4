import math
import re
from dataclasses import replace

import pytest

from fuzzynav import Rule, RuleBase, builtin, infer, parse_rulebase, render_rulebase, rulebase, ruleformat
from fuzzynav.rulebase import DEFAULT_ANGLE_BAND

from golden_tables import GOLDEN


def cells(rb):
    """{(angle, distance): (right, left)} consequent labels of every rule."""
    return {(a, d): (r, l) for a, d, r, l in rb.rules}


class TestBuiltinGrids:
    @pytest.mark.parametrize("n,count", [(3, 9), (5, 25), (7, 49)])
    def test_rule_counts(self, n, count):
        assert len(builtin(n).rules) == count

    def test_three_mf_example_rules(self):
        grid = cells(builtin(3))
        # R1: angle N, distance F -> right M, left F
        assert grid["N", "F"] == ("M", "F")
        # R2: angle N, distance M -> right M, left F
        assert grid["N", "M"] == ("M", "F")

    def test_five_mf_example_rules(self):
        grid = cells(builtin(5))
        # R1: angle SN, distance VF -> right M, left VF
        assert grid["SN", "VF"] == ("M", "VF")
        # R2: angle SN, distance F -> right S, left F
        assert grid["SN", "F"] == ("S", "F")

    def test_seven_mf_example_rules(self):
        grid = cells(builtin(7))
        # R1: angle VSN, distance VBP -> right M, left VF2
        assert grid["VSN", "VBP"] == ("M", "VF2")
        # R2: angle VSN, distance VF -> right F, left VF2
        assert grid["VSN", "VF"] == ("F", "VF2")

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_every_cell_matches_golden_transcription(self, n):
        rb = builtin(n)
        grid = cells(rb)
        right, left = GOLDEN[n]
        for (angle, dist), expected in right.items():
            assert grid[angle, dist][0] == expected, f"right cell ({angle}, {dist})"
        for (angle, dist), expected in left.items():
            assert grid[angle, dist][1] == expected, f"left cell ({angle}, {dist})"
        assert len(right) == len(left) == len(grid) == len(rb.rules)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_builtins_compile_one_consequent_pair_per_cell(self, n):
        rb = builtin(n)
        cells = rb._cells
        assert [len(row) for row in cells] == [len(rb.distance_var.terms)] * len(rb.angle_var.terms)
        assert all(isinstance(r, int) and isinstance(l, int) for row in cells for r, l in row)

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="3, 5, 7"):
            builtin(4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="d_max"):
            builtin(3, d_max=0.0)
        with pytest.raises(ValueError, match="v_max"):
            builtin(3, v_max=-1.0)

    @pytest.mark.parametrize("bad", [4.0, 0.0, math.nan])
    def test_angle_band_rejected_with_its_value(self, bad):
        with pytest.raises(ValueError, match=rf"^angle_band must lie in \(0, pi\], got {bad}$"):
            builtin(3, angle_band=bad)

    def test_angle_band_of_pi_is_accepted(self):
        # the band is (0, pi]: at pi the outer peaks sit on the universe edges
        peaks = [t.mf.peak for t in builtin(3, angle_band=math.pi).angle_var.terms]
        assert peaks == [-math.pi, 0.0, math.pi]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("field", ["d_max", "v_max"])
    def test_non_finite_scale_rejected_by_name(self, field, bad):
        # the size floor rejects 0.0 and every other value <= 0
        message = "must be finite" if not math.isfinite(bad) else "must be at least 1e-06"
        with pytest.raises(ValueError, match=re.escape(f"{field} {message}, got {bad}") + "$"):
            builtin(3, **{field: bad})


class TestBuiltinLayout:
    def test_angle_universe_and_banded_peaks(self):
        rb = builtin(5)
        assert (rb.angle_var.lo, rb.angle_var.hi) == (-math.pi, math.pi)
        peaks = [t.mf.peak for t in rb.angle_var.terms]
        assert peaks[0] == -DEFAULT_ANGLE_BAND and peaks[-1] == DEFAULT_ANGLE_BAND
        # symmetric about zero, centre term peaking at exactly 0
        assert all(math.isclose(p, -q, abs_tol=1e-15) for p, q in zip(peaks, reversed(peaks)))
        assert peaks[len(peaks) // 2] == 0.0

    def test_distance_terms_run_near_to_far(self):
        rb = builtin(7, d_max=24.41)
        assert rb.distance_var.labels == ("Z", "VNZ", "N", "M", "F", "VF", "VBP")
        peaks = [t.mf.peak for t in rb.distance_var.terms]
        assert peaks == sorted(peaks)
        assert peaks[0] == 0.0 and peaks[-1] == 24.41

    def test_velocity_terms_run_slow_to_fast(self):
        rb = builtin(5, v_max=2.0)
        assert rb.right_var.labels == ("VS", "S", "M", "F", "VF")
        assert rb.left_var.labels == rb.right_var.labels
        assert rb.right_var.terms[0].mf.peak == 0.0
        assert rb.right_var.terms[-1].mf.peak == 2.0

    def test_d_max_and_v_max_are_applied(self):
        rb = builtin(3, d_max=10.0, v_max=1.5)
        assert rb.distance_var.hi == 10.0
        assert rb.right_var.hi == 1.5


def grid_error(rules):
    """The message of the ValueError that building builtin(3)'s variables with ``rules`` raises."""
    rb = builtin(3)
    with pytest.raises(ValueError) as excinfo:
        RuleBase(rb.angle_var, rb.distance_var, rb.right_var, rb.left_var, tuple(rules))
    return str(excinfo.value)


class TestGridCheck:
    """A rule base is checked once, when it is built."""

    def test_duplicate_cell_reported_once(self):
        assert grid_error(builtin(3).rules + (Rule("Z", "Z", "S", "S"),)) == "duplicate cell: (Z, Z)"

    def test_unresolved_consequent_reported_per_rule(self):
        rules = list(builtin(3).rules)
        rules[0] = rules[0]._replace(right_term="XX")
        rules[1] = rules[1]._replace(right_term="XX")
        assert grid_error(rules).split("; ") == ["unresolved consequent: right term 'XX' not defined"] * 2

    def test_incomplete_grid_names_the_missing_cell(self):
        rules = [r for r in builtin(3).rules if (r.angle_term, r.distance_term) != ("P", "M")]
        assert grid_error(rules) == "incomplete grid: (P, M) undefined"

    def test_unresolved_antecedent(self):
        rules = builtin(3).rules
        message = grid_error(rules[:-1] + (rules[-1]._replace(angle_term="QQ"),))
        assert message.split("; ") == [
            "unresolved antecedent: angle term 'QQ' not defined",
            "incomplete grid: (P, F) undefined",
        ]

    def test_every_problem_listed_in_rule_order_with_missing_cells_last(self):
        rules = list(builtin(3).rules)
        rules = rules[1:] + [rules[4]._replace(distance_term="XX"), rules[5]]
        assert grid_error(rules).split("; ") == [
            "unresolved antecedent: distance term 'XX' not defined",
            "duplicate cell: (Z, F)",
            "incomplete grid: (N, Z) undefined",
        ]

    def test_replace_checks_the_new_rules(self):
        rb = builtin(3)
        with pytest.raises(ValueError, match=r"^incomplete grid: \(N, Z\) undefined; incomplete grid: \(N, M\) undefined; "
                                             r"incomplete grid: \(N, F\) undefined$"):
            replace(rb, rules=rb.rules[3:])
        with pytest.raises(ValueError, match=r"^duplicate cell: \(N, Z\)$"):
            replace(rb, rules=rb.rules + rb.rules[:1])
        assert replace(rb, rules=rb.rules) == rb

    def test_each_base_is_resolved_once_when_built(self, monkeypatch):
        calls = []

        def counting(*args, _resolve=rulebase._resolve):
            calls.append(args)
            return _resolve(*args)

        for module in (rulebase, ruleformat):
            monkeypatch.setattr(module, "_resolve", counting)
        text = render_rulebase(builtin(5))
        assert len(calls) == 1
        rb = parse_rulebase(text)
        assert len(calls) == 2
        infer(rb, 0.1, 3.0)
        assert len(calls) == 2
