import math

import pytest

from fuzzynav import Rule, RuleBase, builtin, validate
from fuzzynav.rulebase import DEFAULT_ANGLE_BAND

from golden_tables import GOLDEN


class TestBuiltinGrids:
    @pytest.mark.parametrize("n,count", [(3, 9), (5, 25), (7, 49)])
    def test_rule_counts(self, n, count):
        assert len(builtin(n).rules) == count

    def test_three_mf_example_rules(self):
        rb = builtin(3)
        # R1: angle N, distance F -> right M, left F
        assert rb.consequents("N", "F") == ("M", "F")
        # R2: angle N, distance M -> right M, left F
        assert rb.consequents("N", "M") == ("M", "F")

    def test_five_mf_example_rules(self):
        rb = builtin(5)
        # R1: angle SN, distance VF -> right M, left VF
        assert rb.consequents("SN", "VF") == ("M", "VF")
        # R2: angle SN, distance F -> right S, left F
        assert rb.consequents("SN", "F") == ("S", "F")

    def test_seven_mf_example_rules(self):
        rb = builtin(7)
        # R1: angle VSN, distance VBP -> right M, left VF2
        assert rb.consequents("VSN", "VBP") == ("M", "VF2")
        # R2: angle VSN, distance VF -> right F, left VF2
        assert rb.consequents("VSN", "VF") == ("F", "VF2")

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_every_cell_matches_golden_transcription(self, n):
        rb = builtin(n)
        right, left = GOLDEN[n]
        for (angle, dist), expected in right.items():
            assert rb.consequents(angle, dist)[0] == expected, f"right cell ({angle}, {dist})"
        for (angle, dist), expected in left.items():
            assert rb.consequents(angle, dist)[1] == expected, f"left cell ({angle}, {dist})"
        assert len(right) == len(left) == len(rb.rules)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_builtins_validate_clean(self, n):
        assert validate(builtin(n)) == []

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="3, 5, 7"):
            builtin(4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="d_max"):
            builtin(3, d_max=0.0)
        with pytest.raises(ValueError, match="v_max"):
            builtin(3, v_max=-1.0)
        with pytest.raises(ValueError, match="angle_band"):
            builtin(3, angle_band=4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["d_max", "v_max"])
    def test_non_finite_scale_rejected_by_name(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
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


class TestValidate:
    def test_duplicate_cell_reported_once(self):
        rb = builtin(3)
        dup = RuleBase(
            rb.angle_var, rb.distance_var, rb.right_var, rb.left_var,
            rb.rules + (Rule("Z", "Z", "S", "S"),),
        )
        messages = [i.message for i in validate(dup)]
        assert messages == ["duplicate cell: (Z, Z)"]

    def test_unresolved_consequent_reported_per_rule(self):
        rb = builtin(3)
        rules = list(rb.rules)
        rules[0] = rules[0]._replace(right_term="XX")
        rules[1] = rules[1]._replace(right_term="XX")
        broken = RuleBase(rb.angle_var, rb.distance_var, rb.right_var, rb.left_var, tuple(rules))
        messages = [i.message for i in validate(broken)]
        assert messages.count("unresolved consequent: right term 'XX' not defined") == 2

    def test_incomplete_grid_names_the_missing_cell(self):
        rb = builtin(3)
        shy = RuleBase(
            rb.angle_var, rb.distance_var, rb.right_var, rb.left_var,
            tuple(r for r in rb.rules if (r.angle_term, r.distance_term) != ("P", "M")),
        )
        messages = [i.message for i in validate(shy)]
        assert messages == ["incomplete grid: (P, M) undefined"]

    def test_unresolved_antecedent(self):
        rb = builtin(3)
        rules = rb.rules[:-1] + (rb.rules[-1]._replace(angle_term="QQ"),)
        broken = RuleBase(rb.angle_var, rb.distance_var, rb.right_var, rb.left_var, rules)
        messages = [i.message for i in validate(broken)]
        assert "unresolved antecedent: angle term 'QQ' not defined" in messages
