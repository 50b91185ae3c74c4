import hashlib
import random

import pytest

from fuzzynav import RuleBase, RuleDefinitionError, builtin, parse_rulebase, render_rulebase, uniform_variable


MINIMAL = """\
# tiny but complete 2x2 grid
var angle range -3.14 3.14
var distance range 0.0 10.0
var right range 0.0 2.0
var left range 0.0 2.0
term angle NEG tri -3.14 -3.14 3.14
term angle POS tri -3.14 3.14 3.14
term distance D tri 0.0 0.0 10.0  # left shoulder
term distance E tri 0.0 10.0 10.0
term right GO tri 0.0 0.0 2.0
term right HI tri 0.0 2.0 2.0
term left GO tri 0.0 0.0 2.0
term left HI tri 0.0 2.0 2.0
rule if angle is NEG and distance is D then right is GO, left is GO
rule if angle is NEG and distance is E then right is HI, left is HI
rule if angle is POS and distance is D then right is GO, left is HI
rule if angle is POS and distance is E then right is HI, left is GO
"""


TERM_SHAPE = "expected 'term <var> <label> tri <left> <peak> <right>'"


def issues_of(text):
    with pytest.raises(RuleDefinitionError) as excinfo:
        parse_rulebase(text)
    return excinfo.value.issues


def test_rule_definition_error_is_a_value_error():
    assert issubclass(RuleDefinitionError, ValueError)
    with pytest.raises(ValueError, match="^no variables defined$"):
        parse_rulebase("")


class TestRoundTrip:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_builtin_round_trips_structurally(self, n):
        rb = builtin(n)
        assert parse_rulebase(render_rulebase(rb)) == rb

    def test_minimal_file_parses_and_validates(self):
        rb = parse_rulebase(MINIMAL)
        assert len(rb.rules) == 4

    def test_render_is_canonical_fixed_point(self):
        text = render_rulebase(builtin(5))
        assert render_rulebase(parse_rulebase(text)) == text

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_a_permuted_file_renders_as_written(self, n, seed):
        # each variable's term lines and the rule lines shuffled in place:
        # the render keeps the order it was given, and parses back to its base
        rng = random.Random(seed)
        lines = render_rulebase(builtin(n)).splitlines()
        for prefix in ("term angle ", "term distance ", "term right ", "term left ", "rule "):
            at = [i for i, line in enumerate(lines) if line.startswith(prefix)]
            for i, line in zip(at, rng.sample([lines[i] for i in at], len(at))):
                lines[i] = line
        text = "\n".join(lines) + "\n"
        rb = parse_rulebase(text)
        assert render_rulebase(rb) == text
        assert parse_rulebase(render_rulebase(rb)) == rb

    def test_comments_and_blank_lines_ignored(self):
        noisy = "\n\n# a comment\n" + MINIMAL.replace("var distance", "\nvar distance")
        assert parse_rulebase(noisy) == parse_rulebase(MINIMAL)


class TestParseErrors:
    def test_missing_cell_names_the_cell(self):
        text = render_rulebase(builtin(3))
        lines = [ln for ln in text.splitlines() if "angle is P and distance is M" not in ln]
        issues = issues_of("\n".join(lines))
        assert [i.message for i in issues] == ["incomplete grid: (P, M) undefined"]

    def test_unknown_term_names_term_and_line(self):
        bad = MINIMAL.replace(
            "rule if angle is NEG and distance is D then right is GO, left is GO",
            "rule if angle is NEG and distance is XX then right is GO, left is GO",
        )
        issues = issues_of(bad)
        assert any(
            i.message == "unresolved antecedent: distance term 'XX' not defined" and i.line == 14 and i.col is not None
            for i in issues
        )

    def test_unknown_variable_in_term_line(self):
        bad = MINIMAL + "term speed S tri 0.0 1.0 2.0\n"
        issues = issues_of(bad)
        assert any(i.message == "unknown variable 'speed'" for i in issues)

    def test_duplicate_cell_reported_with_both_lines(self):
        bad = MINIMAL + "rule if angle is NEG and distance is D then right is GO, left is GO\n"
        issues = issues_of(bad)
        assert any("duplicate cell: (NEG, D)" in i.message and i.line == 18 for i in issues)

    def test_empty_file(self):
        issues = issues_of("")
        assert [i.message for i in issues] == ["no variables defined"]

    def test_missing_role_variable(self):
        bad = "\n".join(ln for ln in MINIMAL.splitlines() if not ln.startswith("var left") and "term left" not in ln)
        issues = issues_of(bad)
        assert any(i.message == "variable 'left' not defined" for i in issues)

    def test_syntax_error_position(self):
        issues = issues_of("var angle range -1 oops\n")
        (issue,) = issues
        assert issue.line == 1 and issue.col == 20
        assert "oops" in issue.message

    def test_unexpected_keyword(self):
        issues = issues_of("frobnicate the robot\n")
        assert any("frobnicate" in i.message for i in issues)

    def test_bad_triangle_reported_at_term_line(self):
        bad = MINIMAL.replace("term right GO tri 0.0 0.0 2.0", "term right GO tri 2.0 1.0 0.0")
        issues = issues_of(bad)
        assert any(i.line == 10 and "left <= peak <= right" in i.message for i in issues)

    def test_coverage_gap_reported_at_var_line(self):
        bad = MINIMAL.replace("term distance D tri 0.0 0.0 10.0  # left shoulder",
                              "term distance D tri 4.0 5.0 6.0")
        issues = issues_of(bad)
        assert any(i.line == 3 and "cover" in i.message for i in issues)

    @pytest.mark.parametrize(
        "old,new,expected",
        [
            (old, new.format(token), (f"expected a finite number for {what}, found '{token}'", line, col))
            for token in ("inf", "-inf", "nan", "1e999")
            for old, new, what, line, col in (
                ("var right range 0.0 2.0", "var right range {} 2.0", "range low", 4, 17),
                ("term right GO tri 0.0 0.0 2.0", "term right GO tri {} 0.0 2.0", "breakpoint", 10, 19),
            )
        ] + [
            # a malformed line for a declared role: the role is not built,
            # so its other lines add no reports
            ("var right range 0.0 2.0", "var right range 0.0", ("expected 'var <name> range <lo> <hi>'", 4, 1)),
            ("term right GO tri 0.0 0.0 2.0", "term right GO tri 0.0 0.0 2.0 extra", (TERM_SHAPE, 10, 1)),
            ("term right GO tri 0.0 0.0 2.0", "term right GO trap 0.0 0.0 2.0", (TERM_SHAPE, 10, 1)),
            # a declared role with no term lines, reported at its var line
            ("term right GO tri 0.0 0.0 2.0\nterm right HI tri 0.0 2.0 2.0\n", "",
             ("variable 'right' has no terms", 4, None)),
        ],
    )
    def test_one_bad_line_gives_one_diagnostic(self, old, new, expected):
        issues = issues_of(MINIMAL.replace(old, new))
        assert [(i.message, i.line, i.col) for i in issues] == [expected]

    def test_error_str_carries_position(self):
        issues = issues_of("var angle range -1 oops\n")
        assert str(issues[0]).startswith("line 1, col 20:")


def _defects():
    """Rule lists over builtin(3)'s variables, one per grid defect."""
    rules = list(builtin(3).rules)
    return {
        "unknown antecedent": [rules[0]._replace(angle_term="QQ")] + rules[1:],
        "unknown consequent": rules[:4] + [rules[4]._replace(left_term="XX")] + rules[5:],
        "duplicate cell": rules + [rules[4]._replace(right_term="S")],
        "missing cell": rules[:7] + rules[8:],
    }


def _rules_text(rules):
    """builtin(3)'s variable and term lines followed by one line per rule."""
    head = [ln for ln in render_rulebase(builtin(3)).splitlines() if not ln.startswith("rule ")]
    body = [f"rule if angle is {a} and distance is {d} then right is {r}, left is {l}" for a, d, r, l in rules]
    return "\n".join(head + body) + "\n"


class TestOneGridCheck:
    """The ``RuleBase`` constructor and the parser report grid problems through one check."""

    @pytest.mark.parametrize("defect", sorted(_defects()))
    def test_constructor_and_parser_report_the_same_messages(self, defect):
        rules = _defects()[defect]
        rb = builtin(3)
        with pytest.raises(ValueError) as excinfo:
            RuleBase(rb.angle_var, rb.distance_var, rb.right_var, rb.left_var, tuple(rules))
        expected = str(excinfo.value).split("; ")
        parsed = [i.message.split(" first defined on line ")[0] for i in issues_of(_rules_text(rules))]
        assert parsed == expected

    def test_unknown_consequent_is_one_diagnostic_at_its_label(self):
        bad = MINIMAL.replace(
            "rule if angle is POS and distance is D then right is GO, left is HI",
            "rule if angle is POS and distance is D then right is XX, left is HI",
        )
        issues = issues_of(bad)
        assert [(i.message, i.line, i.col) for i in issues] == [
            ("unresolved consequent: right term 'XX' not defined", 16, 54)
        ]

    def test_duplicate_names_the_first_definition_line(self):
        bad = MINIMAL + "rule if angle is NEG and distance is D then right is HI, left is HI\n"
        issues = issues_of(bad)
        assert [(i.message, i.line, i.col) for i in issues] == [
            ("duplicate cell: (NEG, D) first defined on line 14", 18, 18)
        ]


class TestRenderedShape:
    @pytest.mark.parametrize("label", ["very slow", "S#1", "S,1", ""])
    def test_label_that_is_not_one_token_is_refused_by_name(self, label):
        rb = builtin(3)
        right = uniform_variable("right", 0.0, 2.0, (label, "M", "F"))
        rules = tuple(r._replace(right_term=label) if r.right_term == "S" else r for r in rb.rules)
        with pytest.raises(ValueError, match=f"^variable 'right': term label {label!r} is not one rules-format token$"):
            render_rulebase(RuleBase(rb.angle_var, rb.distance_var, right, rb.left_var, rules))

    def test_rule_lines_count(self):
        for n, count in ((3, 9), (5, 25), (7, 49)):
            text = render_rulebase(builtin(n))
            rule_lines = [ln for ln in text.splitlines() if ln.startswith("rule ")]
            assert len(rule_lines) == count

    def test_builtin_terms_are_declared_in_peak_order(self):
        text = render_rulebase(builtin(3))
        angle_terms = [ln.split() for ln in text.splitlines() if ln.startswith("term angle")]
        peaks = [float(parts[4 + 1]) for parts in angle_terms]  # tri <left> <peak> <right>
        assert peaks == sorted(peaks)


# declared out of peak order and with the rules out of grid order: the
# render writes both as declared
SHUFFLED = """\
var angle range -3.0 3.0
var distance range 0.0 10.0
var right range 0.0 2.0
var left range 0.0 2.0
term angle POS tri 0.0 3.0 3.0
term angle NEG tri -3.0 -3.0 0.0
term angle ZERO tri -3.0 0.0 3.0
term distance FAR tri 0.0 10.0 10.0
term distance NEAR tri 0.0 0.0 10.0
term right GO tri 0.0 2.0 2.0
term right STOP tri 0.0 0.0 2.0
term left STOP tri 0.0 0.0 2.0
term left GO tri 0.0 2.0 2.0
rule if angle is ZERO and distance is NEAR then right is STOP, left is STOP
rule if angle is NEG and distance is FAR then right is STOP, left is GO
rule if angle is POS and distance is NEAR then right is GO, left is STOP
rule if angle is ZERO and distance is FAR then right is GO, left is GO
rule if angle is NEG and distance is NEAR then right is STOP, left is STOP
rule if angle is POS and distance is FAR then right is GO, left is STOP
"""


def test_shuffled_file_renders_to_its_own_text():
    assert render_rulebase(parse_rulebase(SHUFFLED)) == SHUFFLED


@pytest.mark.parametrize("name, digest", [
    ("builtin(3)", "c8c78570035bb2e7ad11f8e3a416da7442c86ff17ab50b317425b26f6eb169aa"),
    ("builtin(5)", "72946b2db4e4ebcd5820a12f307b65c85d0c6615e22e5187af18f2da902f81de"),
    ("builtin(7)", "4fa82c2cbdc9a9987e20df0b0e8e955dc245ac9c920d003ea31d05a311d3a15e"),
])
def test_rendered_bytes_are_pinned(name, digest):
    rb = builtin(int(name[-2]))
    assert hashlib.sha256(render_rulebase(rb).encode("utf-8")).hexdigest() == digest
