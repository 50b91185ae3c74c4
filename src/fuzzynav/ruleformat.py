"""Line-oriented text format for rule bases.

Three statement kinds, one per line, with ``#`` comments and blank lines
ignored::

    var <name> range <lo> <hi>
    term <var> <label> tri <left> <peak> <right>
    rule if angle is <label> and distance is <label> then right is <label>, left is <label>

Variables are identified by role: a file must declare exactly the four
names ``angle``, ``distance``, ``right`` and ``left``.  Shoulder terms are
written by repeating a breakpoint (left == peak or peak == right).  The
renderer emits canonical form: variables in role order, terms sorted by
peak, rules in grid order.  See ``docs/rule_format.md`` for the grammar.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .membership import LinguisticVariable, Term, TriangularMF
from .rulebase import Rule, RuleBase, _check_output, _resolve

__all__ = ["Issue", "RuleDefinitionError", "parse_rulebase", "render_rulebase", "ROLE_NAMES"]

ROLE_NAMES = ("angle", "distance", "right", "left")

_TOKEN_RE = re.compile(r"[^\s,]+|,")

# rule line skeleton: literal keywords interleaved with the four labels
_RULE_SHAPE = (
    "rule", "if", "angle", "is", None, "and", "distance", "is", None,
    "then", "right", "is", None, ",", "left", "is", None,
)


@dataclass(frozen=True)
class Issue:
    """One problem in rule-definition text, optionally position-anchored."""

    message: str
    line: int | None = None
    col: int | None = None

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        if self.col is None:
            return f"line {self.line}: {self.message}"
        return f"line {self.line}, col {self.col}: {self.message}"


class RuleDefinitionError(ValueError):
    """Raised when rule-definition text cannot be parsed into a valid base."""

    def __init__(self, issues: list[Issue]):
        super().__init__("; ".join(str(i) for i in issues))
        self.issues = list(issues)


def _tokenize(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs; '#' starts a comment."""
    code = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(code)]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.issues: list[Issue] = []
        # role -> (line, lo, hi); a bad number is None
        self.var_decls: dict[str, tuple[int, float | None, float | None]] = {}
        # role -> list of (line, Term)
        self.term_decls: dict[str, list[tuple[int, Term]]] = {}
        # roles with a declaration (a `var` or `term` line) already reported
        # as bad: kept declared, so later lines naming them add no
        # diagnostics, but never built
        self.broken: set[str] = set()
        # (line, role -> label column, Rule)
        self.rule_decls: list[tuple[int, dict[str, int], Rule]] = []

    def fail(self, message: str, line: int | None = None, col: int | None = None):
        self.issues.append(Issue(message, line, col))

    def parse(self) -> RuleBase:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            tokens = _tokenize(raw)
            if not tokens:
                continue
            keyword, col = tokens[0]
            if keyword == "var":
                self._parse_var(lineno, tokens)
            elif keyword == "term":
                self._parse_term(lineno, tokens)
            elif keyword == "rule":
                self._parse_rule(lineno, tokens)
            else:
                self.fail(f"expected 'var', 'term' or 'rule', found '{keyword}'", lineno, col)

        variables = self._build_variables()
        if len(variables) < len(ROLE_NAMES):
            raise RuleDefinitionError(self.issues)  # skip the grid check's cascades
        rules = tuple(r for _, _, r in self.rule_decls)
        try:
            rb = RuleBase(*variables, rules)
        except ValueError:  # the grid check failed: report its problems at their positions
            for p in _resolve(variables, rules)[1]:
                line, cols, _ = self.rule_decls[p.rule] if p.rule is not None else (None, {}, None)
                if p.first is None:
                    self.fail(p.message, line, cols.get(p.role))
                else:
                    self.fail(f"{p.message} first defined on line {self.rule_decls[p.first][0]}", line, cols["angle"])
        if self.issues:
            raise RuleDefinitionError(self.issues)
        return rb

    def _float(self, token: str, lineno: int, col: int, what: str) -> float | None:
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            return value
        self.fail(f"expected a finite number for {what}, found '{token}'", lineno, col)
        return None

    def _parse_var(self, lineno: int, tokens: list[tuple[str, int]]):
        name, name_col = tokens[1] if len(tokens) > 1 else ("", 0)
        if len(tokens) != 5 or tokens[2][0] != "range":
            self.fail("expected 'var <name> range <lo> <hi>'", lineno, tokens[0][1])
            if name not in ROLE_NAMES or name in self.var_decls:
                return
            lo = hi = None  # a malformed role declaration declares the role, broken
        elif name not in ROLE_NAMES:
            self.fail(
                f"unexpected variable '{name}' (expected one of {', '.join(ROLE_NAMES)})",
                lineno, name_col,
            )
            return
        elif name in self.var_decls:
            self.fail(f"variable '{name}' already defined", lineno, name_col)
            return
        else:
            lo = self._float(tokens[3][0], lineno, tokens[3][1], "range low")
            hi = self._float(tokens[4][0], lineno, tokens[4][1], "range high")
        if lo is None or hi is None:
            self.broken.add(name)
        self.var_decls[name] = (lineno, lo, hi)
        self.term_decls.setdefault(name, [])

    def _parse_term(self, lineno: int, tokens: list[tuple[str, int]]):
        var_name, var_col = tokens[1] if len(tokens) > 1 else ("", 0)
        if len(tokens) != 7 or tokens[3][0] != "tri":
            self.fail("expected 'term <var> <label> tri <left> <peak> <right>'", lineno, tokens[0][1])
            if var_name in self.var_decls:
                self.broken.add(var_name)
            return
        if var_name not in self.var_decls:
            self.fail(f"unknown variable '{var_name}'", lineno, var_col)
            return
        label = tokens[2][0]
        breakpoints = [self._float(t, lineno, c, "breakpoint") for t, c in tokens[4:7]]
        if any(b is None for b in breakpoints):
            self.broken.add(var_name)
            return
        try:
            mf = TriangularMF(*breakpoints)
        except ValueError as exc:
            self.fail(str(exc), lineno, tokens[4][1])
            self.broken.add(var_name)
            return
        self.term_decls[var_name].append((lineno, Term(label, mf)))

    def _parse_rule(self, lineno: int, tokens: list[tuple[str, int]]):
        if len(tokens) != len(_RULE_SHAPE):
            self.fail(
                "expected 'rule if angle is <label> and distance is <label> "
                "then right is <label>, left is <label>'",
                lineno, tokens[0][1],
            )
            return
        labels: list[str] = []
        label_cols: list[int] = []
        for (token, col), expected in zip(tokens, _RULE_SHAPE):
            if expected is None:
                labels.append(token)
                label_cols.append(col)
            elif token != expected:
                self.fail(f"expected '{expected}', found '{token}'", lineno, col)
                return
        cols = dict(zip(("angle", "distance", "right", "left"), label_cols))
        self.rule_decls.append((lineno, cols, Rule(*labels)))

    def _build_variables(self) -> list[LinguisticVariable]:
        if not self.var_decls.keys() - self.broken:
            if not self.issues:
                self.fail("no variables defined")
            return []
        variables: list[LinguisticVariable] = []
        for role in ROLE_NAMES:
            if role not in self.var_decls:
                self.fail(f"variable '{role}' not defined")
                continue
            if role in self.broken:
                continue
            line, lo, hi = self.var_decls[role]
            terms = self.term_decls[role]
            if not terms:
                self.fail(f"variable '{role}' has no terms", line)
                continue
            try:
                var = LinguisticVariable(role, lo, hi, tuple(t for _, t in terms))
                if role in ("right", "left"):
                    _check_output(var)
                variables.append(var)
            except ValueError as exc:
                self.fail(str(exc), line)
        return variables


def parse_rulebase(text: str) -> RuleBase:
    """Parse rule-definition text into a validated RuleBase.

    Raises :class:`RuleDefinitionError` carrying every problem found, each
    with line (and where possible column) positions.
    """
    return _Parser(text).parse()


def render_rulebase(rb: RuleBase) -> str:
    """Canonical rule-definition text for ``rb``.

    Variables appear in role order, terms sorted by peak position, rules in
    grid order (angle-major).  Numbers use ``repr`` so values round-trip
    exactly; ``parse_rulebase(render_rulebase(rb))`` reproduces ``rb`` when
    its terms are already peak-ordered.

    A term label that is not one token (empty, or holding whitespace, ``,``
    or ``#``) would not parse back: ValueError names its variable and it.
    """
    variables = dict(zip(ROLE_NAMES, (rb.angle_var, rb.distance_var, rb.right_var, rb.left_var)))
    lines = []
    for role, var in variables.items():
        lines.append(f"var {role} range {var.lo!r} {var.hi!r}")
    for role, var in variables.items():
        for t in sorted(var.terms, key=lambda t: (t.mf.peak, t.mf.left, t.mf.right, t.label)):
            if _tokenize(t.label) != [(t.label, 1)]:
                raise ValueError(f"variable '{role}': term label {t.label!r} is not one rules-format token")
            lines.append(f"term {role} {t.label} tri {t.mf.left!r} {t.mf.peak!r} {t.mf.right!r}")
    for _, r in sorted(zip(rb._indices, rb.rules), key=lambda pair: pair[0][:2]):
        lines.append(
            f"rule if angle is {r.angle_term} and distance is {r.distance_term} "
            f"then right is {r.right_term}, left is {r.left_term}"
        )
    return "\n".join(lines) + "\n"
