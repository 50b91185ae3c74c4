"""Rule grids for the goal-seeking controller.

Three built-in rule bases are shipped, with 3, 5 and 7 membership functions
per variable (9, 25 and 49 rules).  The grids are fixed reference data and
are kept verbatim, irregular cells included; see ``docs/rule_format.md`` for
the text format used to express external rule bases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ._limits import require_finite
from .engine import CompiledRuleBase
from .membership import LinguisticVariable, uniform_variable

__all__ = [
    "Rule",
    "RuleBase",
    "builtin",
    "BUILTIN_SIZES",
    "DEFAULT_D_MAX",
    "DEFAULT_V_MAX",
    "DEFAULT_ANGLE_BAND",
]

DEFAULT_D_MAX = 25.0
DEFAULT_V_MAX = 2.0

# Angle peaks are concentrated on [-pi/6, pi/6] with the edge terms
# saturated out to +/-pi.  Spreading the peaks across the whole universe
# starves the controller of steering authority: with max aggregation the
# small clip a moderate heading error puts on the turn rules is masked by
# the straight-ahead row's clips, and the closed loop settles into a limit
# cycle around the goal instead of entering it.
DEFAULT_ANGLE_BAND = math.pi / 6


class Rule(NamedTuple):
    """One grid cell: (angle term, distance term) -> (right term, left term)."""

    angle_term: str
    distance_term: str
    right_term: str
    left_term: str


@dataclass(frozen=True)
class RuleBase:
    """A complete two-input, two-output rule grid with its four variables.

    Construction checks that each output universe is at least 1e-6 wide,
    then that every label resolves and every (angle term, distance term)
    cell holds exactly one rule, or raises one ValueError listing every
    problem, joined by ``"; "``, as ``parse_rulebase`` words them.
    """

    angle_var: LinguisticVariable
    distance_var: LinguisticVariable
    right_var: LinguisticVariable
    left_var: LinguisticVariable
    rules: tuple[Rule, ...]

    def __post_init__(self):
        _check_output(self.right_var)
        _check_output(self.left_var)
        indices, problems = _resolve((self.angle_var, self.distance_var, self.right_var, self.left_var), self.rules)
        if problems:
            raise ValueError("; ".join(p.message for p in problems))
        # each rule's (angle, distance, right, left) term indices, for the compile
        object.__setattr__(self, "_indices", indices)

    @cached_property
    def compiled(self) -> CompiledRuleBase:
        """Built for inference on first use."""
        return CompiledRuleBase.of(self.angle_var, self.distance_var, self.right_var, self.left_var, self._indices)


def _check_output(var: LinguisticVariable):
    """Raise ValueError naming an output variable narrower than the floor,
    whose fired terms could enclose no area above the zero-area tolerance."""
    require_finite(f"variable '{var.name}': universe width hi - lo", var.hi - var.lo, floored=True)


# Built-in grids.  Rows are angle terms, columns are distance terms in the
# column order given below (far side first, near-zero last).  The two cells
# marked with a trailing comment appear as the bare label "VF" in the
# upstream tables; the 7-set output vocabulary has no "VF", so they are
# normalised to "VF1" ("Very Fast").

_ANGLE_3 = ("N", "Z", "P")
_DIST_COLS_3 = ("F", "M", "Z")
_OUT_3 = ("S", "M", "F")  # slow to fast
_RIGHT_3 = {
    "N": ("M", "M", "S"),
    "Z": ("F", "M", "S"),
    "P": ("F", "F", "F"),
}
_LEFT_3 = {
    "N": ("F", "F", "M"),
    "Z": ("F", "M", "S"),
    "P": ("M", "M", "S"),
}

_ANGLE_5 = ("SN", "N", "Z", "P", "BP")
_DIST_COLS_5 = ("VF", "F", "M", "N", "Z")
_OUT_5 = ("VS", "S", "M", "F", "VF")
_RIGHT_5 = {
    "SN": ("M", "S", "VS", "VS", "VS"),
    "N": ("F", "M", "S", "VS", "VS"),
    "Z": ("VF", "F", "M", "S", "VS"),
    "P": ("VF", "F", "M", "S", "S"),
    "BP": ("VF", "F", "F", "M", "M"),
}
_LEFT_5 = {
    "SN": ("VF", "F", "F", "M", "M"),
    "N": ("VF", "F", "M", "S", "S"),
    "Z": ("VF", "F", "M", "S", "VS"),
    "P": ("F", "M", "S", "VS", "VS"),
    "BP": ("M", "S", "VS", "VS", "VS"),
}

_ANGLE_7 = ("VSN", "SN", "N", "Z", "P", "BP", "VBP")
_DIST_COLS_7 = ("VBP", "VF", "F", "M", "N", "VNZ", "Z")
_OUT_7 = ("VS2", "VS1", "S", "M", "F", "VF1", "VF2")
_RIGHT_7 = {
    "VSN": ("M", "F", "S", "VS1", "VS1", "VS2", "VS2"),
    "SN": ("F", "M", "S", "VS1", "VS1", "VS1", "VS2"),
    "N": ("VF1", "F", "M", "S", "VS1", "VS1", "VS2"),
    "Z": ("VF2", "VF1", "F", "M", "S", "VS1", "VS2"),
    "P": ("VF2", "VF1", "F", "M", "S", "S", "VS1"),
    "BP": ("VF2", "VF1", "F", "F", "M", "M", "S"),
    "VBP": ("VF2", "VF2", "VF1", "F", "M", "M", "S"),  # col F printed "VF"
}
_LEFT_7 = {
    "VSN": ("VF2", "VF2", "VF1", "F", "M", "M", "S"),  # col F printed "VF"
    "SN": ("VF2", "VF1", "F", "F", "M", "M", "S"),
    "N": ("VF2", "VF1", "F", "M", "S", "S", "VS1"),
    "Z": ("VF2", "VF1", "F", "M", "S", "VS1", "VS2"),
    "P": ("VF1", "F", "M", "S", "VS1", "VS1", "VS2"),
    "BP": ("F", "M", "S", "VS1", "VS1", "VS1", "VS2"),
    "VBP": ("M", "F", "S", "VS1", "VS1", "VS2", "VS2"),
}

_GRIDS = {
    3: (_ANGLE_3, _DIST_COLS_3, _OUT_3, _RIGHT_3, _LEFT_3),
    5: (_ANGLE_5, _DIST_COLS_5, _OUT_5, _RIGHT_5, _LEFT_5),
    7: (_ANGLE_7, _DIST_COLS_7, _OUT_7, _RIGHT_7, _LEFT_7),
}
BUILTIN_SIZES = tuple(_GRIDS)


def builtin(
    n_mfs: int,
    d_max: float = DEFAULT_D_MAX,
    v_max: float = DEFAULT_V_MAX,
    angle_band: float = DEFAULT_ANGLE_BAND,
) -> RuleBase:
    """Built-in rule base with ``n_mfs`` in {3, 5, 7} terms per variable.

    Variable layout (the grids themselves publish no breakpoints, so this
    is the package's documented default):

    * angle error on [-pi, pi]; peaks uniform over [-angle_band,
      angle_band] in grid row order, edge terms saturated to the universe
      boundary;
    * distance error on [0, d_max], terms from near-zero to far
      (the reverse of the grid column order);
    * both wheel velocities on [0, v_max], terms from slow to fast;
    * all partitions uniform with 50% overlap and shoulder edge terms.

    ``d_max`` and ``v_max`` must lie in [1e-6, 1e6].
    """
    if n_mfs not in _GRIDS:
        raise ValueError(f"no built-in rule base of size {n_mfs}; choose one of {BUILTIN_SIZES}")
    for name, value in (("d_max", d_max), ("v_max", v_max)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
        require_finite(name, value, bounded=True, floored=True)
    if not 0 < angle_band <= math.pi:
        raise ValueError(f"angle_band must lie in (0, pi], got {angle_band}")
    angle_labels, dist_cols, out_labels, right_grid, left_grid = _GRIDS[n_mfs]
    angle = uniform_variable(
        "angle", -math.pi, math.pi, angle_labels, peak_span=(-angle_band, angle_band)
    )
    distance = uniform_variable("distance", 0.0, d_max, tuple(reversed(dist_cols)))
    right = uniform_variable("right", 0.0, v_max, out_labels)
    left = uniform_variable("left", 0.0, v_max, out_labels)
    rules = []
    for a in angle_labels:
        for d in distance.labels:  # near-zero to far, matching term order
            ci = dist_cols.index(d)
            rules.append(Rule(a, d, right_grid[a][ci], left_grid[a][ci]))
    return RuleBase(angle, distance, right, left, tuple(rules))


class _Problem(NamedTuple):
    """A grid problem: ``rule`` indexes the rules (None for a missing cell),
    ``role`` names an unresolved label's column, and ``first`` indexes the
    rule that first defined a duplicated cell.
    """

    message: str
    rule: int | None = None
    role: str | None = None
    first: int | None = None


_COLUMNS = (("antecedent", "angle"), ("antecedent", "distance"),
            ("consequent", "right"), ("consequent", "left"))


def _resolve(variables: tuple, rules: tuple) -> tuple[tuple[tuple[int, int, int, int], ...], list[_Problem]]:
    """Resolve every rule against the (angle, distance, right, left)
    variables to its four term indices, and list the grid problems:
    unresolved labels (index -1), duplicate cells and missing cells, in
    rule order with missing cells last.
    """
    positions = [{label: i for i, label in enumerate(var.labels)} for var in variables]
    indices = tuple(tuple(pos.get(label, -1) for pos, label in zip(positions, r)) for r in rules)
    problems: list[_Problem] = []
    first: dict[tuple[str, str], int] = {}
    for n, r in enumerate(rules):
        for (kind, role), pos, label in zip(_COLUMNS, positions, r):
            if label not in pos:
                problems.append(_Problem(f"unresolved {kind}: {role} term '{label}' not defined", n, role))
        cell = (r.angle_term, r.distance_term)
        if cell in first:
            problems.append(_Problem(f"duplicate cell: ({cell[0]}, {cell[1]})", n, first=first[cell]))
        else:
            first[cell] = n
    problems += [_Problem(f"incomplete grid: ({a}, {d}) undefined")
                 for a in variables[0].labels for d in variables[1].labels if (a, d) not in first]
    return indices, problems
