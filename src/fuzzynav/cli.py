"""Command-line front end.

Subcommands: ``run`` one scenario, ``compare`` the three built-in
controllers on one scenario, ``validate`` a rule-definition file, and
``export-rules`` a built-in rule base to that format.  Outputs are
plot-ready CSV and JSON files; nothing depends on wall-clock time or
randomness, so identical invocations produce byte-identical artifacts.

Exit codes: 0 success (goal reached where applicable), 1 usage or
configuration error, 2 goal not reached, 3 rule-validation failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from functools import cache

from .rulebase import builtin, BUILTIN_SIZES
from .ruleformat import RuleDefinitionError, parse_rulebase, render_rulebase
from .simulation import (
    TrajectorySample,
    _read_text,
    compare,
    load_scenario,
    ordering_report,
    run,
)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_REACHED = 2
EXIT_INVALID_RULES = 3

CSV_HEADER = ",".join(TrajectorySample._fields)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _fmt_time(value: float | None, absent: str) -> str:
    return absent if value is None else _fmt(value)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# One trajectory row, a sample's fields in order: each ``%.9g`` writes the bytes of ``_fmt``.
_CSV_ROW = ",".join(["%.9g"] * len(TrajectorySample._fields))


def _write_trajectory_csv(path: str, trajectory: tuple[TrajectorySample, ...]):
    rows = [_CSV_ROW % s for s in trajectory]
    _write_text(path, "\n".join([CSV_HEADER, *rows]) + "\n")


def _write_json(path: str, data: dict):
    _write_text(path, json.dumps(data, indent=2) + "\n")


def cmd_run(scenario_path: str, controller: str | None, out_dir: str, quiet: bool = False) -> int:
    """Run one scenario and write its artifacts; returns the exit code."""
    csv_path = os.path.join(out_dir, "trajectory.csv")
    json_path = os.path.join(out_dir, "metrics.json")
    sc = load_scenario(scenario_path)
    if controller is not None:
        sc = replace(sc, controller=controller)
    trajectory, metrics = run(sc)
    os.makedirs(out_dir, exist_ok=True)
    _write_trajectory_csv(csv_path, tuple(trajectory))
    _write_json(json_path, asdict(metrics))
    if not quiet:
        state = "reached" if metrics.reached else "NOT reached"
        when = f" at t={_fmt(metrics.time_to_target)} s" if metrics.reached else ""
        print(f"goal {state}{when}; path length {_fmt(metrics.path_length)} m")
        print(f"trajectory: {csv_path}")
        print(f"metrics:    {json_path}")
    return EXIT_OK if metrics.reached else EXIT_NOT_REACHED


def _comparison_csv_row(entry) -> str:
    m = entry.metrics
    cells = (
        entry.controller,
        str(m.rule_count),
        _fmt_time(m.time_to_target, ""),
        _fmt_time(m.time_angle_aligned, ""),
        _fmt(m.path_length),
        "true" if m.reached else "false",
    )
    return ",".join(cells)


def cmd_compare(scenario_path: str, out_dir: str, quiet: bool = False) -> int:
    """Run the three built-in controllers on one scenario and write the table; returns the exit code."""
    sc = load_scenario(scenario_path)
    entries = compare(sc)
    rows = [{"controller": e.controller, "metrics": asdict(e.metrics)} for e in entries]
    ordering = ordering_report(entries)
    # the scenario as loaded, less the controller it names: compare runs the built-ins instead
    echo = {k: v for k, v in asdict(sc).items() if k != "controller"}
    csv_lines = ["controller,rule_count,time_to_target,time_angle_aligned,path_length,reached"]
    csv_lines += [_comparison_csv_row(e) for e in entries]
    os.makedirs(out_dir, exist_ok=True)
    for entry in entries:
        _write_trajectory_csv(os.path.join(out_dir, f"trajectory_{entry.controller}.csv"), entry.trajectory)
        _write_json(os.path.join(out_dir, f"metrics_{entry.controller}.json"), asdict(entry.metrics))
    _write_text(os.path.join(out_dir, "comparison.csv"), "\n".join(csv_lines) + "\n")
    _write_json(
        os.path.join(out_dir, "comparison.json"),
        {"scenario": echo, "rows": rows, "ordering": ordering},
    )

    if not quiet:
        print(f"{'ctrl':>4}  {'rules':>5}  {'t_target':>9}  {'t_aligned':>9}  {'path':>8}  reached")
        for entry in entries:
            m = entry.metrics
            t_target, t_align = _fmt_time(m.time_to_target, "-"), _fmt_time(m.time_angle_aligned, "-")
            print(
                f"{entry.controller:>4}  {m.rule_count:>5}  {t_target:>9}  {t_align:>9}  "
                f"{_fmt(m.path_length):>8}  {'yes' if m.reached else 'no'}"
            )
        if ordering["three_mf_fastest"] is None:
            print("fastest controller: undetermined (not all runs reached the goal)")
        else:
            held = "holds" if ordering["three_mf_fastest"] else "does not hold"
            print(f"fastest controller: {ordering['fastest']} (3-MF-fastest ranking {held})")

    return EXIT_OK if all(e.metrics.reached for e in entries) else EXIT_NOT_REACHED


def cmd_validate(rules_path: str, quiet: bool = False) -> int:
    """Parse and validate a rule-definition file; 0 iff it is clean."""
    try:
        rb = parse_rulebase(_read_text(rules_path))
    except RuleDefinitionError as exc:
        for issue in exc.issues:
            print(issue)
        return EXIT_INVALID_RULES
    if not quiet:
        print(f"OK: {len(rb.rules)} rules over {len(rb.angle_var.terms)}x{len(rb.distance_var.terms)} grid")
    return EXIT_OK


def cmd_export_rules(size: str, out_path: str, quiet: bool = False) -> int:
    """Write a built-in rule base in rule-definition form."""
    _write_text(out_path, render_rulebase(builtin(int(size))))
    if not quiet:
        print(f"wrote {out_path}")
    return EXIT_OK


@cache  # one per process: parsing keeps no state in the parser
def _build_parser() -> _Parser:
    parser = _Parser(prog="fuzzynav", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--controller", help="3, 5, 7 or a rules file (overrides the scenario)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--quiet", action="store_true")

    p_cmp = sub.add_parser("compare", help="run the built-in controllers on one scenario")
    p_cmp.add_argument("--scenario", required=True, help="scenario JSON file")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument("--quiet", action="store_true")

    p_val = sub.add_parser("validate", help="check a rule-definition file")
    p_val.add_argument("rules", help="rule-definition file")
    p_val.add_argument("--quiet", action="store_true")

    p_exp = sub.add_parser("export-rules", help="write a built-in rule base as text")
    p_exp.add_argument("--controller", required=True, choices=[str(s) for s in BUILTIN_SIZES])
    p_exp.add_argument("--out", required=True, help="output file")
    p_exp.add_argument("--quiet", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a bad input or unwritable output is one ``error:`` line and exit 1."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.scenario, args.controller, args.out, args.quiet)
        if args.command == "compare":
            return cmd_compare(args.scenario, args.out, args.quiet)
        if args.command == "validate":
            return cmd_validate(args.rules, args.quiet)
        return cmd_export_rules(args.controller, args.out, args.quiet)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
