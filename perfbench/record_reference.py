"""Record the reference outputs that the benchmark checks against.

Runs every case of the closed-loop and CLI pools in ``inputs.py`` once and
writes ``reference.json`` next to this file.  Re-record only when a change
to the program is meant to alter these outputs, and say so in CHANGES.md.

    python3 perfbench/record_reference.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fuzzynav  # noqa: E402
from fuzzynav.cli import main as cli_main  # noqa: E402

import inputs  # noqa: E402


def record_closed_loop() -> dict:
    out = {}
    for case in inputs.all_closed_loop_cases():
        sc = fuzzynav.benchmark_scenario(case.controller, case.bearing, case.distance)
        trajectory, m = fuzzynav.run(sc)
        out[case.key] = [m.reached, len(trajectory), m.path_length]
    return out


def record_cli(workdir: str) -> dict:
    cases = inputs.all_cli_cases()
    inputs.write_cli_inputs(fuzzynav, cases, workdir)
    out_dir = os.path.join(workdir, "out")
    out = {}
    for case in cases:
        rules, scenario = inputs.rules_path(workdir, case), inputs.scenario_path(workdir, case)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["run", "--scenario", scenario, "--controller", rules, "--quiet", "--out", out_dir])
        with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
            m = json.load(fh)
        with open(os.path.join(out_dir, "trajectory.csv"), encoding="utf-8") as fh:
            ticks = sum(1 for _ in fh) - 1
        out[case.key] = [code, m["reached"], ticks, m["path_length"], m["rule_count"]]
    return out


def main():
    workdir = os.path.join(HERE, "out", "record")
    try:
        reference = {"closed_loop": record_closed_loop(), "cli_rules": record_cli(workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    for name, table in reference.items():
        print(f"{name}: {len(table)} cases")


if __name__ == "__main__":
    main()
