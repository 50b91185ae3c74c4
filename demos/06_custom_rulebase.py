"""Authoring a controller in the rule-definition text format.

Writes a small aggressive 3x3 controller by hand, parses it (which checks
the grid) and runs it on the benchmark scenario.  The same file can be
driven from the command line:  fuzzynav run --scenario <sc.json> --controller my.rules
"""
import os
from dataclasses import replace

from fuzzynav import benchmark_scenario, parse_rulebase, render_rulebase, run

TEXT = """\
# hand-written goal-seeker: three terms per variable, bang-bang steering
var angle range -3.141592653589793 3.141592653589793
var distance range 0.0 25.0
var right range 0.0 2.0
var left range 0.0 2.0

term angle N tri -0.4 -0.4 0.0
term angle Z tri -0.4 0.0 0.4
term angle P tri 0.0 0.4 0.4

term distance Z tri 0.0 0.0 5.0
term distance M tri 0.0 5.0 25.0
term distance F tri 5.0 25.0 25.0

term right S tri 0.0 0.0 0.6
term right M tri 0.0 0.6 2.0
term right F tri 0.6 2.0 2.0
term left S tri 0.0 0.0 0.6
term left M tri 0.0 0.6 2.0
term left F tri 0.6 2.0 2.0

rule if angle is N and distance is F then right is S, left is F
rule if angle is N and distance is M then right is S, left is M
rule if angle is N and distance is Z then right is S, left is M
rule if angle is Z and distance is F then right is F, left is F
rule if angle is Z and distance is M then right is M, left is M
rule if angle is Z and distance is Z then right is S, left is S
rule if angle is P and distance is F then right is F, left is S
rule if angle is P and distance is M then right is M, left is S
rule if angle is P and distance is Z then right is M, left is S
"""

rb = parse_rulebase(TEXT)
print(f"parsed {len(rb.rules)} rules over a {len(rb.angle_var.terms)}x{len(rb.distance_var.terms)} grid")

trajectory, metrics = run(replace(benchmark_scenario(), controller=rb))
print(f"benchmark with the hand-written controller: reached={metrics.reached} "
      f"in {metrics.time_to_target} s, path {metrics.path_length:.2f} m")

_, builtin_metrics = run(benchmark_scenario("3"))
print(f"built-in 3-MF controller for comparison:    reached={builtin_metrics.reached} "
      f"in {builtin_metrics.time_to_target} s, path {builtin_metrics.path_length:.2f} m")

out = os.path.join(os.path.dirname(__file__), "custom.rules")
with open(out, "w", encoding="utf-8", newline="\n") as fh:
    fh.write(render_rulebase(rb))
print(f"\nrendered form written to {out} (validate with: fuzzynav validate {out})")
