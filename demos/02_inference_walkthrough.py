"""One inference step, traced stage by stage.

Feeds a heading error of 0.3 rad at 18 m from the goal through the 3-MF
controller and prints what each Mamdani stage produces: fuzzified degrees,
per-rule strengths (min-AND), per-term strengths (max over the rules that
name a term), the aggregated output curves (max of clipped sets), and the
centroid defuzzification that yields the wheel speeds.
"""
import numpy as np

from fuzzynav import AggregatedOutput, builtin, defuzz_centroid, fire_rules, fuzzify, infer

rb = builtin(3, d_max=24.41, v_max=2.0)
e_theta, e_d = 0.3, 18.0

print(f"inputs: e_theta = {e_theta} rad, e_d = {e_d} m\n")

print("1) fuzzify each input (one degree per term, in term order):")
degrees = fuzzify(rb.angle_var, e_theta), fuzzify(rb.distance_var, e_d)
for var, per_term in zip((rb.angle_var, rb.distance_var), degrees):
    print(f"   {var.name:<8}", "  ".join(f"{label}={d:.3f}" for label, d in zip(var.labels, per_term)))

strengths = fire_rules(rb, e_theta, e_d)
print("\n2) fire the rule grid (per-rule strength = min of the two degrees):")
for rule, s in zip(rb.rules, strengths):
    if s > 0:
        print(f"   ({rule.angle_term}, {rule.distance_term}) -> right {rule.right_term}, "
              f"left {rule.left_term} @ {s:.3f}")
print(f"   the other {sum(s == 0 for s in strengths)} of {len(rb.rules)} rules have strength 0")

right, left = rb.compiled.term_strengths(*degrees)
print("\n3) per-term strengths (max over the fired rules naming each output term):")
for var, per_term in ((rb.right_var, right), (rb.left_var, left)):
    print(f"   {var.name:>5}:", "  ".join(f"{label}={s:.3f}" for label, s in zip(var.labels, per_term)))

agg_right = AggregatedOutput(rb.right_var, right)
agg_left = AggregatedOutput(rb.left_var, left)
print("\n4) aggregate the clipped consequent sets (dense sample of mu):")
xs = np.linspace(0.0, 2.0, 9)
print("   v     " + "  ".join(f"{x:4.2f}" for x in xs))
print("   right " + "  ".join(f"{m:4.2f}" for m in agg_right.mu(xs)))
print("   left  " + "  ".join(f"{m:4.2f}" for m in agg_left.mu(xs)))

v_right = defuzz_centroid(agg_right)
v_left = defuzz_centroid(agg_left)
print("\n5) centroid defuzzification (8001-point trapezoid rule):")
print(f"   v_right = {v_right.value:.4f} m/s, v_left = {v_left.value:.4f} m/s")
print(f"   (right > left turns the robot toward the positive angle error)")

full = infer(rb, e_theta, e_d)
assert (full.v_right, full.v_left) == (v_right.value, v_left.value)
print("\ninfer() composes exactly these stages:", tuple(round(v, 4) for v in (full.v_right, full.v_left)))
