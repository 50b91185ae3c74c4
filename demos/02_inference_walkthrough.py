"""One inference step, traced stage by stage.

Feeds a heading error of 0.3 rad at 18 m from the goal through the 3-MF
controller and prints what each Mamdani stage produces: fuzzified degrees,
per-rule strengths (min-AND), per-term strengths (max over the rules that
name a term), the aggregated output curves (max of clipped sets), and the
wheel speeds that ``infer`` defuzzifies from them by centroid.  Stages 2 to
4 are written out here with plain min and max; ``infer`` runs them all.
"""
from fuzzynav import builtin, fuzzify, infer

rb = builtin(3, d_max=24.41, v_max=2.0)
e_theta, e_d = 0.3, 18.0

print(f"inputs: e_theta = {e_theta} rad, e_d = {e_d} m\n")

print("1) fuzzify each input (one degree per term, in term order):")
angle = dict(zip(rb.angle_var.labels, fuzzify(rb.angle_var, e_theta)))
dist = dict(zip(rb.distance_var.labels, fuzzify(rb.distance_var, e_d)))
for name, degrees in (("angle", angle), ("distance", dist)):
    print(f"   {name:<8}", "  ".join(f"{label}={d:.3f}" for label, d in degrees.items()))

print("\n2) fire the rule grid (per-rule strength = min of the two degrees):")
strengths = [min(angle[rule.angle_term], dist[rule.distance_term]) for rule in rb.rules]
for rule, s in zip(rb.rules, strengths):
    if s > 0:
        print(f"   ({rule.angle_term}, {rule.distance_term}) -> right {rule.right_term}, "
              f"left {rule.left_term} @ {s:.3f}")
print(f"   the other {sum(s == 0 for s in strengths)} of {len(rb.rules)} rules have strength 0")

print("\n3) per-term strengths (max over the fired rules naming each output term):")
right = dict.fromkeys(rb.right_var.labels, 0.0)
left = dict.fromkeys(rb.left_var.labels, 0.0)
for rule, s in zip(rb.rules, strengths):
    right[rule.right_term] = max(right[rule.right_term], s)
    left[rule.left_term] = max(left[rule.left_term], s)
for name, per_term in (("right", right), ("left", left)):
    print(f"   {name:>5}:", "  ".join(f"{label}={s:.3f}" for label, s in per_term.items()))

print("\n4) aggregate the clipped consequent sets (max of min(strength, degree)):")
xs = [0.25 * i for i in range(9)]
print("   v     " + "  ".join(f"{x:4.2f}" for x in xs))
for var, per_term in ((rb.right_var, right), (rb.left_var, left)):
    mu = [max(min(s, d) for s, d in zip(per_term.values(), fuzzify(var, x))) for x in xs]
    print(f"   {var.name:<5} " + "  ".join(f"{m:4.2f}" for m in mu))

full = infer(rb, e_theta, e_d)
print("\n5) infer() runs all of the above and defuzzifies by centroid "
      "(8001-point trapezoid rule):")
print(f"   v_right = {full.v_right:.4f} m/s, v_left = {full.v_left:.4f} m/s")
print("   (right > left turns the robot toward the positive angle error)")
