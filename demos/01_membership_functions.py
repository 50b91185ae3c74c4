"""Triangular fuzzy sets and linguistic variables.

Builds the 5-term velocity variable used by the built-in controllers and
tabulates membership degrees across its universe, showing the 50% overlap,
the shoulder terms at the edges, and the partition-of-unity property.
"""
from fuzzynav import builtin, fuzzify

rb = builtin(5, d_max=24.41, v_max=2.0)
var = rb.right_var

print(f"variable '{var.name}' on [{var.lo}, {var.hi}]")
for term in var.terms:
    mf = term.mf
    kind = "left shoulder" if mf.is_left_shoulder else "right shoulder" if mf.is_right_shoulder else "triangle"
    print(f"  {term.label:>3}: tri({mf.left:.2f}, {mf.peak:.2f}, {mf.right:.2f})  [{kind}]")

print("\n  x    " + "  ".join(f"{label:>5}" for label in var.labels) + "    sum")
for x in [var.lo + i * (var.hi - var.lo) / 10 for i in range(11)]:
    degrees = fuzzify(var, x)
    row = "  ".join(f"{d:5.2f}" for d in degrees)
    print(f"{x:5.2f}  {row}  {sum(degrees):5.2f}")

print("\nout-of-range inputs clamp to the nearest boundary term:")
print(" ", dict(zip(var.labels, fuzzify(var, 99.0))))

angle = rb.angle_var
print(f"\nthe angle variable concentrates its peaks on a band around zero:")
print("  peaks:", [round(t.mf.peak, 3) for t in angle.terms], f"inside [{angle.lo:.3f}, {angle.hi:.3f}]")
print("  beyond the band the edge terms saturate at full membership,")
print("  so even a U-turn error fires the outermost steering row at strength 1:")
print(" ", {k: round(v, 2) for k, v in zip(angle.labels, fuzzify(angle, 3.0))})
