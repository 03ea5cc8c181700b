"""Truncated Toeplitz representations: covariance, defects and norms.

Run with:  python3 demos/demo_toeplitz_norms.py
"""

import math

from qlattice import (
    INFINITY,
    CommutationGraph,
    check_toeplitz_relations,
    covariance_check,
    defect_product_diag,
    enumerate_ball,
    norm_curve,
)

B3 = {"artin": {"generators": ["s", "t"], "m": [[1, 3], [3, 1]]}}
free2 = CommutationGraph([("a", "Z"), ("b", "Z")], [])
b3 = CommutationGraph([("v", B3)], [])

# ---------------------------------------------------------------------------
# Cone balls: the finite, divisor-closed stage the isometries act on.
# ---------------------------------------------------------------------------
print("== cone ball growth ==")
for n in range(5):
    print(f"degree <= {n}:  free pair {len(enumerate_ball(free2, n)):3d}"
          f"   braid B3 {len(enumerate_ball(b3, n)):3d}")
print()

# ---------------------------------------------------------------------------
# The covariance identity ties the isometries to the order structure:
# T_x T_x* T_y T_y* equals T_{x v y} T_{x v y}*, with the convention that
# an infinite lub gives the zero projection.
# ---------------------------------------------------------------------------
print("== covariance over a ball ==")
ball = enumerate_ball(free2, 4)
a = free2.normal([("a", 1)])
b = free2.normal([("b", 1)])
rep = covariance_check(free2, a, b, ball)
print("free pair, x=a, y=b:  ok =", rep.ok,
      " lub =", "Infinity" if rep.lub is INFINITY else rep.lub)
print("(no ball vector dominates both a and b, matching lub = Infinity)")
print()

print("== relation self-check of the truncated family ==")
for name, graph in (("free2", free2), ("b3", b3)):
    report = check_toeplitz_relations(graph, enumerate_ball(graph, 4))
    print(f"{name}: ok = {report.ok}")
print()

# ---------------------------------------------------------------------------
# The defect projection prod (1 - T_x T_x*) detects properness: its
# diagonal is 1 exactly on vectors no generator divides - the identity.
# ---------------------------------------------------------------------------
print("== defect projection ==")
diag = defect_product_diag(free2, free2.generator_words(), ball)
print("free pair: support size =", int(diag.sum()),
      ", value at the identity =", int(diag[0]))
print()

# ---------------------------------------------------------------------------
# Norms of (T_a + T_b)/2 on growing balls.  For the free pair the
# compressions sit at sqrt(2)/2 from the start; for the braid monoid the
# values climb towards 1, separating the lattice-ordered case.
# ---------------------------------------------------------------------------
print("== norm curves for weights (1/2, 1/2) ==")
print("free pair  (limit sqrt(2)/2 = %.6f):" % (math.sqrt(2) / 2))
for deg, size, val in norm_curve(free2, {"a": 0.5, "b": 0.5}, range(2, 9)):
    print(f"  degree {deg}: ball {size:4d}  norm {val:.6f}")
print("braid B3   (limit 1):")
for deg, size, val in norm_curve(b3, {"s": 0.5, "t": 0.5}, range(2, 11)):
    print(f"  degree {deg}: ball {size:4d}  norm {val:.6f}")
print()
print("note the flat steps 4->5 and 7->8 of the braid curve: the exact")
print("compressed norms coincide there (cos(pi/8) and cos(pi/12)).")
