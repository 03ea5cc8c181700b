"""Least upper bounds, canonical fractions and the direct-product map.

Run with:  python3 demos/demo_lattice_ops.py
"""

from qlattice import (
    INFINITY,
    CommutationGraph,
    canonical_fraction,
    lub,
    phi,
    rgcd,
)

B3 = {"artin": {"generators": ["s", "t"], "m": [[1, 3], [3, 1]]}}

path3 = CommutationGraph(
    [("a", "Z"), ("b", "Z"), ("c", "Z")], [("a", "b"), ("b", "c")]
)
free2 = CommutationGraph([("a", "Z"), ("b", "Z")], [])
b3 = CommutationGraph([("v", B3)], [])
ops = b3.ops["v"]


def show(graph, x):
    if x is INFINITY:
        return "Infinity"
    return [(s.vertex, s.element) for s in x.syllables] or "identity"


print("== least upper bounds ==")
a = path3.normal([("a", 1)])
b = path3.normal([("b", 3)])
c = path3.normal([("c", 1)])
print("a v b^3 (adjacent)    :", show(path3, lub(path3, a, b)))
print("a v c   (not adjacent):", show(path3, lub(path3, a, c)))

fa = free2.normal([("a", 1)])
fb = free2.normal([("b", 1)])
print("a v b in the free pair:", show(free2, lub(free2, fa, fb)))
print()

print("== lubs inside a braid vertex ==")
s = b3.normal([("v", ops.element(("s",)))])
t = b3.normal([("v", ops.element(("t",)))])
print("s v t =", show(b3, lub(b3, s, t)), " (the Garside half twist sts)")
print()

print("== canonical fractions ==")
# s t^-1 is already in lowest terms
x = b3.normal([("v", ops.element(("s",), ("t",)))])
num, den = canonical_fraction(b3, x)
print("s t^-1 -> a =", show(b3, num), ", b =", show(b3, den))

# a fraction with a hidden common right divisor
u = b3.normal([("v", ops.element(("s", "t")))])
v = b3.normal([("v", ops.element(("t", "t")))])
y = b3.multiply(u, b3.invert(v))
num, den = canonical_fraction(b3, y)
print("(st)(tt)^-1 -> a =", show(b3, num), ", b =", show(b3, den))
print("rgcd(st, tt) =", show(b3, rgcd(b3, u, v)), " (what was cancelled)")
print()

print("== lub of general (non-positive) elements ==")
g = b3.normal([("v", ops.element(("s",), ("t",)))])
st = b3.normal([("v", ops.element(("s", "t")))])
ts = b3.normal([("v", ops.element(("t", "s")))])
plain = lub(b3, st, ts)
moved = lub(b3, b3.multiply(g, st), b3.multiply(g, ts))
print("st v ts             =", show(b3, plain))
print("g(st) v g(ts)       =", show(b3, moved))
print("equals g*(st v ts)  :", b3.equal(moved, b3.multiply(g, plain)))
print()

print("== the map into the direct product ==")
x = path3.normal([("a", 1), ("c", 1), ("a", 2)])
print("x = a c a^2, phi(x) =", phi(path3, x))
print("phi forgets the interleaving but respects lubs of bounded pairs.")
