"""Order-theoretic algorithms on a graph product of quasi-lattice orders.

The positive cone consists of the elements whose reduced expressions have
all syllables in the factor cones.  Every order question reduces to it
through canonical fractions x = a b^-1 with rgcd(a, b) = 1: the lub of 1
and a b^-1 is a, so x v y = x (1 v x^-1 y), and x v y is Infinity when
x^-1 y is not such a fraction.  The fraction test and positivity hold on
any reduced word, so quotients such as x^-1 y stay unsorted reduced lists
(x's inverse syllables, reversed, y's inserted); only results are canonical.
"""

from __future__ import annotations

from .factors import INFINITY
from .graph import NormalWord, Syllable


class NotInPPInvError(ValueError):
    """An element with no upper bound in P: not a fraction of positives."""


class NotPositiveError(ValueError):
    """An element outside the positive cone where only positives are taken."""


def is_positive(graph, x):
    return _positive(graph, x.syllables)


def _positive(graph, sylls):
    return all(graph.ops[s.vertex].is_positive(s.element) for s in sylls)


def leq(graph, x, y):
    """x <= y for the left-invariant order: x^-1 y positive."""
    return _positive(graph, graph._insert(graph._inverses(x.syllables), y.syllables))


def leq_r(graph, x, y):
    """x <=_r y for the right-invariant order: y x^-1 positive."""
    return _positive(graph, graph._insert(list(y.syllables), graph._inverses(x.syllables)))


def lub(graph, x, y):
    """x v y for any two group elements, or INFINITY.

    By left invariance x v y = x (1 v x^-1 y), and 1 v x^-1 y is the
    a-part of the canonical fraction of x^-1 y, which exists exactly when
    x and y have a common upper bound.  Only x a is sorted.
    """
    split = _split(graph, graph._insert(graph._inverses(x.syllables), y.syllables))
    if split is None:
        return INFINITY
    a, _, b_degree = split  # deg a = deg y - deg x + deg b
    return NormalWord(tuple(graph._insert(list(x.syllables), a)), y.degree + b_degree)


def canonical_fraction(graph, x):
    """The unique pair (a, b) of positives with x = a b^-1, rgcd(a, b) = 1.

    Factorize each syllable of the canonical reduced word of x in its own
    factor as a_i b_i^-1.  Then x is in PP^-1 iff every pair i < j with
    b_i != 1 and a_j != 1 sits at adjacent vertices, and a = a_1 ... a_k,
    b = b_k ... b_1; otherwise NotInPPInvError is raised.  The test reads
    only pairs at equal or non-adjacent vertices, so it holds on any
    reduced word of x, which all order such pairs alike.

    If: each b_i^-1 commutes past every later a_j, so x = a b^-1.  Only
    if: for x = p q^-1 with p, q positive, add the syllables of q^-1 one
    by one to a reduced word for p, each scanning left past adjacent
    vertices, then amalgamating at its own vertex or going at the end.
    The criterion holds for p and each step keeps it: an appended
    syllable is last and negative; an amalgamation at m turns a_m b_m^-1
    into a_m c^-1 with c positive, whose fraction a' b'^-1 has a_m = a' d
    with d positive, so a' = 1 if a_m = 1, and every later syllable is at
    a vertex adjacent to m's; a deletion removes pairs.  The result is a
    reduced word for x, and all reduced words of x share their syllables
    and the order of those at equal or non-adjacent vertices.

    a = a_1 ... a_k is canonical as it stands.  The a-syllables form an
    ideal of x's dependence order: on a chain of dependent syllables that
    ends at one with a_j != 1, the last with a_i = 1 (so b_i != 1) would
    depend on its successor, against the criterion.  Chains into the ideal
    stay in it, so it is reduced, and the greedy least-vertex extraction on
    x, filtered to it, is the greedy extraction on it.  b's syllables come
    from x's trusted word, so like ``invert`` it only inserts them, and
    its degree is the sum of theirs.
    """
    split = _split(graph, x.syllables)
    if split is None:
        raise NotInPPInvError(f"{x} is not a fraction of positives")
    parts_a, parts_b, b_degree = split
    b = NormalWord(tuple(graph._insert([], reversed(parts_b))), b_degree)
    return NormalWord(tuple(parts_a), x.degree + b_degree), b


def _split(graph, sylls):
    """(a_1 ... a_k, b_1 ... b_k, deg b) of a reduced list, or None if it
    fails canonical_fraction's test."""
    parts_a, parts_b, b_degree = [], [], 0
    negative = set()  # the vertices of the syllables so far with b_i != 1
    for s in sylls:
        v = s.vertex
        ops = graph.ops[v]
        a_i, b_i = ops.factorize(s.element)
        negative_i = not ops.is_identity(b_i)
        if not (negative_i and ops.is_identity(a_i)):  # a_i = s if b_i = 1
            if not negative <= graph.neighbours[v]:
                return None
            parts_a.append(Syllable(v, a_i) if negative_i else s)
        if negative_i:
            negative.add(v)
            parts_b.append(Syllable(v, b_i))
            b_degree += ops.degree(b_i)
    return parts_a, parts_b, b_degree


def lub_general(graph, x, y):
    """lub's former name: a def, not an alias, so a tracer wrapping by identity spans each."""
    return lub(graph, x, y)


def rgcd(graph, u, v):
    """Greatest common lower bound of two positives for the right order."""
    if not (is_positive(graph, u) and is_positive(graph, v)):
        raise NotPositiveError("rgcd is defined on positive elements")
    a, _, b_degree = _split(graph, graph._insert(list(u.syllables),
                                                 graph._inverses(v.syllables)))
    gcd = graph._insert(graph._inverses(a), u.syllables)
    return NormalWord(tuple(graph._insert([], gcd)), v.degree - b_degree)


# ---------------------------------------------------------------------------
# The homomorphism into the direct product of the factors
# ---------------------------------------------------------------------------

def phi(graph, x):
    """Collapse each vertex's syllables into one factor element.

    The component at I is the ordered product of the syllables of x
    belonging to I; this is a group homomorphism onto the direct product.
    The image is a dict {vertex: element} in vertex order, identity
    components left out.
    """
    acc = {v: graph.ops[v].identity for v in graph.vertices}
    for s in x.syllables:
        acc[s.vertex] = graph.ops[s.vertex].multiply(acc[s.vertex], s.element)
    return {v: e for v, e in acc.items() if not graph.ops[v].is_identity(e)}


def phi_lub(graph, xi, eta):
    """Componentwise lub of two images of phi, in the same dict form.

    Every Z or finite-type Artin factor bounds any two of its elements, so
    it is always finite: x v y = x a for the canonical fraction a b^-1 of
    x^-1 y, as in lub.
    """
    join = {}
    for v in graph.vertices:
        ops = graph.ops[v]
        x, y = xi.get(v, ops.identity), eta.get(v, ops.identity)
        a, _ = ops.factorize(ops.multiply(ops.invert(x), y))
        j = ops.multiply(x, a)
        if not ops.is_identity(j):
            join[v] = j
    return join
