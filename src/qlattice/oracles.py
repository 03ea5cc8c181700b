"""Brute-force oracles used to cross-check the algebraic algorithms.

Everything here works by exhaustive search over single rewriting moves or
over enumerated balls, independently of the normal-form and lattice code
paths it is used to validate.  Desk-scale only.
"""

from __future__ import annotations

import math

from .factors import INFINITY
from .graph import BallSizeExceeded, Syllable


def _state(word):
    return tuple((s.vertex, s.element) for s in word)


def shuffle_closure(graph, syllables):
    """All words reachable from the given one by shuffles and amalgamations."""
    start = _state(syllables)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        nxt = []
        for i in range(len(cur) - 1):
            (va, ea), (vb, eb) = cur[i], cur[i + 1]
            if graph.adjacent(va, vb):
                nxt.append(cur[:i] + ((vb, eb), (va, ea)) + cur[i + 2:])
            if va == vb:
                ops = graph.ops[va]
                merged = ops.multiply(ea, eb)
                mid = () if ops.is_identity(merged) else ((va, merged),)
                nxt.append(cur[:i] + mid + cur[i + 2:])
        for cand in nxt:
            if cand not in seen:
                seen.add(cand)
                stack.append(cand)
    return seen


def _word_key(graph, state):
    # where two reduced spellings of one element first differ, their vertices do
    return len(state), tuple(graph.vertex_index[v] for v, _ in state)


def bfs_normal_form(graph, syllables):
    """Shortlex-least word reachable by shuffles and amalgamations."""
    closure = shuffle_closure(graph, syllables)
    return min(closure, key=lambda st: _word_key(graph, st))


def _first_amalgamation(graph, w):
    for i, s in enumerate(w):
        for j in range(i + 1, len(w)):
            if w[j].vertex == s.vertex:
                return i, j
            if not graph.adjacent(w[j].vertex, s.vertex):
                break
    return None


def is_reduced(graph, w):
    """Green's criterion: between equal-vertex syllables there is a
    syllable at a non-adjacent vertex."""
    return _first_amalgamation(graph, w) is None


def greedy_normal_form(graph, syllables):
    """Amalgamate the first pair that shuffles together until none is
    left, then repeatedly extract the initial syllable of least vertex."""
    rem = [s for s in syllables if not graph.ops[s.vertex].is_identity(s.element)]
    while (hit := _first_amalgamation(graph, rem)) is not None:
        i, j = hit
        ops = graph.ops[rem[i].vertex]
        merged = ops.multiply(rem[i].element, rem.pop(j).element)
        if ops.is_identity(merged):
            del rem[i]
        else:
            rem[i] = Syllable(rem[i].vertex, merged)
    out = []
    while rem:
        out.append(rem.pop(min(
            (graph.vertex_index[s.vertex], p) for p, s in enumerate(rem)
            if all(graph.adjacent(t.vertex, s.vertex) for t in rem[:p])
        )[1]))
    return _state(out)


def fraction_by_product(graph, x):
    """Whether the syllables x, with factor fractions a_i b_i^-1, multiply
    out as a_1 ... a_k b_1^-1 ... b_k^-1 to x itself."""
    parts = [(s.vertex, graph.ops[s.vertex].factorize(s.element)) for s in x]
    word = [Syllable(v, a) for v, (a, _) in parts]
    word += [Syllable(v, graph.ops[v].invert(b)) for v, (_, b) in parts]
    return greedy_normal_form(graph, word) == _state(x)


# ---------------------------------------------------------------------------
# Artin monoid oracles by relation rewriting
# ---------------------------------------------------------------------------

def rewrite_closure(monoid, word):
    """All positive words obtainable by single relation applications."""
    word = tuple(word)
    seen = {word}
    stack = [word]
    pairs = [
        (s, t, monoid.coxeter(s, t))
        for ti, t in enumerate(monoid.generators)
        for s in monoid.generators[:ti]
    ]
    while stack:
        cur = stack.pop()
        for s, t, m in pairs:
            lhs = monoid._alt(s, t, m)
            rhs = monoid._alt(t, s, m)
            for i in range(len(cur) - m + 1):
                seg = cur[i:i + m]
                if seg == lhs:
                    new = cur[:i] + rhs + cur[i + m:]
                elif seg == rhs:
                    new = cur[:i] + lhs + cur[i + m:]
                else:
                    continue
                if new not in seen:
                    seen.add(new)
                    stack.append(new)
    return seen


def rewrite_equal(monoid, u, v):
    return tuple(v) in rewrite_closure(monoid, u)


def bfs_left_divides(monoid, u, z):
    """u <= z by exhaustive search for a word w with u w = z."""
    u, z = tuple(u), tuple(z)
    k = len(z) - len(u)
    if k < 0:
        return False
    targets = rewrite_closure(monoid, z)
    words = [()]
    for _ in range(k):
        words = [w + (s,) for w in words for s in monoid.generators]
    return any(u + w in targets for w in words)


def bfs_minimal_common_multiples(monoid, u, v, max_length):
    """Shortest common left multiples of u and v, up to monoid equality."""
    u, v = tuple(u), tuple(v)
    for length in range(max(len(u), len(v)), max_length + 1):
        words = [()]
        for _ in range(length):
            words = [w + (s,) for w in words for s in monoid.generators]
        found = []
        for z in words:
            if bfs_left_divides(monoid, u, z) and bfs_left_divides(monoid, v, z):
                if not any(rewrite_equal(monoid, z, f) for f in found):
                    found.append(z)
        if found:
            return found
    return []


def bfs_right_divisors(monoid, w):
    """All right divisors of w, by enumerating candidate quotient words."""
    w = tuple(w)
    targets = rewrite_closure(monoid, w)
    divisors = []
    for length in range(len(w) + 1):
        cands = [()]
        for _ in range(length):
            cands = [c + (s,) for c in cands for s in monoid.generators]
        rests = [()]
        for _ in range(len(w) - length):
            rests = [r + (s,) for r in rests for s in monoid.generators]
        for c in cands:
            if any(r + c in targets for r in rests):
                if not any(rewrite_equal(monoid, c, d) for d in divisors):
                    divisors.append(c)
    return divisors


def positive_root_count(m, cap):
    """The number of positive roots of the Coxeter group of the matrix m,
    or None if there are more than cap, as there are when it is infinite:
    half the orbit of the simple roots e_s under the reflections s_t(v) =
    v - 2 B(v, e_t) e_t, B(e_s, e_t) = -cos(pi/m(s,t)), keyed by their
    coordinates rounded to 9 places."""
    b = [[-math.cos(math.pi / x) for x in row] for row in m]
    key = lambda v: tuple(round(x, 9) for x in v)
    roots = [tuple(float(i == s) for i in range(len(m))) for s in range(len(m))]
    seen = set(map(key, roots))
    for v in roots:  # roots grows as it is read, breadth first
        for t, bt in enumerate(b):
            w = v[:t] + (v[t] - 2 * sum(x * y for x, y in zip(v, bt)),) + v[t + 1:]
            if key(w) not in seen:
                if len(seen) >= 2 * cap:
                    return None
                seen.add(key(w))
                roots.append(w)
    return len(seen) // 2


# ---------------------------------------------------------------------------
# Ball-based order oracles on the graph product
# ---------------------------------------------------------------------------

def upper_bound_bitsets(graph, sources, ball_elements, leq_fn):
    """For each source x, the bitset over ball positions of {z : x <= z}."""
    out = {}
    for x in sources:
        bits = 0
        for pos, z in enumerate(ball_elements):
            if leq_fn(graph, x, z):
                bits |= 1 << pos
        out[x.syllables] = bits
    return out


def product_upper_bitsets(graph, sources, ball):
    """upper_bound_bitsets as the products x w, deg x + deg w <= the ball's degree.

    Degree is additive on positives, so these are exactly the z >= x in
    the ball; no order test and no table read.
    """
    out = {}
    for x in sources:
        ups = (graph.multiply(x, w) for w in ball.elements
               if x.degree + w.degree <= ball.max_degree)
        out[x.syllables] = sum(1 << ball.index[z.syllables] for z in ups)
    return out


def check_lub_against_ball(graph, x, y, computed, bitsets, ball_elements,
                           ball_index, leq_fn):
    """Compare a computed lub against the common-upper-bound set of a ball.

    Finite result inside the ball: it must be a common upper bound
    dividing every common upper bound found in the ball.  Finite result
    beyond the ball's degree cap: it must still bound both arguments, and
    the ball must contain no common upper bound (any one would divide the
    lub and hence fit in the ball).  Infinite result: the ball must
    contain no common upper bound.  Returns (ok, detail).
    """
    common = bitsets[x.syllables] & bitsets[y.syllables]
    if computed is INFINITY:
        if common:
            pos = (common & -common).bit_length() - 1
            return False, f"lub says Infinity but {ball_elements[pos]} bounds both"
        return True, None
    if computed.syllables not in ball_index:
        if not (leq_fn(graph, x, computed) and leq_fn(graph, y, computed)):
            return False, "computed lub does not bound both arguments"
        if common:
            pos = (common & -common).bit_length() - 1
            return False, (
                f"computed lub exceeds the ball but {ball_elements[pos]} "
                "is a common upper bound inside it"
            )
        return True, None
    if not (common >> ball_index[computed.syllables]) & 1:
        return False, "computed lub is not a common upper bound"
    pos = 0
    bits = common
    while bits:
        if bits & 1:
            z = ball_elements[pos]
            if not leq_fn(graph, computed, z):
                return False, f"computed lub does not divide {z}"
        bits >>= 1
        pos += 1
    return True, None


def product_ball(graph, max_degree, size_cap):
    """The cone ball by breadth-first search, hashing every product g y and
    using no relation between generators: (elements, each layer in order
    of first appearance over g, then y, table[g, i] the position of g y_i
    or -1), as a ConeBall holds them."""
    import numpy as np
    gens = graph.generator_words()
    layer, elements = [graph.identity()], [graph.identity()]
    for _ in range(max_degree):
        layer = list({z.syllables: z for g in gens
                      for z in (graph.multiply(g, y) for y in layer)}.values())
        elements += layer
        if len(elements) > size_cap:
            raise BallSizeExceeded(f"cone ball exceeds the size cap of {size_cap}")
    index = {x.syllables: i for i, x in enumerate(elements)}
    table = [[index.get(graph.multiply(g, y).syllables, -1) for y in elements] for g in gens]
    return tuple(elements), np.array(table, dtype=np.intp).reshape(len(gens), len(elements))


# ---------------------------------------------------------------------------
# Dense norm oracle for the truncated Toeplitz sums
# ---------------------------------------------------------------------------

def dense_operator(graph, x, ball):
    """Dense compression of T_x to the ball, from ``graph.multiply``.

    Column y has a 1 at row xy while xy stays in the ball; built from the
    ball's elements only, without its multiplication table.
    """
    import numpy as np
    position = {z.syllables: i for i, z in enumerate(ball.elements)}
    mat = np.zeros((len(position), len(position)))
    for j, y in enumerate(ball.elements):
        i = position.get(graph.multiply(x, y).syllables)
        if i is not None:
            mat[i, j] = 1.0
    return mat


def dense_norm(graph, weights, ball):
    """Top singular value of the compressed sum lambda_x T_x, by dense SVD.

    The matrix is the weighted sum of ``dense_operator``, without the
    sparse operators or the certified brackets.
    """
    import numpy as np
    mat = sum(lam * dense_operator(graph, x, ball) for x, lam in weights.items())
    return float(np.linalg.svd(mat, compute_uv=False)[0])
