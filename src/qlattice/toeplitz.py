"""Truncated left-regular (Toeplitz) representations on finite cone balls.

A cone ball is the finite, divisor-closed set of positive elements of
degree at most n.  It is enumerated once, as its Cayley graph for left
multiplication by the generators: entry [g, j] of its table is the
position of g y_j, or -1 when g y_j leaves the ball.  The table is read
off the generator relations, the spellings of each lub s v g, by
factors.ConeTable (pass 1, numpy-free, so the Artin factors grow their
own tables with it); its numbering, degree first, is the basis, and
elements are formed only when read.  The truncated isometries are compressions
P_n T P_n of the left-regular isometries T_x e_y = e_{xy}; they are read
off the table by spelling x in the generators, with no further
multiplication, and the balls of smaller degree are prefixes of the
largest one.  Because the ball is divisor closed, the adjoint action
T_x* e_z = e_{x^-1 z} (when x <= z, else 0) is exact on the ball, so all
diagonal/projection identities hold without truncation error.  For the
same reason {z in the ball : x <= z} is exactly the set of rows T_x
reaches: such a z is x w with w positive of degree deg z - deg x, so w is
in the ball and T_x e_w = e_z.  Range projections, covariance and defect
are read off the table with no order test.  Norms are the exception: the
compressed norm is a lower bound for the full one and is nondecreasing
in the ball degree.  Each T_x is a partial permutation of the ball,
walked from its domain, the basis prefix of degree n - deg x, and
toeplitz_op returns it as that index map (rows, cols); relations
compose such index maps, A^T A is gathered off them, and norm_estimate
certifies the norm with a bracket on the top eigenvalue of each block of
A^T A, read off positive vectors whose solves are not trusted.  With
generator weights A^T A links only elements of equal degree, so
norm_curve brackets each degree layer of the largest ball once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

# scipy.sparse is imported only in _sparse_vector, so the rest, operators,
# relation checks and norms with small blocks too, loads numpy alone.
import numpy as np

from .factors import INFINITY, ConeTable
from .graph import BALL_SIZE_CAP, BallSizeExceeded
from .order import NotPositiveError, is_positive, lub


@dataclass(frozen=True)
class ConeBall:
    """Positive elements of degree <= max_degree, numbered by the table.

    ``table`` is the left-multiplication table, one row per generator in
    the order of ``graph.generator_labels()``: entry [g, j] is the
    position of g y_j, or -1 when g y_j is not in the ball, and ``row_of``
    maps each label to its row.  Degree d runs from start[d] to
    start[d + 1]; ``first`` holds, from position 1 on, the entry (g, y) at
    which pass 1 numbered each element.  Elements and index form on first
    read.
    """
    graph: object = field(repr=False)
    max_degree: int
    start: tuple = field(repr=False)
    table: np.ndarray = field(compare=False, repr=False)
    row_of: dict = field(compare=False, repr=False)
    first: list = field(compare=False, repr=False)

    def __len__(self):
        return self.table.shape[1]

    @cached_property
    def elements(self):
        """Each z formed once, as g (g\\z) with g the least generator that
        divides it: the entry (g, y) of first where the table numbered z."""
        gens, found = self.graph.generator_words(), [self.graph.identity()]
        for g, y in self.first:
            found.append(self.graph.multiply(gens[g], found[y]))
        return tuple(found)

    @cached_property
    def index(self):
        return {x.syllables: i for i, x in enumerate(self.elements)}


def enumerate_ball(graph, max_degree, size_cap=BALL_SIZE_CAP):
    """The cone ball of degree max_degree, as its table: no element is
    formed until one is read (ConeBall.elements).

    Pass 1 is factors.ConeTable on _generator_lubs: it numbers the basis
    with no multiplication, and the size cap is checked per layer.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    table = ConeTable(graph.generator_labels(), _generator_lubs(graph))
    start = table.start
    for d in range(1, max_degree + 1):
        table.grow()
        if start[d + 1] > size_cap:
            raise BallSizeExceeded(
                f"the cone ball of degree {d} has {start[d + 1]} elements, over the "
                f"size cap of {size_cap}; the ball of degree {d - 1} has {start[d]}")
    return ConeBall(graph, max_degree, tuple(start),
                    np.array(table.rows, dtype=np.intp).reshape(len(table.rows), start[-1]),
                    table.row_of, table.first[1:])


def _letters(graph, x):
    """The positive x spelled in generator labels, left to right."""
    for s in x.syllables:
        yield from graph.ops[s.vertex].letters(s.vertex, s.element)


def _positive(graph, x, message):
    if not is_positive(graph, x):
        raise NotPositiveError(message)


def _walk(graph, x, ball):
    """The pairs (xy, y) with xy in the ball, as row and column arrays.

    xy is in the ball iff deg y <= n - deg x: the columns are that basis
    prefix, each letter of x from the right maps them on by one gather from
    the table, and no entry is -1, as each partial product has degree <= n.
    """
    cols = rows = np.arange(ball.start[max(ball.max_degree - x.degree + 1, 0)])
    for letter in reversed(list(_letters(graph, x))):
        rows = ball.table[ball.row_of[letter], rows]
    return rows, cols


def toeplitz_op(graph, x, ball):
    """The compression of T_x to the ball, e_y -> e_{xy} while xy stays in,
    as its index map: T_x e_{cols[i]} = e_{rows[i]}, every other column 0."""
    _positive(graph, x, "Toeplitz isometries are indexed by positive elements")
    return _walk(graph, x, ball)


def range_projection_diag(graph, x, ball):
    """Diagonal of T_x T_x^*: 1 at z iff x <= z, that is (the ball being
    divisor closed) iff T_x reaches row z.  Exact on the ball."""
    _positive(graph, x, "range projections are indexed by positive elements")
    diag = np.zeros(len(ball), dtype=int)
    diag[_walk(graph, x, ball)[0]] = 1
    return diag


@dataclass(frozen=True)
class CovarianceReport:
    ok: bool
    lub: object  # NormalWord or INFINITY
    mismatches: tuple  # offending ball elements


def covariance_check(graph, x, y, ball):
    """Pointwise check of V_x V_x^* V_y V_y^* = V_{x v y} V_{x v y}^*.

    Over the ball this says: z dominates both x and y iff x v y is finite
    and dominates z.  Each upper set is read off the ball's table (a join
    past the ball degree reaches no row), never from lub, so this doubles
    as an independent test of lub.  x and y must be positive.
    """
    lhs = range_projection_diag(graph, x, ball) & range_projection_diag(graph, y, ball)
    join = lub(graph, x, y)
    rhs = 0 if join is INFINITY else range_projection_diag(graph, join, ball)
    bad = np.flatnonzero(lhs != rhs)
    return CovarianceReport(not bad.size, join, tuple(ball.elements[i] for i in bad))


def defect_product_diag(graph, elements, ball):
    """Diagonal of prod (1 - V_x V_x^*) over the given positives."""
    if not elements:
        raise ValueError("the defect product needs a nonempty family")
    diag = np.ones(len(ball), dtype=int)
    for x in elements:
        diag *= 1 - range_projection_diag(graph, x, ball)
    return diag


# ---------------------------------------------------------------------------
# Extension of factor representations to the graph product
# ---------------------------------------------------------------------------

class IsometryFamily:
    """A matrix isometry per generator, extended along reduced expressions.

    ``matrices`` maps generator labels (the vertex name for an integer
    factor, the Artin generator names otherwise) to square 2-D arrays of
    numbers of a common dimension.  When the graph relations hold, the
    product of the generator matrices along any reduced expression of a
    positive element is independent of the expression, which is what
    :func:`check_graph_relations` verifies.
    """

    def __init__(self, graph, matrices):
        self.graph = graph
        labels = graph.generator_labels()
        missing = set(labels) - set(matrices)
        if missing:
            raise ValueError(f"missing matrices for generators {sorted(missing)}")
        unknown = set(matrices) - set(labels)
        if unknown:
            raise ValueError(f"unknown generator labels {sorted(unknown)}")
        arrays = {}
        for label, m in matrices.items():
            try:
                m = np.asarray(m, dtype=complex)
            except (TypeError, ValueError):
                m = None
            if m is None or m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"matrix for {label!r} must be square 2-D numbers")
            if not np.isfinite(m).all():
                raise ValueError(f"matrix for {label!r} has a non-finite entry")
            arrays[label] = m
        if len({m.shape for m in arrays.values()}) != 1:
            raise ValueError("generator matrices must be square and same-size")
        self.dimension = next(iter(arrays.values())).shape[0]
        self.matrices = {k: arrays[k] for k in labels}

    def of(self, x):
        """V(x) for positive x, multiplied along the canonical expression."""
        _positive(self.graph, x, "the extension is defined on positive elements")
        letters = [(label, False) for label in _letters(self.graph, x)]
        return _product(letters, self.matrices, np.eye(self.dimension, dtype=complex))


@dataclass(frozen=True)
class RelationReport:
    ok: bool
    violations: tuple  # (description, residual norm) pairs


def _generator_lubs(graph):
    """(s, t, lhs, rhs) for each pair of generator labels, s before t:
    lhs = s (s^-1 j) and rhs = t (t^-1 j) spell their lub j, or are None
    when there is none.  Pairs across vertices come first (s t = t s when
    adjacent, no upper bound when not), then those inside each vertex,
    whose lub is its factor's (the braid relation <st>^m in an Artin one):
    with s^-1 t = a b^-1 the canonical fraction, j = s a = t b.
    """
    labels = graph.generator_labels()
    by_vertex = {v: [s for s in labels if labels[s][0] == v] for v in graph.vertices}
    for i, v in enumerate(graph.vertices):
        for w in graph.vertices[i + 1:]:
            for s, t in itertools.product(by_vertex[v], by_vertex[w]):
                yield (s, t, (s, t), (t, s)) if graph.adjacent(v, w) else (s, t, None, None)
    for v in graph.vertices:
        ops = graph.ops[v]
        for (s, x), (t, y) in itertools.combinations(ops.generators(v).items(), 2):
            a, b = ops.factorize(ops.multiply(ops.invert(x), y))
            yield (s, t, ops.letters(v, x) + ops.letters(v, a),
                   ops.letters(v, y) + ops.letters(v, b))


def _range_side(word):
    """The side V_w V_w^* of a word of labels (see _generator_relations)."""
    return (tuple((label, False) for label in word)
            + tuple((label, True) for label in reversed(word)))


def _generator_relations(graph):
    """The generator-level relations of the graph product, in check order.

    Each entry is (description, lhs, rhs).  A side is a tuple of
    (label, adjoint) letters, standing for the product of the generator
    isometries, or of their adjoints, from left to right; an rhs of None
    means zero.  Each generator is an isometry; each pair s, t of
    _generator_lubs commutes and *-commutes at adjacent vertices, has
    orthogonal ranges at non-adjacent ones, and inside a vertex has equal
    spellings s (s^-1 j) = t (t^-1 j) of its lub j (the braid relation in
    an Artin vertex) and V_s V_s^* V_t V_t^* = V_j V_j^*.
    """
    def up(word):
        return tuple((label, False) for label in word)

    labels = graph.generator_labels()
    rels = [(f"isometry {s}", ((s, True), (s, False)), ()) for s in labels]
    for s, t, lhs, rhs in _generator_lubs(graph):
        s_star_t = ((s, True), (t, False))
        if lhs is None:
            rels.append((f"orthogonal ranges {s},{t}", s_star_t, None))
        elif labels[s][0] != labels[t][0]:
            rels.append((f"commute {s},{t}", up(lhs), up(rhs)))
            rels.append((f"*-commute {s},{t}", s_star_t, s_star_t[::-1]))
        else:
            rels.append((f"braid relation <{s}{t}>^{len(lhs)}", up(lhs), up(rhs)))
            rels.append((f"generator covariance {s},{t}",
                         _range_side((s,)) + _range_side((t,)), _range_side(lhs)))
    return rels


def _product(letters, matrices, identity):
    """The product of matrices[label], or its adjoint, along the letters.

    A run of adjoint letters b* a* is evaluated as (V_a V_b)^*, so a side
    such as V_j V_j^* comes out exactly self-adjoint.
    """
    out = identity
    for adjoint, run in itertools.groupby(letters, key=lambda letter: letter[1]):
        part = identity
        for label, _ in reversed(list(run)) if adjoint else run:
            part = part @ matrices[label]
        out = out @ (part.conj().T if adjoint else part)
    return out


def check_graph_relations(family, tol=1e-9, ball=None, samples=25, seed=0):
    """Verify the defining relations of the graph product on a family.

    Evaluates the relation list that check_toeplitz_relations also reads
    (isometries, commute and *-commute or orthogonal ranges across
    vertices, and the relations each vertex's lub gives inside it) and
    reports each residual norm above the tolerance.
    If a ball is supplied, samples pairs x, y from it and appends to the
    list the full covariance identity V_x V_x^* V_y V_y^* = V_j V_j^* with
    j the computed lub (zero when the lub is infinite).
    """
    if not np.isfinite(tol):
        raise ValueError(f"the tolerance must be finite, not {tol}")
    graph = family.graph
    rels = _generator_relations(graph)
    if ball is not None:
        rng = np.random.default_rng(seed)
        pool = [x for x in ball.elements if not x.is_identity]
        side = lambda z: _range_side(tuple(_letters(graph, z)))
        for _ in range(samples if pool else 0):
            x = pool[rng.integers(len(pool))]
            y = pool[rng.integers(len(pool))]
            join = lub(graph, x, y)
            rels.append((f"covariance {x},{y}", side(x) + side(y),
                         None if join is INFINITY else side(join)))

    eye = np.eye(family.dimension, dtype=complex)
    bad = []
    for desc, lhs, rhs in rels:
        a = _product(lhs, family.matrices, eye)
        b = 0 * eye if rhs is None else _product(rhs, family.matrices, eye)
        r = float(np.linalg.norm(a - b, ord=2)) if a.size else 0.0
        if r > tol:
            bad.append((desc, r))
    return RelationReport(not bad, tuple(bad))


def check_toeplitz_relations(graph, ball):
    """Exact check of the relation list on the truncated Toeplitz family.

    Reads the same relation list as check_graph_relations.  Along a side
    each letter raises the degree by one and each adjoint lowers it (or
    kills the vector); a side rises at most k, its peak over its suffixes
    (the letters applied first) of letters minus adjoints.  On the basis
    prefix of degree n - k no product leaves the ball, and adjoints are
    exact on a divisor-closed ball.  There each side is a map to the ball,
    -1 where it kills the vector, composed from table row g for T_g and its
    inverse for T_g^*: no 0/1 matrix product.  Sides differ iff their maps
    do, and then by a 0/1 entry, the residual 1.0.  A ball too small to
    compare every relation is a ValueError naming the least degree that does.
    """
    def peak(side):
        return max(itertools.accumulate((-1 if a else 1 for _, a in reversed(side)), initial=0))
    rels = [(*rel, max(peak(side) for side in rel[1:] if side))
            for rel in _generator_relations(graph)]
    need = max(k for *_, k in rels)
    if need > ball.max_degree:
        raise ValueError(f"a ball of degree {ball.max_degree} leaves relations "
                         f"uncompared; every relation is compared from degree {need}")
    inverse = np.full_like(ball.table, -1)
    for inv, row in zip(inverse, ball.table):
        inv[row[row >= 0]] = np.flatnonzero(row >= 0)

    def image(side, k):  # the map of a side on the columns of degree <= n - k
        ids = np.arange(ball.start[ball.max_degree - k + 1])
        for label, adjoint in reversed(side or ()):
            live = ids >= 0  # masked first: a -1 must not read the last entry
            ids[live] = (inverse if adjoint else ball.table)[ball.row_of[label], ids[live]]
        return ids if side is not None else np.full_like(ids, -1)

    bad = [(desc, 1.0) for desc, lhs, rhs, k in rels
           if not np.array_equal(image(lhs, k), image(rhs, k))]
    return RelationReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Norm estimation
# ---------------------------------------------------------------------------

def _component_labels(b):
    """Connected components of a symmetric csr matrix without empty rows.

    Minimum-label propagation with pointer jumping; returns labels 0..k-1.
    (scipy.sparse.csgraph would do, but importing it costs more than the
    whole solve on desk-scale balls.)
    """
    labels = np.arange(b.shape[0])
    while True:
        least = np.minimum.reduceat(labels[b.indices], b.indptr[:-1])
        new = np.minimum(labels, least)
        new = new[new]
        if np.array_equal(new, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = new


class NormNotCertified(ValueError):
    """The norm bracket did not close to the tolerance."""


#: Largest connected block of B = A^T A that _dense_vector solves; a larger
#: one sends its layer to _sparse_vector.  Unit weights on the presets, dense
#: against sparse (2-core x86, OpenBLAS, best of 7): largest block 71 rows 2.7
#: and 2.9 ms, 80 rows 0.9 and 1.1, 120 rows 5.8 and 4.4, 127 rows 1.6 and
#: 1.6, 192 rows 2.4 and 1.4.
_DENSE_BLOCK = 100


def _check_norm_inputs(caller, weights, tol):
    """Reject, before any enumeration or assembly, what no norm can be
    certified for: no weights, a weight that is negative or not finite,
    or a tolerance that is not finite."""
    if not weights:
        raise ValueError(f"{caller} needs a nonempty weight function")
    if not all(0 <= lam < np.inf for lam in weights.values()):  # NaN fails too
        raise ValueError("weights must be finite and nonnegative")
    if not np.isfinite(tol):
        raise ValueError(f"the tolerance must be finite, not {tol}")


def _weighted_sum(graph, weights, ball):
    """A = sum lambda_x T_x over the ball, as the terms (rows, cols, lambda_x)
    with (rows, cols) = _walk(x); the callers check the weights."""
    if not all(is_positive(graph, x) and x.degree <= ball.max_degree for x in weights):
        raise ValueError("weight support must lie inside the ball")
    return [(*_walk(graph, x, ball), lam) for x, lam in weights.items()]


class _Csr(NamedTuple):
    """A square matrix as csr arrays; b @ v is one bincount."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape = property(lambda self: (len(self.indptr) - 1,) * 2)

    def __matmul__(self, v):
        row = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return np.bincount(row, self.data * v[self.indices], minlength=self.shape[0])


def _gram(terms, n):
    """B = A^T A on its nonempty rows, and those rows, for A the sum of
    the terms (rows, cols, lambda) over a basis of n.

    Each T_x is a partial permutation (xy = xy' forces y = y'), so B[y, y']
    sums lambda_x lambda_x' over the z = xy = x'y': each pair of terms
    gathers its entries through the inverse map of T_x', and one sort sums
    those that several pairs give (on square4, a (b) = b (a) and ab (a) =
    aa (b) both land on B[a, b]) into csr order."""
    inverse = np.full((len(terms), n), -1, dtype=np.intp)
    for inv, (rows, cols, _) in zip(inverse, terms):
        inv[rows] = cols
    keys, values = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for (rows, cols, lam), (inv, (*_, mu)) in itertools.product(terms, zip(inverse, terms)):
        other = inv[rows]
        if lam * mu:  # B keeps no zero entry
            keys.append((cols * n + other)[other >= 0])
            values.append(np.full(len(keys[-1]), lam * mu))
    key, slot = np.unique(np.concatenate(keys), return_inverse=True)
    y, y_other = np.divmod(key, n)
    rows, count = np.unique(y, return_counts=True)
    position = np.cumsum(np.bincount(rows, minlength=n)) - 1
    data = np.bincount(slot, np.concatenate(values))
    return _Csr(np.append(0, np.cumsum(count)), position[y_other], data), rows


def _restrict(b, keep):
    """b on the rows and columns where keep holds, linked to no others."""
    counts = np.diff(b.indptr)
    entries = np.repeat(keep, counts)
    position = np.cumsum(keep) - 1
    indptr = np.append(0, np.cumsum(counts[keep]))
    return _Csr(indptr, position[b.indices[entries]], b.data[entries])


def _bracket(b, v, component):
    """Per-component bounds on the largest eigenvalue of B = A^T A from v.

    Returns arrays of lower and upper ends, one per connected component c
    of B, read off B and v on c alone: each pair bounds the block B_c by
    itself, and maxima over components bound their direct sum, as
    lambda_max(B) = max_c lambda_max(B_c).  B is entrywise nonnegative
    (the weights are, and each T_x is 0/1), so any v with no zero entry on
    c brackets B_c; v only decides the width.  v is taken as |v|, scaled on
    each component by a power of two to a largest entry below 1, which
    changes no quotient and keeps v.v from underflowing.  Below: the
    Rayleigh quotient v.(Bv) / v.v on c, its sums in the caller's rounding
    allowance.  Above: the Collatz-Wielandt bound max_{i in c} (Bv)_i / v_i
    (Horn and Johnson, Matrix Analysis, 8.1.26: D^-1 B_c D, D = diag(v), is
    similar to B_c).  With k the largest row count of B, u = 2^-53 and
    gamma_k = ku / (1 - ku), a computed (Bv)_i plus k times the smallest
    subnormal float is at least 1 - gamma_k times the exact sum of at most
    k nonnegative products (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.5); with the rounding of that addition and of the
    division, the computed maximum times 1 + 2 gamma_{k+2}, rounded up, is
    an upper bound.  For v = (mI - B_c)^-1 (1, ..., 1), (Bv)_i / v_i =
    m - 1 / v_i, so m just above the top eigenvalue of B_c makes the
    bracket tight.  A component where v has a zero or non-finite entry
    gets [0, inf].  Given several vectors as the rows of v, each component
    takes its highest lower and lowest upper end.
    """
    if v.ndim == 2:
        lower, upper = zip(*(_bracket(b, each, component) for each in v))
        return np.max(lower, axis=0), np.min(upper, axis=0)
    broken = np.bincount(component, ~(np.isfinite(v) & (v != 0))) > 0
    v = np.where(broken[component], 1.0, np.abs(v))
    peak = np.zeros(component.max() + 1)
    np.maximum.at(peak, component, v)
    v = np.ldexp(v, -np.frexp(peak)[1][component])
    u = np.finfo(float).eps / 2
    k = int(np.diff(b.indptr).max())
    gamma = (k + 2) * u / (1 - (k + 2) * u)
    w = b @ v
    lower = np.bincount(component, v * w) / np.bincount(component, v * v)
    upper = np.zeros(len(peak))
    np.maximum.at(upper, component, (w + k * np.finfo(float).smallest_subnormal) / v)
    upper = np.nextafter(upper * (1 + 2 * gamma), np.inf)
    lower[broken], upper[broken] = 0.0, np.inf
    return lower, upper


def _dense_vector(b, component):
    """(M - B)^-1 (1, ..., 1), solved densely block by block.

    M is m on a block of size s, m its own largest computed eigenvalue
    times 1 + s(s+1)u, so every block's bracket is tight, not only the
    top one's.  The blocks of one size are stacked into one call each of
    eigvalsh and solve (a zero vector if it fails).  (eigh would give the
    vectors too, but its threaded divide-and-conquer takes tens of ms on
    some 31- and 63-row path3 blocks, a hundred times eigvalsh.)
    """
    u, tiny = np.finfo(float).eps / 2, np.finfo(float).tiny
    sizes = np.bincount(component)
    order = np.argsort(component, kind="stable")
    local = np.empty(len(component), dtype=np.intp)
    local[order] = np.arange(len(component)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row, col = np.repeat(np.arange(len(component)), np.diff(b.indptr)), b.indices
    entry_size = sizes[component[row]]
    slot = np.empty(len(sizes), dtype=np.intp)
    v = np.empty(len(component))
    for s in np.unique(sizes[component]):
        ids = np.flatnonzero(sizes == s)
        slot[ids] = np.arange(len(ids))
        keep = entry_size == s
        blocks = np.zeros((len(ids), s, s))
        blocks[slot[component[row[keep]]], local[row[keep]], local[col[keep]]] = b.data[keep]
        m = np.maximum(np.linalg.eigvalsh(blocks)[:, -1] * (1 + s * (s + 1) * u), tiny)
        try:
            x = np.linalg.solve(m[:, None, None] * np.eye(s) - blocks, np.ones((len(ids), s, 1)))
        except np.linalg.LinAlgError:
            return np.zeros(len(component))
        mine = sizes[component] == s
        v[mine] = x[slot[component[mine]], local[mine], 0]
    return v


def _sparse_vector(b):
    """Three vectors for _bracket: (mI - B)^-1 (1, ..., 1), the Ritz vector
    r of the top eigenvalue t, and |r| after 40 power steps.

    Lanczos (eigsh from the all-ones vector, to machine precision) gives
    (t, r), m = t (1 + 10^-12), and spilu factorises C = fl(mI - B) with
    one symmetric fill-reducing permutation, no pivoting and no dropping
    under the fill cap of 40 times the memory of C.  Past it the first
    bracket does not close, but r's may: with generator weights, layer 11
    of square4 at degree 12 fills 42 times (the whole B, 31).  B is
    nonnegative, so the steps v <- Bv / max(Bv) run to its Perron vector
    and mend r's least entries where they are not relatively accurate.
    Zero vectors if Lanczos or spilu fails or the solve is not finite.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh, spilu
    n = b.shape[0]
    b = sp.csr_matrix((b.data, b.indices, b.indptr), shape=(n, n))
    ones = np.ones(n)
    try:
        top, ritz = eigsh(b, k=1, which="LA", v0=ones, tol=0)
        m = max(float(top[0]) * (1 + 1e-12), np.finfo(float).tiny)
        c = (m * sp.identity(n, format="csc") - b).tocsc()
        lu = spilu(c, drop_tol=0, fill_factor=40, permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError:  # eigsh did not converge, or spilu met a singular pivot
        return np.zeros((3, n))
    v, polished = lu.solve(ones), np.abs(ritz[:, 0])
    for _ in range(40):
        polished = (w := b @ polished) / w.max()
    return np.stack([v, ritz[:, 0], polished]) if np.isfinite(v).all() else np.zeros((3, n))


def _certified_norms(terms, layer, tops, tol):
    """Certified lower and upper bounds, as two nondecreasing lists, on the norm of A,
    the sum of the terms (rows, cols, lambda) of _weighted_sum, cut to its
    columns of layer below n, for each n in tops (see norm_estimate).

    ``layer`` numbers the columns, nondecreasing, and B = A^T A links no
    two layers.  Each layer is bracketed once, from a vector solved by
    _dense_vector if none of its blocks has over _DENSE_BLOCK rows (all in
    one call), else from the three of _sparse_vector; each n reads the
    running maximum of the layer ends below it.  _gram sums each entry of B
    from the products lambda_x lambda_x' that A^T A sums, one per z = xy =
    x'y', if in another order: so the slack and _bracket's gamma_k stand.
    """
    b, rows = _gram(terms, len(layer))
    if not np.isfinite(b.data).all():
        raise ValueError("A^T A overflows the float range: the weights are too "
                         "large to square")
    if not rows.size:
        return ([0.0] * len(tops),) * 2
    group = layer[rows]
    count = np.bincount(group, minlength=layer[-1] + 1)
    below = np.cumsum(count)
    # a power of two scales B exactly, up from entries below 1 to keep the
    # solves clear of subnormals; scaling back rounds by under a subnormal
    shift = min(int(np.frexp(b.data.max())[1]), 0)
    b = b._replace(data=np.ldexp(b.data, -shift))
    component = _component_labels(b)
    sparse = np.unique(group[np.bincount(component)[component] > _DENSE_BLOCK])
    dense = ~np.isin(group, sparse)
    v = np.empty((1 + 2 * bool(sparse.size), len(rows)))
    v[:, dense] = _dense_vector(b if dense.all() else _restrict(b, dense), component[dense])
    for d in sparse:
        v[:, group == d] = _sparse_vector(_restrict(b, group == d))
    ends = np.zeros((len(count), 2))
    np.maximum.at(ends, group, np.stack(_bracket(b, v, component), axis=1)[component])
    lower, upper = np.ldexp(np.maximum.accumulate(ends), shift).T
    sub = np.finfo(float).smallest_subnormal
    slack = (3 * below + len(terms) + 8) * np.finfo(float).eps
    lower = np.sqrt(np.maximum(lower - sub, 0.0)) * (1 - slack)
    upper = np.sqrt(upper + sub) * (1 + slack)
    at = np.asarray(tops) - 1
    for lo, hi, margin in zip(lower[at], upper[at], slack[at]):
        if not (lo <= hi and hi - lo <= tol * max(lo, 1.0)):
            least = 2 * margin * lo / max(lo, 1.0)
            raise NormNotCertified(
                f"the tolerance {tol:g} is below {least:.3g}, the least the norm bracket "
                f"[{lo:.15g}, {hi:.15g}] can close to" if tol < least else
                f"norm bracket [{lo:.15g}, {hi:.15g}] is wider than the tolerance {tol:g}")
    return [np.maximum.accumulate(ends).tolist() for ends in (lower[at], upper[at])]


def norm_estimate(graph, weights, ball, tol=1e-9):
    """Certified lower bound on the norm of the compressed sum lambda_x T_x.

    The norm is the square root of the top eigenvalue of B = A^T A, which
    _certified_norms brackets as one layer (_bracket), with both ends
    widened by the rounding error of the float sums behind them and B
    (Higham's gamma_k, k from the row and weight counts): a bracket is at
    least 2 * slack * lower wide.  Returns its lower end once it is at
    most tol * max(lower, 1) wide, so the exact norm lies in [result,
    result + tol * max(result, 1)].  Raises ValueError on inputs that
    _check_norm_inputs rejects or if B overflows the float range, and
    NormNotCertified if the bracket is wider than the tolerance, saying
    so when no bracket can close to it.
    """
    _check_norm_inputs("norm_estimate", weights, tol)
    terms = _weighted_sum(graph, weights, ball)
    return _certified_norms(terms, np.zeros(len(ball), dtype=np.intp), [1], tol)[0][0]


def norm_curve(graph, weights_by_label, degrees, tol=1e-9, size_cap=BALL_SIZE_CAP):
    """Rows (degree, ball size, certified norm) for generator weights.

    The ball is enumerated, and A = sum lambda_x T_x assembled, once, at
    the largest degree.  The weights sit on generators, of degree 1, so A
    maps degree layer d into layer d + 1 and B = A^T A links only equal
    degrees.  The ball of degree n is a prefix, and its A a leading block
    whose columns of degree n leave the ball, so its B is the direct sum
    of B's layer blocks below n: each layer is certified once, and each n
    reads the running maximum of the brackets below it (_certified_norms).
    The values are nondecreasing, flat where no new layer beats the top,
    and each is kept at least the one before, since the slack grows with n
    and could dip a flat step by an ulp.  Degrees increase from 1.
    """
    return [row[:3] for row in _norm_brackets(graph, weights_by_label, degrees, tol, size_cap)]


def _norm_brackets(graph, weights_by_label, degrees, tol, size_cap):
    """norm_curve's rows with the upper end of each bracket appended, also
    kept at least the one before (the exact norm is nondecreasing in n)."""
    _check_norm_inputs("norm_curve", weights_by_label, tol)
    # the ball of degree d holds 1, g, ..., g^d: none past size_cap fits
    degrees, given = [], degrees
    for d in given:
        degrees.append(d)
        if d > size_cap:
            break
    if degrees != sorted(degrees):
        raise ValueError("norm_curve needs the degrees in increasing order")
    gen_words = dict(zip(graph.generator_labels(), graph.generator_words()))
    unknown = set(weights_by_label) - set(gen_words)
    if unknown:
        raise ValueError(f"unknown generator labels {sorted(unknown)}")
    if not degrees:
        return []
    if degrees[0] < 1:
        raise ValueError(f"ball degrees must be >= 0, not {degrees[0]}" if degrees[0] < 0 else
                         "weight support must lie inside the ball: generators have degree 1")
    big = enumerate_ball(graph, degrees[-1], size_cap=size_cap)
    terms = _weighted_sum(graph, {gen_words[k]: w for k, w in weights_by_label.items()}, big)
    layer = np.repeat(np.arange(len(big.start) - 1), np.diff(big.start))
    lower, upper = _certified_norms(terms, layer, degrees, tol)
    return list(zip(degrees, [big.start[n + 1] for n in degrees], lower, upper))
