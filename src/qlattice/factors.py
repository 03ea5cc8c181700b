"""The factor groups of a graph product, built from their specs by
factor_from_spec.

Two kinds of factor exist: the integers with positive cone the
naturals, and finite-type Artin groups with the Artin monoid as positive
cone.  Artin monoid arithmetic is done by subword reversing: the generator
rule rewrites s^-1 t into (s\\t)(t\\s)^-1, where s\\t is the alternating
word of length m(s,t)-1 starting with t, and s^-1 s into the empty word.
For a finite-type matrix this rewriting always terminates, turning u^-1 v
into (u\\v)(v\\u)^-1 with u (u\\v) the least common multiple.  The monoid
offers only that reversal, one-letter division and canonical words;
equality, quotients, lubs and gcds of elements go through ArtinOps.  Both
read short words off a cone table (ConeTable, pass 1 of the cone balls of
toeplitz too), grown by each monoid under a fixed budget of elements.
Past it canonical_word divides greedily by reversing, and stops at a
canonical tail, since shortlex-least words are closed under suffixes.

General Artin group elements are carried around as canonical fractions
a b^-1 with a, b positive and without a common nontrivial right divisor.

The graph product (graph, order, toeplitz) reaches a factor only through
the interface that ZOps and ArtinOps implement, with no base class; a new
kind implements it too: identity, is_identity, multiply, invert,
is_positive, degree, factorize (a = p q^-1 as the canonical pair (p, q)),
generators(vertex) ({label: element} for the cone's generators) and
letters(vertex, a) (the labels that spell a positive a).  The lub of x and
y is x p for the canonical pair (p, q) of x^-1 y, so no factor computes it.
Only io (the wire format) and verify (its sampler) read ``kind``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import combinations, permutations

INFINITE = math.inf

#: Sentinel that order.lub returns when two elements of a graph product
#: have no common upper bound.  (No factor needs it: in Z and in a
#: finite-type Artin group every pair is bounded.)
class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "Infinity"


INFINITY = _Infinity()


class NotFiniteTypeError(ValueError):
    """The Coxeter group of the given Artin matrix is not finite."""


class NoCommonMultipleError(RuntimeError):
    """Subword reversing ran past _REVERSING_STEP_CAP.

    For a finite-type matrix reversing terminates, but its step count grows
    quickly with word length (s^-800 t^800 in the 3-strand braid monoid
    already passes the cap), so this is a work budget, not a proof of
    divergence.
    """


# ---------------------------------------------------------------------------
# Coxeter matrix validation and the finite-type classification
# ---------------------------------------------------------------------------

#: Largest Coxeter entry accepted, checked before any alternating word of
#: length m - 1 is built.  A reversing step writes one: s^-10 t^10 takes
#: half a second to reduce in I2(100), a minute in I2(1000).
_COXETER_ENTRY_CAP = 100


def normalize_coxeter_entry(value):
    """Map a raw matrix entry to an int >= 1 or INFINITE."""
    if value in (None, 0, "inf", "infinity"):
        return INFINITE
    if value == INFINITE:
        return INFINITE
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"bad Coxeter matrix entry: {value!r}")
    return value


def validate_coxeter(generators, m):
    """Check shape/symmetry constraints; return the normalized matrix."""
    n = len(generators)
    if n == 0:
        raise ValueError("Artin factor needs at least one generator")
    if not all(isinstance(s, str) and s for s in generators):
        raise ValueError("Artin generator names must be nonempty strings")
    if len(set(generators)) != n:
        raise ValueError("duplicate Artin generator names")
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError("Coxeter matrix must be square over the generators")
    norm = [[normalize_coxeter_entry(v) for v in row] for row in m]
    for i in range(n):
        if norm[i][i] != 1:
            raise ValueError("Coxeter matrix diagonal must be 1")
        for j in range(i + 1, n):
            if norm[i][j] != norm[j][i]:
                raise ValueError("Coxeter matrix must be symmetric")
            if norm[i][j] != INFINITE and norm[i][j] < 2:
                raise ValueError("off-diagonal Coxeter entries must be >= 2")
            if _COXETER_ENTRY_CAP < norm[i][j] < INFINITE:
                raise ValueError(f"Coxeter entries above {_COXETER_ENTRY_CAP} are not supported")
    return norm


def _arm_length(branch, first, adj):
    """Edge count of the path walking from a degree-3 node towards a leaf."""
    length = 1
    prev, cur = branch, first
    while len(adj[cur]) == 2:
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        prev, cur = cur, nxt
        length += 1
    return length


def _component_finite(comp, adj, m):
    k = len(comp)
    if k == 1:
        return True
    labels = [m[i][j] for i in comp for j in adj[i] if i < j]
    if any(l == INFINITE for l in labels):
        return False
    if len(labels) != k - 1:
        return False  # a cycle: affine or worse
    if k == 2:
        return True  # I2(m)
    deg = {v: len(adj[v]) for v in comp}
    if any(d > 3 for d in deg.values()):
        return False
    branch = [v for v in comp if deg[v] == 3]
    high = [l for l in labels if l >= 4]
    if len(branch) > 1 or len(high) > 1 or (branch and high):
        return False
    if high:
        # a labeled path: B_n (label-4 edge at an end), F4, H3, H4
        (i, j) = next(
            (i, j) for i in comp for j in adj[i] if i < j and m[i][j] >= 4
        )
        at_end = deg[i] == 1 or deg[j] == 1
        if m[i][j] == 4:
            return at_end or k == 4
        if m[i][j] == 5:
            return at_end and k in (3, 4)
        return False
    if not branch:
        return True  # A_n
    arms = sorted(_arm_length(branch[0], nb, adj) for nb in adj[branch[0]])
    if arms[0] == 1 and arms[1] == 1:
        return True  # D_n
    return arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4])  # E6, E7, E8


def coxeter_is_finite_type(m):
    """Classify the Coxeter diagram against the finite list.

    Components are matched against A_n, B_n, D_n, I2(m), H3, H4, F4 and
    E6/E7/E8.  Edges of the diagram are the pairs with m(s,t) != 2.
    """
    n = len(m)
    adj = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != 2:
                adj[i].append(j)
                adj[j].append(i)
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if not _component_finite(comp, adj, m):
            return False
    return True


# ---------------------------------------------------------------------------
# Artin monoids via subword reversing
# ---------------------------------------------------------------------------

#: The work budget of one reversal, in rewriting steps; past it reversing
#: raises NoCommonMultipleError.
_REVERSING_STEP_CAP = 1_000_000

#: Most elements an ArtinMonoid's cone table may hold; a layer that might
#: take it past this is not grown, and longer words are reversed instead.
_CONE_TABLE_BUDGET = 4_000


class ConeTable:
    """The left-multiplication table of a cone ball, grown a layer at a time.

    rows[g][j] is the id of g y_j, the ids numbered degree first (-1 in the
    top layer, not yet filled), a row per label (row_of).  For labels s
    before g, lubs spells their lub j as (s, g, s (s\\j), g (g\\j)), or has
    None sides; later[g] lists (s, s\\j, g\\j), tails as rows.  g y = s z
    exactly when y = (g\\j) w and z = (s\\j) w for some w, so grow copies
    those entries of row g from row s, walking the built layers along the
    tails, and numbers the rest, recording each new z's first entry
    (g, y).  g is then the least row dividing z, so by induction each layer
    is in the lexicographic order of least spellings, and the chain of
    first entries from z spells its least word.
    """

    def __init__(self, labels, lubs):
        row = self.row_of = {label: i for i, label in enumerate(labels)}
        self.later = [[] for _ in row]
        for s, g, lhs, rhs in lubs:
            if lhs is not None:
                tails = ([row[c] for c in side[1:]] for side in (lhs, rhs))
                self.later[row[g]].append((row[s], *tails))
        self.rows = [[-1] for _ in row]
        self.start = [0, 1]  # the ids of degree d run from start[d] to start[d + 1]
        self.first = [None]

    def grow(self):
        """Fill the columns of the top layer, numbering the layer above it."""
        rows, start = self.rows, self.start
        d, end = len(start) - 1, start[-1]  # the degree of the new layer

        def walk(letters, e):  # the ids of the letters times each w of degree e
            ids = range(start[e], start[e + 1])
            for c in reversed(letters):
                ids = [rows[c][i] for i in ids]
            return ids

        for g, row in enumerate(rows):
            for s, s_tail, g_tail in self.later[g]:
                e = d - 1 - len(g_tail)  # the degree of w, d - deg j
                if e >= 0:
                    for i, j in zip(walk(g_tail, e), walk(s_tail, e)):
                        row[i] = rows[s][j]
            for y in range(start[d - 1], end):
                if row[y] < 0:
                    row[y] = len(self.first)
                    self.first.append((g, y))
        start.append(len(self.first))
        for row in rows:
            row += [-1] * (start[-1] - end)


class ArtinMonoid:
    """Positive words over a finite-type Artin presentation.

    Words are tuples of generator names.  reverse_fraction gives the
    complements of two words, and so their least common multiple; _strip
    cancels their common left divisor.  The canonical spelling used for
    hashing is the shortlex-least word.  The only state beyond the
    presentation is a cone table, grown lazily towards the longest word
    asked so far, within _CONE_TABLE_BUDGET elements.  A word up to its
    degree is walked through it, one lookup per letter, and that word and
    the letter quotients are read off its id; longer words are reversed.
    """

    def __init__(self, generators, m):
        self.generators = tuple(generators)
        self.matrix = validate_coxeter(self.generators, m)
        if not coxeter_is_finite_type(self.matrix):
            raise NotFiniteTypeError(
                f"Artin matrix over {self.generators} is not of finite type"
            )
        self.index = {s: i for i, s in enumerate(self.generators)}
        code = self._code = {s: i + 1 for i, s in enumerate(self.generators)}
        self._letter = (None,) + self.generators
        # s^-1 t reverses to (s\t)(t\s)^-1; with letters coded 1..n and
        # inverses -1..-n, _reversal[s][t] holds it (row and column 0 unused)
        self._reversal = [[[] for _ in self._letter] for _ in self._letter]
        for s, t in permutations(self.generators, 2):
            mm = self.coxeter(s, t) - 1
            self._reversal[code[s]][code[t]] = (
                [code[c] for c in self._alt(t, s, mm)]
                + [-code[c] for c in reversed(self._alt(s, t, mm))]
            )
        self._table = ConeTable(self.generators, [
            (s, t, self._alt(s, t, self.coxeter(s, t)), self._alt(t, s, self.coxeter(s, t)))
            for s, t in combinations(self.generators, 2)])
        self._rows = dict(zip(self.generators, self._table.rows))
        self._inverse = {s: [-1] for s in self.generators}  # _inverse[s][z] = s\z or -1
        self._words = [()]  # the shortlex-least word of each id
        self._degree, self._budget = 0, _CONE_TABLE_BUDGET
        self._growing = threading.Lock()

    def coxeter(self, s, t):
        return self.matrix[self.index[s]][self.index[t]]

    @staticmethod
    def _alt(s, t, length):
        """Alternating word s t s t ... of the given length."""
        return tuple(s if i % 2 == 0 else t for i in range(length))

    def reverse_fraction(self, u, v):
        """Rewrite u^-1 v into positive fraction form p q^-1.

        Returns (p, q) = (u\\v, v\\u); in particular u (u\\v) = v (v\\u)
        is the least common multiple of u and v.
        """
        if not u or not v:
            return tuple(v), tuple(u)
        code, table = self._code, self._reversal
        word = [-code[s] for s in reversed(u)] + [code[t] for t in v]
        steps = 0
        i = 0
        while i < len(word) - 1:
            a, b = word[i], word[i + 1]
            if a > 0 or b < 0:
                i += 1
                continue
            word[i:i + 2] = table[-a][b]
            i = i - 1 if i else 0
            steps += 1
            if steps > _REVERSING_STEP_CAP:
                raise NoCommonMultipleError(
                    f"subword reversing passed its budget of {_REVERSING_STEP_CAP} steps")
        letter = self._letter
        return (tuple(letter[c] for c in word if c > 0),
                tuple(letter[-c] for c in reversed(word) if c < 0))

    def _id(self, w):
        """The id of w in the cone table, grown towards degree len(w) while
        the next layer (at most n times the top one) fits the budget, or None."""
        if len(w) > self._degree:
            with self._growing:  # one thread grows; readers stay below _degree
                while len(w) > self._degree:
                    table, start = self._table, self._table.start
                    if start[-1] + len(self._rows) * (start[-1] - start[-2]) > self._budget:
                        return None
                    table.grow()
                    self._words += [(self.generators[g],) + self._words[y]
                                    for g, y in table.first[start[-2]:]]
                    for row, inverse in zip(table.rows, self._inverse.values()):
                        inverse += [-1] * (start[-1] - start[-2])
                        for y in range(start[-3], start[-2]):
                            inverse[row[y]] = y
                    self._degree += 1
        rows, z = self._rows, 0
        for c in reversed(w):
            z = rows[c][z]
        return z

    def _letter_quotient(self, s, w):
        """The word w' with s w' = w, or None if s does not left-divide w
        (nonempty): read off the cone table, else by reversing."""
        if w[0] == s:
            return w[1:]
        z = self._id(w)
        if z is not None:
            y = self._inverse[s][z]
            return None if y < 0 else self._words[y]
        quotient, over = self.reverse_fraction((s,), w)
        return None if over else quotient

    def _strip(self, p, q):
        """(g\\p, g\\q) for g the left gcd of p and q, one common letter
        at a time: s <= p, q gives gcd(p, q) = s gcd(s\\p, s\\q)."""
        while p and q:
            for s in self.generators:
                p1 = self._letter_quotient(s, p)
                q1 = None if p1 is None else self._letter_quotient(s, q)
                if q1 is not None:
                    break
            else:
                break
            p, q = p1, q1
        return p, q

    def canonical_word(self, w, tail=()):
        """Shortlex-least word equal to w + tail, for a shortlex-least tail.

        Equal words have equal length, so this is the lexicographically
        least one: repeatedly split off the least generator that
        left-divides what remains, until the cone table holds the rest.  The
        first letter of the remainder always divides it, which bounds each
        scan.  Suffixes of shortlex-least words are shortlex-least, so once
        the scan has taken every letter of w unchanged, the rest is the tail
        as it is.
        """
        rest = tuple(w) + tuple(tail)
        fresh = len(w)  # letters before the canonical tail
        out = []
        while fresh > 0:
            z = self._id(rest)
            if z is not None:
                return tuple(out) + self._words[z]
            for s in self.generators:
                quotient = self._letter_quotient(s, rest)
                if quotient is not None:
                    break
            fresh = fresh - 1 if s == rest[0] else len(quotient)
            out.append(s)
            rest = quotient
        return tuple(out) + rest

    def parse_word(self, text):
        """Split a string into generator letters (longest match first)."""
        names = sorted(self.generators, key=len, reverse=True)
        letters = []
        i = 0
        while i < len(text):
            for name in names:
                if text.startswith(name, i):
                    letters.append(name)
                    i += len(name)
                    break
            else:
                raise ValueError(f"unknown Artin generator at {text[i:]!r}")
        return tuple(letters)


@dataclass(frozen=True)
class ArtinFraction:
    """An Artin group element num * den^-1 with rgcd(num, den) = 1.

    Both words are stored in shortlex canonical form, so fractions compare
    and hash by value.
    """
    num: tuple
    den: tuple

    def __repr__(self):
        n = "".join(self.num) or "e"
        d = "".join(self.den)
        return n if not d else f"{n}/{d}"


# ---------------------------------------------------------------------------
# The uniform factor interface
# ---------------------------------------------------------------------------

class ZOps:
    """(Z, N): elements are plain ints, the cone is n >= 0."""

    kind = "Z"
    identity = 0

    def is_identity(self, a):
        return a == 0

    def multiply(self, a, b):
        return a + b

    def invert(self, a):
        return -a

    def is_positive(self, a):
        return a >= 0

    def degree(self, a):
        return a

    def factorize(self, a):
        return (a, 0) if a >= 0 else (0, -a)

    def generators(self, vertex):
        return {vertex: 1}

    def letters(self, vertex, a):
        return (vertex,) * a


class ArtinOps:
    """A finite-type Artin group with the Artin monoid as positive cone."""

    kind = "artin"

    def __init__(self, generators, m):
        self.monoid = ArtinMonoid(generators, m)
        self.identity = ArtinFraction((), ())

    def element(self, num, den=()):
        """Build the canonical fraction for num * den^-1."""
        num, den = tuple(num), tuple(den)
        if num and den:
            p, q = self.monoid._strip(num[::-1], den[::-1])
            num, den = p[::-1], q[::-1]
        return ArtinFraction(
            self.monoid.canonical_word(num), self.monoid.canonical_word(den)
        )

    def is_identity(self, f):
        return not f.num and not f.den

    def multiply(self, f, g):
        if not f.den and not g.den:  # g.num is canonical: a canonical tail
            return ArtinFraction(self.monoid.canonical_word(f.num, g.num), ())
        # f.den^-1 g.num reverses to x y^-1
        x, y = self.monoid.reverse_fraction(f.den, g.num)
        if not f.num and not g.den:
            # u x = v y = lcm(u, v), so no gcd to strip: x = x' d, y = y' d
            # would make u x' = v y' a shorter common multiple
            return ArtinFraction(self.monoid.canonical_word(x), self.monoid.canonical_word(y))
        return self.element(f.num + x, g.den + y)

    def invert(self, f):
        return ArtinFraction(f.den, f.num)

    def is_positive(self, f):
        return not f.den

    def degree(self, f):
        return len(f.num) - len(f.den)

    def factorize(self, f):
        return ArtinFraction(f.num, ()), ArtinFraction(f.den, ())

    def generators(self, vertex):
        return {s: ArtinFraction((s,), ()) for s in self.monoid.generators}

    def letters(self, vertex, f):
        return f.num


def factor_from_spec(spec):
    """Build factor ops from the JSON factor descriptor.

    Accepts "Z" or {"artin": {"generators": [...], "m": [[...]]}}.
    """
    if spec == "Z":
        return ZOps()
    if isinstance(spec, dict) and set(spec) == {"artin"}:
        inner = spec["artin"]
        return ArtinOps(inner["generators"], inner["m"])
    raise ValueError(f"unknown factor spec: {spec!r}")
