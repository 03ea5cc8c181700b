"""Factor groups pluggable into a graph product.

Two kinds of factor are supported: the integers with positive cone the
naturals, and finite-type Artin groups with the Artin monoid as positive
cone.  Artin monoid arithmetic (equality, least common multiples, greatest
common right divisors) is done by subword reversing: the generator rule
rewrites s^-1 t into (s\\t)(t\\s)^-1, where s\\t is the alternating word of
length m(s,t)-1 starting with t, and s^-1 s into the empty word.  For a
finite-type matrix this rewriting always terminates and computes the
lattice operations of the monoid.

General Artin group elements are carried around as canonical fractions
a b^-1 with a, b positive and without a common nontrivial right divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce as _fold
from itertools import permutations

INFINITE = math.inf

#: Sentinel returned by lub_or_infinity when no common upper bound exists.
#: (Never returned by the Z or finite-type Artin factors, where every pair
#: of elements is bounded; graph products produce it.)
class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "Infinity"


INFINITY = _Infinity()


class NotFiniteTypeError(ValueError):
    """The Coxeter group of the given Artin matrix is not finite."""


class NoCommonMultipleError(RuntimeError):
    """Subword reversing diverged.

    Impossible for a finite-type matrix; kept as a guard against a
    non-finite-type matrix slipping past validation.
    """


# ---------------------------------------------------------------------------
# Coxeter matrix validation and the finite-type classification
# ---------------------------------------------------------------------------

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

_REVERSING_STEP_CAP = 1_000_000


class ArtinMonoid:
    """Positive words over a finite-type Artin presentation.

    Words are tuples of generator names.  Monoid equality, complements,
    least common multiples and right gcds all reduce to subword reversing.
    The canonical spelling used for hashing is the shortlex-least word,
    found by greedy left division with the same reversing; the monoid
    keeps no state beyond its presentation.
    """

    def __init__(self, generators, m):
        self.generators = tuple(generators)
        self.matrix = validate_coxeter(self.generators, m)
        if not coxeter_is_finite_type(self.matrix):
            raise NotFiniteTypeError(
                f"Artin matrix over {self.generators} is not of finite type"
            )
        self.index = {s: i for i, s in enumerate(self.generators)}
        # s^-1 t reverses to (s\t)(t\s)^-1, as signed letters
        self._reversal = {(s, s): [] for s in self.generators}
        for s, t in permutations(self.generators, 2):
            mm = self.coxeter(s, t) - 1
            self._reversal[s, t] = (
                [(c, +1) for c in self._alt(t, s, mm)]
                + [(c, -1) for c in reversed(self._alt(s, t, mm))]
            )

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
        word = [(s, -1) for s in reversed(u)] + [(t, +1) for t in v]
        steps = 0
        i = 0
        while i < len(word) - 1:
            if not (word[i][1] < 0 and word[i + 1][1] > 0):
                i += 1
                continue
            word[i:i + 2] = self._reversal[word[i][0], word[i + 1][0]]
            i = max(i - 1, 0)
            steps += 1
            if steps > _REVERSING_STEP_CAP:
                raise NoCommonMultipleError("reversing step cap exceeded")
        pos = tuple(c for c, sign in word if sign > 0)
        neg = tuple(c for c, sign in reversed(word) if sign < 0)
        return pos, neg

    def complement(self, u, v):
        """u\\v, the word with u (u\\v) = u lcm v."""
        return self.reverse_fraction(u, v)[0]

    def equal_words(self, u, v):
        if len(u) != len(v):  # letter count is invariant under the relations
            return False
        p, q = self.reverse_fraction(u, v)
        return not p and not q

    def left_divides(self, u, z):
        return self.reverse_fraction(u, z)[1] == ()

    def left_quotient(self, u, z):
        """The word w with u w = z; requires u to left-divide z."""
        p, q = self.reverse_fraction(u, z)
        if q:
            raise ValueError("left_quotient: divisor does not divide")
        return p

    def right_quotient(self, z, c):
        """The word w with w c = z; requires c to right-divide z."""
        return tuple(
            reversed(self.left_quotient(tuple(reversed(c)), tuple(reversed(z))))
        )

    def lub_words(self, u, v):
        return u + self.complement(u, v)

    def left_gcd(self, p, q):
        """Greatest common left divisor, by stripping lubs of common letters."""
        out = ()
        while p and q:
            common = [
                (s,) for s in self.generators
                if self.left_divides((s,), p) and self.left_divides((s,), q)
            ]
            if not common:
                break
            g = _fold(self.lub_words, common)
            out = out + g
            p = self.left_quotient(g, p)
            q = self.left_quotient(g, q)
        return out

    def rgcd_words(self, u, v):
        g = self.left_gcd(tuple(reversed(u)), tuple(reversed(v)))
        return tuple(reversed(g))

    def word_key(self, w):
        return (len(w),) + tuple(self.index[c] for c in w)

    def canonical_word(self, w):
        """Shortlex-least word equal to w.

        Equal words have equal length, so this is the lexicographically
        least one: repeatedly split off the least generator that
        left-divides what remains.  The first letter of the remainder
        always divides it, which bounds each scan.
        """
        rest = tuple(w)
        out = []
        while rest:
            for s in self.generators:
                if s == rest[0]:
                    rest = rest[1:]
                    break
                quotient, over = self.reverse_fraction((s,), rest)
                if not over:
                    rest = quotient
                    break
            out.append(s)
        return tuple(out)

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

    def lub_or_infinity(self, a, b):
        return max(a, b)

    def sort_key(self, a):
        return (a,)

    def generator_elements(self):
        return [1]


class ArtinOps:
    """A finite-type Artin group with the Artin monoid as positive cone."""

    kind = "artin"

    def __init__(self, generators, m):
        self.monoid = ArtinMonoid(generators, m)
        self.identity = ArtinFraction((), ())

    def element(self, num, den=()):
        """Build the canonical fraction for num * den^-1."""
        num, den = tuple(num), tuple(den)
        c = self.monoid.rgcd_words(num, den)
        if c:
            num = self.monoid.right_quotient(num, c)
            den = self.monoid.right_quotient(den, c)
        return ArtinFraction(
            self.monoid.canonical_word(num), self.monoid.canonical_word(den)
        )

    def is_identity(self, f):
        return not f.num and not f.den

    def multiply(self, f, g):
        # f.den^-1 g.num reverses to x y^-1
        x, y = self.monoid.reverse_fraction(f.den, g.num)
        return self.element(f.num + x, g.den + y)

    def invert(self, f):
        return ArtinFraction(f.den, f.num)

    def is_positive(self, f):
        return not f.den

    def degree(self, f):
        return len(f.num) - len(f.den)

    def factorize(self, f):
        return ArtinFraction(f.num, ()), ArtinFraction(f.den, ())

    def lub_or_infinity(self, x, y):
        a, _ = self.factorize(self.multiply(self.invert(x), y))
        return self.multiply(x, a)

    def sort_key(self, f):
        return self.monoid.word_key(f.num) + self.monoid.word_key(f.den)

    def generator_elements(self):
        return [ArtinFraction((s,), ()) for s in self.monoid.generators]

    def positive_word(self, f):
        if f.den:
            raise ValueError(f"{f!r} is not positive")
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
