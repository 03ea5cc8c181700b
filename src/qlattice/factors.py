"""The factor groups of a graph product, built from their specs by
factor_from_spec.

Two kinds of factor exist: the integers with positive cone the
naturals, and finite-type Artin groups (coxeter_is_finite_type: a positive
definite cosine form) with the Artin monoid as positive cone.  Artin
monoid arithmetic is done by subword reversing: the generator rule
rewrites s^-1 t into (s\\t)(t\\s)^-1, where s\\t is the alternating
word of length m(s,t)-1 starting with t, and s^-1 s into the empty word.
For a finite-type matrix this rewriting always terminates, turning u^-1 v
into (u\\v)(v\\u)^-1 with u (u\\v) the least common multiple.  The monoid
offers only that reversal, one-letter division and canonical words;
equality, quotients, lubs and gcds of elements go through ArtinOps.  Both
read short words off a cone table (ConeTable, pass 1 of the cone balls of
toeplitz too), grown by each monoid under a fixed budget of elements.
Past it canonical_word divides greedily by reversing, and stops at a
canonical tail, since shortlex-least words are closed under suffixes; its
reversals, quadratic in length in all, count steps on one itertools.count.

General Artin group elements are carried around as canonical fractions
a b^-1 with a, b positive and without a common nontrivial right divisor.
Words are written as names of at most 64 characters run together and read
back by longest match; INFINITY, math.inf, is both m(s, t) = inf and the
lub of an unbounded pair.

The graph product (graph, order, toeplitz) reaches a factor only through
the interface that ZOps and ArtinOps implement, with no base class; a new
kind implements it too.  Its elements are hashable values (the graph pools
syllables by (vertex, element)), and it offers identity, is_identity,
multiply, invert, is_positive, degree, factorize (a = p q^-1 as the
canonical pair (p, q); either part may be a itself or the identity
object), generators(vertex) ({label: element} for the cone's generators)
and letters(vertex, a) (the labels that spell a positive a).  The lub of
x and y is x p for the canonical pair (p, q) of x^-1 y, so no factor
computes it.
Only io (the wire format) and verify (its sampler) read ``kind``.
"""

from __future__ import annotations

import math
import re
import threading
from itertools import combinations, count, permutations

#: m(s, t) = inf and order.lub of an unbounded pair: one fact, since two Artin
#: generators have a common multiple exactly when m(s, t) is finite (Brieskorn-Saito).
INFINITY = math.inf


class NotFiniteTypeError(ValueError):
    """The Coxeter group of the given Artin matrix is not finite."""


class NoCommonMultipleError(RuntimeError):
    """One reversal, or all those of one greedy division, ran past _REVERSING_STEP_CAP.

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
    """Map a raw matrix entry to an int >= 1 or INFINITY."""
    if not isinstance(value, bool) and value in (None, 0, "inf", "infinity", INFINITY):
        return INFINITY  # bools are kept out first, since False == 0
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
    if max(map(len, generators)) > 64:  # the read-back rule below is quadratic in length
        raise ValueError("Artin generator names longer than 64 characters are not supported")
    for b in generators:  # longest match misreads a word exactly when
        # some b = a + r, a a name and r the start of a word w of names: a w
        # reads as b...; with no such pair no longer name fits at any letter.
        begins = {}  # i -> whether b[i:] begins a word of names
        for i in range(len(b) - 1, 0, -1):  # shorter suffixes first
            begins[i] = any(c.startswith(b[i:]) or b.startswith(c, i) and begins[i + len(c)]
                            for c in generators)
            if begins[i] and b[:i] in generators:
                raise ValueError(f"Artin generator names {b[:i]!r} and {b!r} do not read back")
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError("Coxeter matrix must be square over the generators")
    norm = [[normalize_coxeter_entry(v) for v in row] for row in m]
    for i in range(n):
        if norm[i][i] != 1:
            raise ValueError("Coxeter matrix diagonal must be 1")
        for j in range(i + 1, n):
            if norm[i][j] != norm[j][i]:
                raise ValueError("Coxeter matrix must be symmetric")
            if norm[i][j] < 2:
                raise ValueError("off-diagonal Coxeter entries must be >= 2")
            if _COXETER_ENTRY_CAP < norm[i][j] < INFINITY:
                raise ValueError(f"Coxeter entries above {_COXETER_ENTRY_CAP} are not supported")
    return norm


def coxeter_is_finite_type(m):
    """Whether W is finite: exactly when its cosine form B(e_s, e_t) =
    -cos(pi/m(s,t)) is positive definite (Humphreys, Reflection Groups and
    Coxeter Groups, 1990, Thm 6.4), so when symmetric elimination on B
    meets no pivot <= 1e-9.  B is exactly 0 at m = 2 and -1 at m = inf.

    The margin: by Cauchy interlacing each pivot is at least lambda_min(B),
    on a finite irreducible type 1 - cos(pi/h), h the Coxeter number
    (Humphreys 3.16-3.19).  The least over the types a context can declare
    are B_n's 1 - cos(pi/2n) ~ 1.23/n^2, I2(100)'s 4.9e-4 and H4's and E8's
    5.5e-3.  So 1e-9 separates finite types up to about rank 30,000 (9e8
    matrix entries, past what validate_coxeter could hold) from affine forms,
    singular, with a last pivot of rounding error, and hyperbolic ones,
    which have a negative pivot.
    """
    b = [[0.0 if x == 2 else -math.cos(math.pi / x) for x in row] for row in m]
    for k, row in enumerate(b):
        if row[k] <= 1e-9:
            return False
        for i in range(k + 1, len(b)):  # on the upper triangle; zeros skipped
            if f := row[i] / row[k]:
                for j in range(i, len(b)):
                    b[i][j] -= f * row[j]
    return True


# ---------------------------------------------------------------------------
# Artin monoids via subword reversing
# ---------------------------------------------------------------------------

#: The work budget of one reversal, or of all those of one canonical_word or
#: _strip, in rewriting steps; past it reversing raises NoCommonMultipleError.
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
    complements of two words, so their lcm, in steps drawn from spent, an
    itertools.count that the reversals of one division share; _strip
    cancels their common left divisor.  Canonical words, used for hashing,
    are shortlex-least.  The only state beyond the presentation is a cone
    table, grown lazily towards the longest word asked so far, within
    _CONE_TABLE_BUDGET elements.  A word up to its degree is walked through
    it, one lookup per letter, and its word and quotients read off its id.
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
        # inverses -1..-n, _reversal[s][t] holds it last letter first (row
        # and column 0 unused)
        self._reversal = [[() for _ in self._letter] for _ in self._letter]
        for s, t in permutations(self.generators, 2):
            mm = self.coxeter(s, t) - 1
            self._reversal[code[s]][code[t]] = tuple(
                [-code[c] for c in self._alt(s, t, mm)]
                + [code[c] for c in reversed(self._alt(t, s, mm))])
        self._table = ConeTable(self.generators, [
            (s, t, self._alt(s, t, self.coxeter(s, t)), self._alt(t, s, self.coxeter(s, t)))
            for s, t in combinations(self.generators, 2)])
        self._rows = dict(zip(self.generators, self._table.rows))
        self._inverse = {s: [-1] for s in self.generators}  # _inverse[s][z] = s\z or -1
        self._words = [()]  # the shortlex-least word of each id
        self._degree, self._budget = 0, _CONE_TABLE_BUDGET
        self._growing = threading.Lock()
        names = "|".join(map(re.escape, sorted(self.generators, key=len, reverse=True)))
        self._name, self._spelled = re.compile(names), re.compile(f"(?:{names})*")

    def coxeter(self, s, t):
        return self.matrix[self.index[s]][self.index[t]]

    @staticmethod
    def _alt(s, t, length):
        """Alternating word s t s t ... of the given length."""
        return tuple(s if i % 2 == 0 else t for i in range(length))

    def reverse_fraction(self, u, v, spent=None):
        """Rewrite u^-1 v into positive fraction form p q^-1.

        Returns (p, q) = (u\\v, v\\u), so u (u\\v) = v (v\\u) = lcm(u, v).
        word holds the letters reversed so far, positive then inverse, and
        pending the rewrites still to read, last letter first.  Each step,
        one rewrite, draws from spent: an itertools.count that the
        reversals of one division share.
        """
        if not u or not v:
            return tuple(v), tuple(u)
        code, table, letter, spent = self._code, self._reversal, self._letter, spent or count(1)
        word, pending, k = [0] + [-code[s] for s in reversed(u)], [], 0  # 0 marks the bottom
        while pending or k < len(v) and word[-1] < 0:  # v[k:] unread; kept once no inverse
            if pending:
                if (b := pending.pop()) < 0 or word[-1] >= 0:
                    word.append(b)
                    continue
            else:
                b, k = code[v[k]], k + 1
            if next(spent) > _REVERSING_STEP_CAP:
                raise NoCommonMultipleError(
                    f"subword reversing passed its budget of {_REVERSING_STEP_CAP} steps")
            pending += table[-word.pop()][b]
        return (tuple(letter[c] for c in word if c > 0) + tuple(v[k:]),
                tuple(letter[-c] for c in reversed(word) if c < 0))

    def _id(self, w, at=0):
        """The id of w[at:] in the cone table, grown towards its degree while
        the next layer (at most n times the top one) fits the budget, or None."""
        if len(w) - at > self._degree:
            with self._growing:  # one thread grows; readers stay below _degree
                while len(w) - at > self._degree:
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
        for c in reversed(w[at:]):  # at most _degree letters
            z = rows[c][z]
        return z

    def _letter_quotient(self, s, w, start=0, spent=None):
        """The w' with s w' = w[start:] (nonempty), as a word and the index
        it starts at, or None; spent as in reverse_fraction."""
        if w[start] == s:
            return w, start + 1
        z = self._id(w, start)
        if z is not None:
            y = self._inverse[s][z]
            return None if y < 0 else (self._words[y], 0)
        quotient, over = self.reverse_fraction((s,), w[start:], spent)
        return None if over else (quotient, 0)

    def _strip(self, p, q):
        """(g\\p, g\\q) for g the left gcd of p and q, one common letter
        at a time: s <= p, q gives gcd(p, q) = s gcd(s\\p, s\\q)."""
        spent = count(1)  # all the reversals of one strip share one step budget
        i = j = 0  # the remainders are p[i:] and q[j:]
        while i < len(p) and j < len(q):
            for s in self.generators:
                p1 = self._letter_quotient(s, p, i, spent)
                q1 = None if p1 is None else self._letter_quotient(s, q, j, spent)
                if q1 is not None:
                    break
            else:
                break
            (p, i), (q, j) = p1, q1
        return p[i:], q[j:]

    def canonical_word(self, w, tail=()):
        """Shortlex-least word equal to w + tail, for a shortlex-least tail.

        Equal words have equal length, so this is the lexicographically least
        one: repeatedly split off the least generator that left-divides what
        remains, rest[start:], until the cone table holds it.  The first letter
        of the remainder always divides it, which bounds each scan; dividing it
        off moves start and copies nothing.  Suffixes of shortlex-least words
        are shortlex-least, so once the scan has taken every letter of w
        unchanged, the rest is the tail as it is.
        """
        rest, fresh = tuple(w) + tuple(tail), len(w)  # fresh: letters before the canonical tail
        start, out, spent = 0, [], None  # what remains is rest[start:]
        while fresh > 0:
            z = self._id(rest, start)
            if z is not None:
                return tuple(out) + self._words[z]
            spent = spent or count(1)  # its reversals, quadratic in all, share one step budget
            for s in self.generators:
                quotient = self._letter_quotient(s, rest, start, spent)
                if quotient is not None:
                    break
            fresh = fresh - 1 if s == rest[start] else len(quotient[0])
            out.append(s)
            rest, start = quotient
        return tuple(out) + rest[start:]

    def parse_word(self, text):
        """Split a string into generator letters (longest match first)."""
        end = self._spelled.match(text).end()  # always matches: where longest match stops
        if end < len(text):
            raise ValueError(f"unknown Artin generator at {text[end:]!r}")
        return tuple(self._name.findall(text))


class Record:
    """The cold methods of the immutable records ArtinFraction, Syllable and
    NormalWord, written out on __slots__ because importing dataclasses, and
    with it inspect, took about 30 % of a lattice process's start-up.  Each
    writes its own __init__, __eq__ and __hash__ (of its field tuple, as a
    dataclass): on these hot paths a generic one was slower.  __init__ calls
    its slots' descriptor __set__, bound once per module, past __setattr__:
    254 ns a construction, against 342 ns by object.__setattr__ (timeit)."""
    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class ArtinFraction(Record):
    """An Artin group element num * den^-1 with rgcd(num, den) = 1.

    Both words are stored in shortlex canonical form, so fractions compare
    and hash by value.  A Record, not a dataclass: see Record for why.
    """
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        _set_num(self, num)
        _set_den(self, den)

    def __eq__(self, other):
        return (self.num == other.num and self.den == other.den
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        n = "".join(self.num) or "e"
        d = "".join(self.den)
        return n if not d else f"{n}/{d}"


_set_num, _set_den = ArtinFraction.num.__set__, ArtinFraction.den.__set__


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
        if not f.den:
            return f, self.identity
        num = ArtinFraction(f.num, ()) if f.num else self.identity
        return num, ArtinFraction(f.den, ())

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
