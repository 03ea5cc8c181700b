"""Words over a graph product and their canonical normal form.

A graph product is built from a finite simplicial graph whose vertices
carry factor groups; adjacent factors commute elementwise.  Words are
sequences of syllables (a nontrivial factor element tagged by its vertex).
Two rewriting moves are available: a *shuffle* swaps adjacent syllables at
adjacent vertices, and an *amalgamation* merges two same-vertex syllables
once the syllables between them have been shuffled out of the way.  A word
is reduced when no sequence of shuffles enables an amalgamation; all
reduced expressions of an element are shuffle equivalent, so the word
problem reduces to the factors.

The canonical form is the greedy one: repeatedly extract the initial
syllable whose vertex is least in the graph's fixed vertex order.  It is
the lexicographically least linear extension of the order in which
syllables at equal or non-adjacent vertices cannot pass each other, so
``reduce`` builds it in one pass of stack insertion that keeps the prefix
canonical, so a product reuses its canonical left factor.  Equal elements
have identical syllable sequences and equality is a sequence comparison.

Syllables and words are values: they compare and hash by their fields, and
two equal syllables may or may not be one object.  A graph hash-conses the
syllables it builds in dicts (CommutationGraph._syllable), so its results
mostly share a few syllable objects; a dict's get and set are atomic under
the GIL, so threads sharing a graph at worst build a duplicate, equal one.
"""

from __future__ import annotations

from .factors import Record, factor_from_spec


class UnknownVertexError(KeyError):
    pass


class BallSizeExceeded(RuntimeError):
    """A cone ball of the requested degree outgrows its size cap."""


BALL_SIZE_CAP = 200_000  #: the default size cap of a cone ball, in elements

#: Most syllables one graph's pools hold in all; full pools are cleared.  A
#: round of the benchmark's lattice queries pools at most about 1,100 per
#: graph, so this only bounds the memory of a long-lived graph fed ever new
#: elements (a^k for growing k); clearing costs nothing but sharing.
SYLLABLE_POOL_CAP = 4096


class Syllable(Record):
    """A nontrivial factor element tagged by its vertex (a factors.Record)."""
    __slots__ = ("vertex", "element")

    def __init__(self, vertex, element):
        _set_vertex(self, vertex)
        _set_element(self, element)

    def __eq__(self, other):
        return (self.vertex == other.vertex and self.element == other.element
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.vertex, self.element))


class NormalWord(Record):
    """The canonical reduced word representing a group element.

    Only :meth:`CommutationGraph.reduce` and friends construct these, from
    validated syllables that are trusted from then on.  The degree, the sum
    of the syllables' factor degrees, is a homomorphism to Z: the relations
    keep the Artin degree |num| - |den|.  A factors.Record, not a dataclass.
    """
    __slots__ = ("syllables", "degree")

    def __init__(self, syllables, degree):
        _set_syllables(self, syllables)
        _set_degree(self, degree)

    def __eq__(self, other):
        return (self.degree == other.degree and self.syllables == other.syllables
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.syllables, self.degree))

    def __len__(self):
        return len(self.syllables)

    @property
    def is_identity(self):
        return not self.syllables


_set_vertex, _set_element = Syllable.vertex.__set__, Syllable.element.__set__
_set_syllables, _set_degree = NormalWord.syllables.__set__, NormalWord.degree.__set__

#: The identity word: words are values, so every graph returns this one.
_IDENTITY = NormalWord((), 0)


class CommutationGraph:
    """A finite simplicial graph with a factor group at each vertex.

    The vertex order is total and fixed for the lifetime of the graph; it
    pins down the canonical form.  All word operations are pure functions
    of their inputs, so instances are safe to share between threads.

    The syllables that the graph, the order layer and the parser build come
    from _syllable: one per (vertex, element), in a dict per vertex keyed
    by element (so a lookup builds no tuple), SYLLABLE_POOL_CAP in all.
    The words a query keeps alive share them, so the cyclic collector
    scans far fewer objects.  Results are values: equal syllables may or
    may not be one object.  A dict's get and set are each atomic under the
    GIL, so a race between threads at worst builds a duplicate, equal one.
    """

    def __init__(self, vertices, edges):
        """vertices: iterable of (name, factor spec), a spec as in
        factor_from_spec; edges: pairs of names."""
        self.vertices = []
        self.ops = {}
        for name, factor in vertices:
            if name in self.ops:
                raise ValueError(f"duplicate vertex {name!r}")
            self.vertices.append(name)
            self.ops[name] = factor_from_spec(factor)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        adjacent = {v: set() for v in self.vertices}
        for a, b in edges:
            if a not in self.ops or b not in self.ops:
                raise UnknownVertexError(f"edge ({a!r},{b!r}) uses an unknown vertex")
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            adjacent[a].add(b)
            adjacent[b].add(a)
        #: The vertices adjacent to each vertex (never the vertex itself).
        self.neighbours = {v: frozenset(ns) for v, ns in adjacent.items()}
        self._labels = {}
        for v in self.vertices:
            for name, elem in self.ops[v].generators(v).items():
                if name in self._labels:
                    raise ValueError(f"generator label {name!r} is not unique")
                self._labels[name] = (v, elem)
        self._pools = {v: {} for v in self.vertices}  # element -> Syllable, per vertex

    # -- basic structure ----------------------------------------------------

    def adjacent(self, a, b):
        return b in self.neighbours.get(a, ())

    def check_vertex(self, v):
        if v not in self.ops:
            raise UnknownVertexError(v)

    def syllable(self, vertex, element):
        self.check_vertex(vertex)
        if self.ops[vertex].is_identity(element):
            raise ValueError("a syllable must be a nontrivial factor element")
        return self._syllable(vertex, element)

    def _syllable(self, vertex, element):
        """The pooled Syllable(vertex, element), unchecked.  A miss counts
        the pooled syllables, and clears all pools once they hold the cap."""
        pool = self._pools[vertex]
        s = pool.get(element)
        if s is None:
            if sum(map(len, self._pools.values())) >= SYLLABLE_POOL_CAP:
                for p in self._pools.values():
                    p.clear()
            s = pool[element] = Syllable(vertex, element)
        return s

    def identity(self):
        return _IDENTITY

    def generator_labels(self):
        """Mapping label -> (vertex, factor element), one entry per generator."""
        return dict(self._labels)

    def generator_words(self):
        """The generating set of the positive cone, as normal words."""
        return [
            NormalWord((Syllable(v, e),), self.ops[v].degree(e))
            for v, e in self._labels.values()
        ]

    # -- reduction and canonical form ---------------------------------------

    def _initial_positions(self, sylls):
        """Positions of initial syllables of a reduced list."""
        positions, seen = [], set()
        for p, s in enumerate(sylls):
            if seen <= self.neighbours[s.vertex]:
                positions.append(p)
            seen.add(s.vertex)
        return positions

    def _insert(self, out, sylls):
        """Insert nontrivial syllables into out, a reduced list.

        A new syllable scans left past syllables at adjacent vertices.  At
        one of its own vertex it amalgamates; a deletion removes a syllable
        that no later one depends on, which keeps out reduced and canonical.
        Otherwise it depends on nothing further right, so the greedy
        extraction takes it just before the first later syllable of larger
        vertex, and it is inserted there.  So after each syllable a canonical
        out is the canonical reduced word of the product so far.

        Any reduced out stays a reduced word of the product (Green: no two
        syllables at one vertex with only adjacent ones between): a placed
        syllable has a non-adjacent one or none before each at its vertex,
        and a deleted one had only adjacent ones after it.  Which reduced
        word out is does not change what amalgamates: all order each pair at
        equal or non-adjacent vertices alike, and the scan reaches the last
        syllable z at the new one's vertex iff no syllable depends on z.
        """
        index = self.vertex_index
        for s in sylls:
            v = s.vertex
            ops = self.ops[v]
            commuting = self.neighbours[v]
            j = len(out) - 1
            while j >= 0 and out[j].vertex in commuting:
                j -= 1
            if j >= 0 and out[j].vertex == v:
                merged = ops.multiply(out[j].element, s.element)
                if ops.is_identity(merged):
                    del out[j]
                else:
                    out[j] = self._syllable(v, merged)
                continue
            j += 1
            while j < len(out) and index[out[j].vertex] < index[v]:
                j += 1
            out.insert(j, s)
        return out

    def reduce(self, w):
        """Canonical reduced word for the element spelled by the syllables w.

        The one way from syllables to a NormalWord: vertices are checked and
        identities dropped; the degree is the input's sum.  Every other word
        operation takes NormalWords and trusts their syllables.
        """
        sylls, degree = [], 0
        for s in w:
            if s.vertex not in self.ops:
                raise UnknownVertexError(s.vertex)
            ops = self.ops[s.vertex]
            if not ops.is_identity(s.element):
                sylls.append(s)
                degree += ops.degree(s.element)
        return NormalWord(tuple(self._insert([], sylls)), degree)

    def normal(self, literal):
        """Convenience: build a NormalWord from (vertex, element) pairs."""
        return self.reduce([self.syllable(v, e) for v, e in literal])

    def equal(self, x, y):
        return x.syllables == y.syllables

    # -- group operations ---------------------------------------------------

    def multiply(self, x, y):
        """xy: a canonical x is its own reduction, so only y is inserted."""
        out = self._insert(list(x.syllables), y.syllables)
        return NormalWord(tuple(out), x.degree + y.degree)

    def _inverses(self, sylls):
        """The inverse syllables of sylls, reversed: reduced if sylls is."""
        return [self._syllable(s.vertex, self.ops[s.vertex].invert(s.element))
                for s in reversed(sylls)]

    def invert(self, x):
        """x^-1: _inverses is reduced, so inserting it only sorts it."""
        return NormalWord(tuple(self._insert([], self._inverses(x.syllables))), -x.degree)

    # -- initial structure --------------------------------------------------

    def initial_vertices(self, x):
        return {x.syllables[p].vertex for p in self._initial_positions(x.syllables)}

    def initial_split(self, x, vertex):
        """(x_I, x') with x = x_I x'; x_I is the factor identity when I is
        not an initial vertex."""
        self.check_vertex(vertex)
        sylls = list(x.syllables)
        for p in self._initial_positions(sylls):
            if sylls[p].vertex == vertex:
                rest = sylls[:p] + sylls[p + 1:]
                return sylls[p].element, self.reduce(rest)
        return self.ops[vertex].identity, x
