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

The canonical form used here is the greedy one: repeatedly extract, from
the remaining element, the initial syllable whose vertex is least in the
graph's fixed vertex order.  Equal elements then have identical syllable
sequences and equality is a sequence comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factors import factor_from_spec


class UnknownVertexError(KeyError):
    pass


@dataclass(frozen=True)
class Syllable:
    """A nontrivial factor element tagged by the vertex it belongs to."""
    vertex: str
    element: object


@dataclass(frozen=True)
class NormalWord:
    """The canonical reduced word representing a group element.

    Only :meth:`CommutationGraph.reduce` and friends construct these; the
    degree is the sum of the factor degrees of the syllables.
    """
    syllables: tuple
    degree: int

    def __len__(self):
        return len(self.syllables)

    @property
    def is_identity(self):
        return not self.syllables


def _syllables_of(w):
    if isinstance(w, NormalWord):
        return list(w.syllables)
    return list(w)


class CommutationGraph:
    """A finite simplicial graph with a factor group at each vertex.

    The vertex order is total and fixed for the lifetime of the graph; it
    pins down the canonical form.  All word operations are pure functions
    of their inputs, so instances are safe to share between threads.
    """

    def __init__(self, vertices, edges):
        """vertices: iterable of (name, factor_ops_or_spec); edges: pairs of names."""
        self.vertices = []
        self.ops = {}
        for name, factor in vertices:
            if name in self.ops:
                raise ValueError(f"duplicate vertex {name!r}")
            self.vertices.append(name)
            self.ops[name] = (
                factor if hasattr(factor, "is_positive") else factor_from_spec(factor)
            )
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._edges = set()
        for a, b in edges:
            if a not in self.ops or b not in self.ops:
                raise UnknownVertexError(f"edge ({a!r},{b!r}) uses an unknown vertex")
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            self._edges.add(frozenset((a, b)))
        self._labels = self._build_generator_labels()

    def _build_generator_labels(self):
        labels = {}
        for v in self.vertices:
            ops = self.ops[v]
            if ops.kind == "Z":
                names = [v]
            else:
                names = list(ops.monoid.generators)
            for name, elem in zip(names, ops.generator_elements()):
                if name in labels:
                    raise ValueError(f"generator label {name!r} is not unique")
                labels[name] = (v, elem)
        return labels

    # -- basic structure ----------------------------------------------------

    def adjacent(self, a, b):
        return frozenset((a, b)) in self._edges

    def edges(self):
        return sorted(tuple(sorted(e)) for e in self._edges)

    def check_vertex(self, v):
        if v not in self.ops:
            raise UnknownVertexError(v)

    def syllable(self, vertex, element):
        self.check_vertex(vertex)
        if self.ops[vertex].is_identity(element):
            raise ValueError("a syllable must be a nontrivial factor element")
        return Syllable(vertex, element)

    def identity(self):
        return NormalWord((), 0)

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

    def is_reduced(self, w):
        """Green's criterion: between equal-vertex syllables there is a
        syllable at a non-adjacent vertex."""
        sylls = _syllables_of(w)
        for s in sylls:
            self.check_vertex(s.vertex)
        for i, s in enumerate(sylls):
            for j in range(i + 1, len(sylls)):
                if sylls[j].vertex == s.vertex:
                    return False
                if not self.adjacent(sylls[j].vertex, s.vertex):
                    break
        return True

    def _find_amalgamation(self, sylls):
        for i, s in enumerate(sylls):
            for j in range(i + 1, len(sylls)):
                if sylls[j].vertex == s.vertex:
                    return i, j
                if not self.adjacent(sylls[j].vertex, s.vertex):
                    break
        return None

    def _reduce_list(self, sylls):
        out = [s for s in sylls if not self.ops[s.vertex].is_identity(s.element)]
        while True:
            hit = self._find_amalgamation(out)
            if hit is None:
                return out
            i, j = hit
            ops = self.ops[out[i].vertex]
            merged = ops.multiply(out[i].element, out[j].element)
            del out[j]
            if ops.is_identity(merged):
                del out[i]
            else:
                out[i] = Syllable(out[i].vertex, merged)

    def _initial_positions(self, sylls):
        """Positions of initial syllables of a reduced list."""
        positions = []
        for p, s in enumerate(sylls):
            if all(self.adjacent(sylls[q].vertex, s.vertex) for q in range(p)):
                positions.append(p)
        return positions

    def _canonicalize(self, reduced):
        rem = list(reduced)
        out = []
        while rem:
            best = min(
                self._initial_positions(rem),
                key=lambda p: self.vertex_index[rem[p].vertex],
            )
            out.append(rem.pop(best))
        return out

    def reduce(self, w):
        """Canonical reduced word for the element represented by w."""
        sylls = _syllables_of(w)
        for s in sylls:
            self.check_vertex(s.vertex)
        canon = self._canonicalize(self._reduce_list(sylls))
        degree = sum(self.ops[s.vertex].degree(s.element) for s in canon)
        return NormalWord(tuple(canon), degree)

    def as_normal(self, x):
        """x itself when it is a NormalWord, else the reduction of its syllables."""
        return x if isinstance(x, NormalWord) else self.reduce(x)

    def normal(self, literal):
        """Convenience: build a NormalWord from (vertex, element) pairs."""
        return self.reduce([self.syllable(v, e) for v, e in literal])

    def equal(self, x, y):
        return self.as_normal(x).syllables == self.as_normal(y).syllables

    # -- group operations ---------------------------------------------------

    def multiply(self, x, y, *more):
        sylls = _syllables_of(x) + _syllables_of(y)
        for extra in more:
            sylls += _syllables_of(extra)
        return self.reduce(sylls)

    def invert(self, x):
        return self.reduce(
            [
                Syllable(s.vertex, self.ops[s.vertex].invert(s.element))
                for s in reversed(_syllables_of(x))
            ]
        )

    def length(self, x):
        return len(self.as_normal(x).syllables)

    # -- initial/final structure --------------------------------------------

    def initial_vertices(self, x):
        sylls = list(self.as_normal(x).syllables)
        return {sylls[p].vertex for p in self._initial_positions(sylls)}

    def initial_split(self, x, vertex):
        """(x_I, x') with x = x_I x'; x_I is the factor identity when I is
        not an initial vertex."""
        self.check_vertex(vertex)
        x = self.as_normal(x)
        sylls = list(x.syllables)
        for p in self._initial_positions(sylls):
            if sylls[p].vertex == vertex:
                rest = sylls[:p] + sylls[p + 1:]
                return sylls[p].element, self.reduce(rest)
        return self.ops[vertex].identity, x

    def initial_part(self, x, vertex):
        return self.initial_split(x, vertex)[0]

    def rev(self, x):
        """Reverse the syllable order (elements unchanged); an involution."""
        return self.reduce(list(reversed(self.as_normal(x).syllables)))

    def final_vertices(self, x):
        return self.initial_vertices(self.rev(x))

    def final_split(self, x, vertex):
        """(x_I^r, x'') with x = x'' x_I^r."""
        elem, rest = self.initial_split(self.rev(x), vertex)
        return elem, self.rev(rest)

    def final_part(self, x, vertex):
        return self.final_split(x, vertex)[0]

    def vertices_of(self, x):
        return {s.vertex for s in self.as_normal(x).syllables}

    # -- deterministic ordering ---------------------------------------------

    def syllable_key(self, s):
        return (self.vertex_index[s.vertex],) + tuple(
            self.ops[s.vertex].sort_key(s.element)
        )

    def sort_key(self, x):
        x = self.as_normal(x)
        return (
            x.degree,
            len(x.syllables),
            tuple(self.syllable_key(s) for s in x.syllables),
        )
