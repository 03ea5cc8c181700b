"""Normal forms and group operations on graph products."""

import copy
import pickle
import random

import pytest

from qlattice import CommutationGraph, NormalWord, Syllable
from qlattice.graph import UnknownVertexError
from qlattice.oracles import bfs_normal_form, is_reduced, shuffle_closure
from qlattice.verify import random_syllables

from conftest import braid, nw


class TestConstruction:
    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError):
            CommutationGraph([("a", "Z"), ("a", "Z")], [])

    def test_rejects_self_loops_and_unknown_edges(self):
        with pytest.raises(ValueError):
            CommutationGraph([("a", "Z")], [("a", "a")])
        with pytest.raises(UnknownVertexError):
            CommutationGraph([("a", "Z")], [("a", "b")])

    def test_rejects_clashing_generator_labels(self):
        spec = {"artin": {"generators": ["a", "t"], "m": [[1, 3], [3, 1]]}}
        with pytest.raises(ValueError):
            CommutationGraph([("a", "Z"), ("v", spec)], [])

    def test_syllable_rejects_identity_elements(self, path3):
        with pytest.raises(ValueError):
            path3.syllable("a", 0)

    def test_normal_reduces_pairs(self, path3):
        # the demos' way in: (vertex, element) pairs straight to a NormalWord
        assert path3.normal([("c", 1), ("a", 2), ("b", -1)]) == nw(
            path3, ("c", 1), ("a", 2), ("b", -1))


def clones(x):
    """copy.copy, copy.deepcopy and a pickle round trip of x."""
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


class TestValueRecords:
    """Syllable and NormalWord are value records on __slots__: the
    behaviour a frozen dataclass had, without its import."""

    def test_syllable_equality_is_by_value_and_class(self):
        s = Syllable("a", 2)
        assert s == Syllable("a", 2)
        assert s != Syllable("a", 3) and s != Syllable("b", 2)
        assert s != ("a", 2)  # not a tuple of its fields
        assert s != NormalWord(("a", 2), 0)  # nor another record with those fields

    def test_normal_word_equality_is_by_value_and_class(self, path3):
        x = nw(path3, ("a", 2), ("b", -1))
        assert x == nw(path3, ("b", -1), ("a", 2))
        assert x != nw(path3, ("a", 2)) and x != path3.identity()
        assert NormalWord(x.syllables, 0) != x  # the degree takes part
        assert x != (x.syllables, x.degree)
        assert path3.identity() == NormalWord((), 0) != ((), 0)

    def test_hash_is_that_of_the_field_tuple(self, b3):
        s = Syllable("v", braid(b3, "st", "t"))
        assert hash(s) == hash(("v", braid(b3, "st", "t")))
        assert hash(Syllable("a", 2)) == hash(("a", 2))
        x = nw(b3, ("v", "sts"))
        assert hash(x) == hash((x.syllables, x.degree))
        assert hash(NormalWord((), 0)) == hash(((), 0))
        assert len({x, nw(b3, ("v", "sts")), b3.identity()}) == 2

    def test_reprs(self, path3, b3):
        assert repr(Syllable("a", -1)) == "Syllable(vertex='a', element=-1)"
        assert repr(path3.identity()) == "NormalWord(syllables=(), degree=0)"
        assert repr(nw(path3, ("a", -1), ("b", 1))) == (
            "NormalWord(syllables=(Syllable(vertex='a', element=-1), "
            "Syllable(vertex='b', element=1)), degree=0)")
        fraction = b3.reduce([Syllable("v", braid(b3, "st", "t"))])
        assert repr(fraction) == (
            "NormalWord(syllables=(Syllable(vertex='v', element=s),), degree=1)")
        assert repr(Syllable("v", braid(b3, "", "t"))) == "Syllable(vertex='v', element=e/t)"
        assert repr(Syllable("v", braid(b3, "s", "t"))) == "Syllable(vertex='v', element=s/t)"

    @pytest.mark.parametrize("field", ["vertex", "element", "syllables", "degree", "other"])
    def test_fields_are_read_only(self, path3, field):
        for record in (Syllable("a", 2), nw(path3, ("a", 2))):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert not hasattr(record, "__dict__")
        assert Syllable("a", 2).element == 2

    def test_copies_are_equal_records(self, path3, b3):
        records = [Syllable("a", 2), nw(path3, ("a", 2), ("b", -1)), path3.identity(),
                   nw(b3, ("v", "sts")), b3.reduce([Syllable("v", braid(b3, "s", "t"))])]
        for x in records:
            for again in clones(x):
                assert type(again) is type(x)
                assert again == x and hash(again) == hash(x) and repr(again) == repr(x)

    def test_copies_of_artin_syllables_hold_fractions(self, b3):
        x = b3.reduce([Syllable("v", braid(b3, "st", "ss"))])
        assert repr(x.syllables[0].element) == "st/ss"
        for again in clones(x):
            (syllable,) = again.syllables
            assert type(syllable.element) is type(x.syllables[0].element)
            assert syllable.element == x.syllables[0].element
            assert b3.equal(again, x) and again.degree == 0


class TestReducedWords:
    def test_green_criterion(self, path3):
        a, b, c = (Syllable(v, 1) for v in "abc")
        assert is_reduced(path3, [a, b, c])
        assert is_reduced(path3, [a, c, a])  # c blocks the amalgamation
        assert not is_reduced(path3, [a, b, a])  # b shuffles out of the way
        assert not is_reduced(path3, [b, b])

    def test_reduce_sorts_commuting_syllables(self, path3):
        got = path3.reduce([Syllable("b", 1), Syllable("a", 1)])
        assert [s.vertex for s in got.syllables] == ["a", "b"]

    def test_reduce_cancels_and_merges(self, path3):
        w = [Syllable("a", 1), Syllable("b", 2), Syllable("a", -1)]
        got = path3.reduce(w)
        assert got.syllables == (Syllable("b", 2),)
        assert path3.reduce([Syllable("a", 1), Syllable("a", -1)]).is_identity

    def test_degree_is_summed(self, path3):
        got = path3.reduce([Syllable("a", 2), Syllable("c", -1)])
        assert got.degree == 1
        assert len(got) == 2

    def test_reduce_drops_identity_syllables(self, path3, b3):
        got = path3.reduce([Syllable("a", 0), Syllable("b", 1), Syllable("c", 0)])
        assert got.syllables == (Syllable("b", 1),) and got.degree == 1
        assert b3.reduce([Syllable("v", b3.ops["v"].identity)]).is_identity

    def test_raw_lists_are_validated(self, path3):
        # reduce is the one way in from raw syllables, and it checks them
        with pytest.raises(UnknownVertexError):
            path3.reduce([Syllable("a", 1), Syllable("zz", 1)])

    def test_syllable_and_initial_split_check_the_vertex(self, path3):
        with pytest.raises(UnknownVertexError):
            path3.syllable("zz", 1)
        with pytest.raises(UnknownVertexError):
            path3.initial_split(nw(path3, ("a", 1)), "zz")

    def test_artin_syllables_merge(self, b3):
        w = [braid(b3, "s"), braid(b3, "t")]
        got = b3.reduce([Syllable("v", e) for e in w])
        assert len(got) == 1
        assert got.syllables[0].element == braid(b3, "st")


class TestCanonicalForm:
    @pytest.mark.parametrize("samples,seed", [(120, 1)])
    def test_matches_bfs_oracle(self, path3, mixed, samples, seed):
        rng = random.Random(seed)
        for graph in (path3, mixed):
            for _ in range(samples):
                sylls = random_syllables(graph, rng)
                got = graph.reduce(sylls)
                want = bfs_normal_form(graph, sylls)
                assert tuple((s.vertex, s.element) for s in got.syllables) == want

    def test_equal_iff_shuffle_equivalent(self, path3):
        rng = random.Random(2)
        for _ in range(40):
            sylls = random_syllables(path3, rng, max_len=4)
            closure = shuffle_closure(path3, sylls)
            other = random_syllables(path3, rng, max_len=4)
            same = tuple((s.vertex, s.element) for s in other) in closure
            in_closure_of_other = path3.equal(path3.reduce(sylls), path3.reduce(other))
            if same:
                assert in_closure_of_other

    def test_reduce_is_idempotent(self, mixed):
        rng = random.Random(3)
        for _ in range(60):
            got = mixed.reduce(random_syllables(mixed, rng))
            assert mixed.reduce(got.syllables).syllables == got.syllables


class TestGroupOps:
    def test_multiply_and_invert(self, path3):
        x = nw(path3, ("a", 1), ("b", 2))
        y = nw(path3, ("b", -2), ("c", 1))
        assert path3.multiply(x, y).syllables == nw(path3, ("a", 1), ("c", 1)).syllables
        assert path3.multiply(x, path3.invert(x)).is_identity

    def test_invert_is_an_involution(self, mixed):
        rng = random.Random(4)
        for _ in range(40):
            x = mixed.reduce(random_syllables(mixed, rng))
            assert mixed.equal(mixed.invert(mixed.invert(x)), x)

    def test_length_drops_by_at_most_syllable_cancellation(self, path3):
        # |xy| >= |x| - |y| and |xy| <= |x| + |y|
        rng = random.Random(5)
        for _ in range(60):
            x = path3.reduce(random_syllables(path3, rng))
            y = path3.reduce(random_syllables(path3, rng))
            n = len(path3.multiply(x, y))
            assert abs(len(x) - len(y)) <= n <= len(x) + len(y)


class TestInitialStructure:
    def test_initial_vertices_examples(self, path3):
        # b a c b reduces to a b^2 c: b commutes past both a and c, and the
        # canonical form pulls b ahead of c
        x = nw(path3, ("b", 1), ("a", 1), ("c", 1), ("b", 1))
        assert [(s.vertex, s.element) for s in x.syllables] == [
            ("a", 1), ("b", 2), ("c", 1)
        ]
        # a is initial; b reaches the front through a and c; c is blocked by a
        assert path3.initial_vertices(x) == {"a", "b"}
        # in a c a nothing moves: a and c are not adjacent
        y = nw(path3, ("a", 1), ("c", 1), ("a", 1))
        assert len(y) == 3
        assert path3.initial_vertices(y) == {"a"}

    def test_initial_split_reassembles(self, mixed):
        rng = random.Random(6)
        for _ in range(40):
            x = mixed.reduce(random_syllables(mixed, rng))
            for v in mixed.vertices:
                e, rest = mixed.initial_split(x, v)
                head = [] if mixed.ops[v].is_identity(e) else [Syllable(v, e)]
                assert mixed.equal(mixed.reduce(head + list(rest.syllables)), x)
                if head:
                    assert v in mixed.initial_vertices(x)
                    assert v not in mixed.initial_vertices(rest) or len(rest) == 0 or (
                        mixed.initial_split(rest, v)[0] != e
                    )

    def test_pairwise_adjacency_of_initial_vertices(self, path3):
        rng = random.Random(7)
        for _ in range(60):
            x = path3.reduce(random_syllables(path3, rng))
            delta = sorted(path3.initial_vertices(x))
            for i, a in enumerate(delta):
                for b in delta[i + 1:]:
                    assert path3.adjacent(a, b)
