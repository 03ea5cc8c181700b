"""reduce and canonical_fraction against independent oracles, by hypothesis.

Random graphs have up to five vertices, each carrying Z, B3 or B4.  The
normal form is checked against the shuffle/amalgamation BFS and against
the greedy form computed by rescanning, for reduce and for products and
inverses of normal words, which skip re-reducing their canonical inputs;
the local PP^-1 test of canonical_fraction against multiplying a b^-1
out.  Every degree is checked against the sum over the syllables.
Examples are drawn from a fixed seed.
"""

from functools import lru_cache
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice import CommutationGraph, Syllable
from qlattice.oracles import bfs_normal_form, fraction_by_product, greedy_normal_form
from qlattice.order import NotInPPInvError, canonical_fraction

FACTORS = {
    "Z": lambda v: "Z",
    "B3": lambda v: {"artin": {"generators": [v + "s", v + "t"],
                               "m": [[1, 3], [3, 1]]}},
    "B4": lambda v: {"artin": {"generators": [v + "x", v + "y", v + "z"],
                               "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]}},
}

DIFFERENTIAL = settings(
    derandomize=True, database=None, deadline=None, max_examples=80
)


@lru_cache(maxsize=None)
def graph_of(kinds, edges):
    names = [f"v{i}" for i in range(len(kinds))]
    return CommutationGraph(
        [(v, FACTORS[k](v)) for v, k in zip(names, kinds)],
        [(names[i], names[j]) for i, j in edges],
    )


@st.composite
def syllables(draw, graph, positive=False):
    v = draw(st.sampled_from(graph.vertices))
    ops = graph.ops[v]
    if ops.kind == "Z":
        return Syllable(v, draw(st.sampled_from([1, 2] if positive else [-2, -1, 1, 2])))
    letters = st.lists(st.sampled_from(ops.monoid.generators), max_size=3)
    element = ops.element(draw(letters), [] if positive else draw(letters))
    if ops.is_identity(element):
        element = ops.element(ops.monoid.generators[:1])
    return Syllable(v, element)


@st.composite
def words(draw, min_size=0, max_size=6, min_vertices=1):
    """(graph, syllables) over a random graph of up to five vertices."""
    n = draw(st.integers(min_vertices, 5))
    kinds = tuple(draw(st.sampled_from(sorted(FACTORS))) for _ in range(n))
    edges = tuple(e for e in combinations(range(n), 2) if draw(st.booleans()))
    graph = graph_of(kinds, edges)
    return graph, draw(st.lists(syllables(graph), min_size=min_size, max_size=max_size))


@st.composite
def word_pairs(draw):
    """(graph, w1, w2): w2 starts by undoing a suffix of w1, so the product
    cancels and deletes where the two meet."""
    graph, w1 = draw(words(max_size=3))
    k = draw(st.integers(0, len(w1)))
    w2 = inverses(graph, w1[len(w1) - k:])
    return graph, w1, w2 + draw(st.lists(syllables(graph), max_size=3))


@st.composite
def fractions(draw):
    """(graph, x) with x = p q^-1 for positive words p and q."""
    graph, _ = draw(words(max_size=0, min_vertices=2))
    p = draw(st.lists(syllables(graph, positive=True), max_size=5))
    q = draw(st.lists(syllables(graph, positive=True), max_size=5))
    return graph, graph.reduce(p + inverses(graph, q))


def inverses(graph, word):
    """The syllables of the inverse of word, as a raw list."""
    return [Syllable(s.vertex, graph.ops[s.vertex].invert(s.element))
            for s in reversed(word)]


def state(x):
    return tuple((s.vertex, s.element) for s in x.syllables)


def assert_degree_is_summed(graph, x):
    assert x.degree == sum(graph.ops[s.vertex].degree(s.element) for s in x.syllables)


def check_fraction(graph, x):
    """canonical_fraction's verdict agrees with the product check; returns it."""
    try:
        a, b = canonical_fraction(graph, x)
    except NotInPPInvError:
        assert not fraction_by_product(graph, x.syllables)
        return False
    assert fraction_by_product(graph, x.syllables)
    assert graph.equal(graph.multiply(a, graph.invert(b)), x)
    return True


FREE2 = graph_of(("Z", "Z"), ())
PATH3 = graph_of(("Z", "Z", "Z"), ((0, 1), (1, 2)))


@DIFFERENTIAL
@given(words())
def test_reduce_matches_both_oracles(case):
    graph, word = case
    x = graph.reduce(word)
    assert state(x) == greedy_normal_form(graph, word)
    assert state(x) == bfs_normal_form(graph, word)
    assert_degree_is_summed(graph, x)


@DIFFERENTIAL
@given(word_pairs())
def test_product_of_normal_words_matches_both_oracles(case):
    # multiply keeps x's canonical syllables and inserts only y's
    graph, w1, w2 = case
    xy = graph.multiply(graph.reduce(w1), graph.reduce(w2))
    assert state(xy) == greedy_normal_form(graph, w1 + w2)
    assert state(xy) == bfs_normal_form(graph, w1 + w2)
    assert_degree_is_summed(graph, xy)


@DIFFERENTIAL
@given(words())
def test_inverse_of_a_normal_word_matches_the_greedy_form(case):
    graph, word = case
    got = graph.invert(graph.reduce(word))
    assert state(got) == greedy_normal_form(graph, inverses(graph, word))
    assert_degree_is_summed(graph, got)


@DIFFERENTIAL
@given(fractions())
def test_fraction_numerator_is_canonical_without_a_reduce(case):
    graph, x = case
    assert check_fraction(graph, x)
    a, b = canonical_fraction(graph, x)
    assert state(a) == greedy_normal_form(graph, a.syllables)
    assert_degree_is_summed(graph, a)
    assert_degree_is_summed(graph, b)


@DIFFERENTIAL
@given(words(max_size=10, min_vertices=2))
def test_local_fraction_test_matches_product_check(case):
    graph, word = case
    x = graph.reduce(word)
    assert state(x) == greedy_normal_form(graph, word)
    check_fraction(graph, x)


def test_product_check_examples_cover_both_verdicts():
    def x(graph, *pairs):
        return graph.reduce([Syllable(v, e) for v, e in pairs])

    # v0^-1 v1 at non-adjacent vertices: b_1 != 1 precedes a_2 != 1;
    # on the path v0 - v1 - v2, v2 is not adjacent to v0 but v1 is
    assert not check_fraction(FREE2, x(FREE2, ("v0", -1), ("v1", 1)))
    assert not check_fraction(PATH3, x(PATH3, ("v0", -1), ("v2", 1)))
    assert check_fraction(PATH3, x(PATH3, ("v0", -1), ("v1", 1)))


@DIFFERENTIAL
@given(words(min_size=1, max_size=2))
def test_one_and_two_syllable_products(case):
    # a generator alone or times one syllable, as in enumerate_ball's first levels
    graph, word = case
    x = graph.reduce(word)
    assert state(x) == bfs_normal_form(graph, word)
    assert state(x) == greedy_normal_form(graph, word)
    check_fraction(graph, x)
