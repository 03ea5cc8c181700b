"""lub, rgcd, leq, leq_r and canonical_fraction against their spellings
through the public product, by hypothesis.

The order functions read each quotient (x^-1 y, y x^-1, u v^-1) off an
unsorted reduced list.  The reference spells it as a canonical word with
graph.multiply and graph.invert and asks the same question of that word.
A small sample checks lub and rgcd against the shuffle BFS as well.
Graphs: the five presets, and copies of the benchmark's hex6 and b3zz
contexts.  Examples are drawn from a fixed seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice import (
    INFINITY,
    CommutationGraph,
    NotInPPInvError,
    Syllable,
    canonical_fraction,
    is_positive,
    leq,
    leq_r,
    lub,
    rgcd,
)
from qlattice.cli import _load_context
from qlattice.oracles import bfs_normal_form

B3 = {"artin": {"generators": ["s", "t"], "m": [[1, 3], [3, 1]]}}
GRAPHS = {name: _load_context(name) for name in ("free2", "path3", "square4", "b3", "b4")}
GRAPHS["hex6"] = CommutationGraph(
    [(v, "Z") for v in "abcdef"],
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a"), ("a", "d")],
)
GRAPHS["b3zz"] = CommutationGraph([("v", B3), ("a", "Z"), ("b", "Z")], [("v", "a")])

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def elements(draw, graph, positive, max_size=8):
    """A random product of generators, each inverted at random unless positive."""
    gens = st.sampled_from(list(graph.generator_labels().values()))
    word = []
    for v, e in draw(st.lists(gens, max_size=max_size)):
        inverted = not positive and draw(st.booleans())
        word.append(Syllable(v, graph.ops[v].invert(e) if inverted else e))
    return graph.reduce(word)


@st.composite
def pairs(draw, positive, max_size=8):
    graph = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    return (graph, draw(elements(graph, positive, max_size)),
            draw(elements(graph, positive, max_size)))


def inverses(graph, x):
    return [Syllable(s.vertex, graph.ops[s.vertex].invert(s.element))
            for s in reversed(x.syllables)]


def state(x):
    return tuple((s.vertex, s.element) for s in x.syllables)


@DIFFERENTIAL
@given(st.one_of(pairs(positive=True), pairs(positive=False)))
def test_order_queries_match_the_canonical_quotients(case):
    graph, x, y = case
    quotient = graph.multiply(graph.invert(x), y)
    assert leq(graph, x, y) == is_positive(graph, quotient)
    assert leq_r(graph, x, y) == is_positive(graph, graph.multiply(y, graph.invert(x)))
    try:
        a, b = canonical_fraction(graph, quotient)
    except NotInPPInvError:
        assert lub(graph, x, y) is INFINITY
    else:
        assert lub(graph, x, y) == graph.multiply(x, a)
        assert graph.reduce(a.syllables) == a and graph.reduce(b.syllables) == b
        assert is_positive(graph, a) and is_positive(graph, b)
        assert graph.multiply(a, graph.invert(b)) == quotient
    if is_positive(graph, x) and is_positive(graph, y):
        a, _ = canonical_fraction(graph, graph.multiply(x, graph.invert(y)))
        assert rgcd(graph, x, y) == graph.multiply(graph.invert(a), x)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(pairs(positive=True, max_size=3))
def test_lub_and_rgcd_against_the_shuffle_oracle(case):
    # each result is canonical, and the products that make it a bound are
    # positive, all reduced by the BFS over shuffles and amalgamations
    graph, x, y = case

    def positive(syllables):
        return all(graph.ops[v].is_positive(e) for v, e in bfs_normal_form(graph, syllables))

    join = lub(graph, x, y)
    if join is not INFINITY:
        assert state(join) == bfs_normal_form(graph, join.syllables)
        assert positive(inverses(graph, x) + list(join.syllables))
        assert positive(inverses(graph, y) + list(join.syllables))
    gcd = rgcd(graph, x, y)
    assert state(gcd) == bfs_normal_form(graph, gcd.syllables)
    assert positive(list(x.syllables) + inverses(graph, gcd))
    assert positive(list(y.syllables) + inverses(graph, gcd))
