"""Factor-level tests: reversing arithmetic and the finite-type check."""

import copy
import hashlib
import itertools
import json
import math
import pickle
import random
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice import (
    ArtinFraction,
    ArtinOps,
    NotFiniteTypeError,
    ZOps,
    factor_from_spec,
    factors,
    phi_lub,
)
from qlattice.cli import main
from qlattice.factors import (
    ArtinMonoid,
    NoCommonMultipleError,
    coxeter_is_finite_type,
    validate_coxeter,
)
from qlattice.oracles import (
    bfs_left_divides,
    bfs_minimal_common_multiples,
    bfs_right_divisors,
    positive_root_count,
    rewrite_closure,
    rewrite_equal,
)


def dihedral(m):
    return ArtinOps(["s", "t"], [[1, m], [m, 1]])


B3 = dihedral(3)
MON = B3.monoid


def words_up_to(monoid, length):
    for n in range(length + 1):
        yield from itertools.product(monoid.generators, repeat=n)


def shortlex(monoid):
    """The shortlex key of words, letters ranked in generator order."""
    return lambda w: (len(w), tuple(monoid.index[c] for c in w))


def random_word(rng, monoid, shortest, longest):
    return tuple(
        rng.choice(monoid.generators) for _ in range(rng.randint(shortest, longest))
    )


def equal(ops, u, v):
    """Whether two positive words are one element."""
    return ops.element(u) == ops.element(v)


def complements(ops, u, v):
    """(u\\v, v\\u), read off u^-1 v = (u\\v)(v\\u)^-1."""
    p, q = ops.factorize(ops.multiply(ops.invert(ops.element(u)), ops.element(v)))
    return p.num, q.num


def lub_word(ops, u, v):
    """The lub u (u\\v) of u and v."""
    return ops.multiply(ops.element(u), ops.element(complements(ops, u, v)[0])).num


def rgcd_word(ops, u, v):
    """The right gcd g: u v^-1 = p q^-1 with p, q right coprime, so u = p g."""
    p, _ = ops.factorize(ops.multiply(ops.element(u), ops.invert(ops.element(v))))
    return ops.multiply(ops.invert(p), ops.element(u)).num


def right_coprime(monoid, a, b):
    """Whether a and b share no nonempty right divisor, by the rewriting
    oracle: a common one ends in a common right-dividing letter."""
    letters = lambda w: {d for d in bfs_right_divisors(monoid, w) if len(d) == 1}
    return not letters(a) & letters(b)


def assert_rgcd_matches_oracle(ops, u, v):
    monoid = ops.monoid
    got = rgcd_word(ops, u, v)
    dv = bfs_right_divisors(monoid, v)
    common = [
        d for d in bfs_right_divisors(monoid, u)
        if any(rewrite_equal(monoid, d, e) for e in dv)
    ]
    best = max(common, key=len)
    assert len(got) == len(best), (u, v)
    assert any(rewrite_equal(monoid, got, d) for d in common if len(d) == len(got))


def names(m):
    return [f"g{i}" for i in range(len(m))]


def simply_laced(n, edges):
    """The Coxeter matrix of a diagram on n nodes whose edges are labelled 3."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j in edges:
        m[i][j] = m[j][i] = 3
    return m


def labelled_path(n, label=3, edge=0):
    """A path on n nodes, its edge (edge, edge + 1) labelled label, the rest 3."""
    m = simply_laced(n, [(i, i + 1) for i in range(n - 1)])
    if n > 1:
        m[edge][edge + 1] = m[edge + 1][edge] = label
    return m


def branched(*arms):
    """A node 0 with a path of arms[k] edges hanging off it for each k."""
    edges, n = [], 1
    for length in arms:
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    return simply_laced(n, edges)


class TestFiniteType:
    def test_classification_accepts_the_finite_families(self):
        a3 = [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
        b3m = [[1, 4, 2], [4, 1, 3], [2, 3, 1]]
        h3 = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]
        f4 = [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]
        d4 = [
            [1, 3, 2, 2],
            [3, 1, 3, 3],
            [2, 3, 1, 2],
            [2, 3, 2, 1],
        ]
        # D5 and E6, E7, E8: a branch node with arms of 1, 1, 2 and 1, 2, k edges
        d5, e6, e7, e8 = (branched(*arms)
                          for arms in ((1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 2, 4)))
        for m in (a3, b3m, h3, f4, d4, d5, e6, e7, e8):
            assert coxeter_is_finite_type(validate_coxeter(names(m), m)), m

    def test_classification_rejects_affine_and_infinite(self):
        tilde_a2 = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]  # a 3-cycle
        tilde_a1 = [[1, None], [None, 1]]  # m = infinity
        big_label = [[1, 6, 2], [6, 1, 3], [2, 3, 1]]
        two_fours = [[1, 4, 2], [4, 1, 4], [2, 4, 1]]
        # affine E6, E7, E8; affine D4 (a node of degree 4); affine D5 (two
        # branch nodes)
        tilde_e = [branched(*arms) for arms in ((2, 2, 2), (1, 3, 3), (1, 2, 5))]
        tilde_d4 = simply_laced(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        tilde_d5 = simply_laced(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
        for m in (tilde_a2, tilde_a1, big_label, two_fours, *tilde_e, tilde_d4, tilde_d5):
            assert not coxeter_is_finite_type(validate_coxeter(names(m), m)), m

    def test_root_counts_of_the_finite_families(self):
        # the positive root counts of Humphreys' table (2.10)
        cases = [(labelled_path(n), n * (n + 1) // 2) for n in range(1, 8)]
        cases += [(labelled_path(n, 4), n * n) for n in range(2, 8)]
        cases += [(branched(1, 1, n - 3), n * (n - 1)) for n in range(4, 8)]
        cases += [(branched(1, 2, k), count) for k, count in ((2, 36), (3, 63), (4, 120))]
        cases += [(labelled_path(4, 4, 1), 24), (labelled_path(3, 5), 15),
                  (labelled_path(4, 5), 60)]
        cases += [(labelled_path(2, m), m) for m in (2, 3, 4, 5, 6, 7, 12, 100)]
        for m, count in cases:
            assert positive_root_count(m, 200) == count, m

    def test_classification_agrees_with_the_root_count(self):
        # W is finite exactly when its root orbit is; the largest rank-6
        # finite type has 36 positive roots, so a cap of 120 decides it
        rng = random.Random("roots")
        labels = (2, 3, 4, 5, 6, 7, 12, math.inf)
        finite = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            m = [[1] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                m[i][j] = m[j][i] = 2 if rng.random() < 0.6 else rng.choice(labels)
            got = coxeter_is_finite_type(validate_coxeter(names(m), m))
            assert got == (positive_root_count(m, 120) is not None), m
            finite += got
        assert 100 < finite < 200, finite

    def test_artin_ops_rejects_non_finite_type(self):
        with pytest.raises(NotFiniteTypeError):
            ArtinOps(["s", "t"], [[1, None], [None, 1]])

    def test_right_angled_matrices_must_be_modeled_as_graph_products(self):
        # m(s,t) = infinity is validated but rejected by the type check
        with pytest.raises(NotFiniteTypeError):
            factor_from_spec({"artin": {"generators": ["s", "t"], "m": [[1, 0], [0, 1]]}})

    def test_bad_matrices(self):
        with pytest.raises(ValueError):
            validate_coxeter(["s", "t"], [[1, 3], [4, 1]])
        with pytest.raises(ValueError):
            validate_coxeter(["s", "t"], [[2, 3], [3, 1]])
        with pytest.raises(ValueError):
            validate_coxeter(["s"], [[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="bad Coxeter matrix entry: False"):
            validate_coxeter(["s", "t"], [[1, False], [False, 1]])

    def test_entries_past_the_cap_are_refused_before_any_word_is_built(self):
        cap = factors._COXETER_ENTRY_CAP
        assert dihedral(cap).monoid.coxeter("s", "t") == cap
        for m in (cap + 1, 10**9, 10**400):
            tracemalloc.start()
            began = time.perf_counter()
            with pytest.raises(ValueError, match=f"above {cap}"):
                dihedral(m)
            elapsed, peak = time.perf_counter() - began, tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert elapsed < 0.1 and peak < 100_000, (m, elapsed, peak)


def longest_match(names, text):
    """The names that reading text by longest match gives, or None where
    no name fits."""
    letters, i = [], 0
    while i < len(text):
        fits = [name for name in names if text.startswith(name, i)]
        if not fits:
            return None
        letters.append(max(fits, key=len))
        i += len(letters[-1])
    return tuple(letters)


def commuting(names):
    """The Coxeter matrix of pairwise commuting generators, A1 x ... x A1."""
    return [[1 if s == t else 2 for t in names] for s in names]


class TestGeneratorNames:
    def test_names_that_begin_one_another_without_a_misreading(self):
        for names in ([f"g{i}" for i in range(12)], [f"s{i}" for i in range(1, 13)],
                      ["c", "c" + "a" * 40 + "b", "a"]):
            monoid = ArtinMonoid(names, commuting(names))
            for w in itertools.product(names, repeat=2):
                assert monoid.parse_word("".join(w)) == w

    def test_a_misreading_pair_is_refused(self):
        with pytest.raises(ValueError, match="'s' and 'ss' do not read back"):
            ArtinMonoid(["s", "ss"], [[1, 3], [3, 1]])

    def test_an_adversarial_name_set_is_decided_at_once(self):
        # c a^40 b against names a and aa: without memoized suffixes, deciding
        # whether a^40 b begins a word of names tries every split into a, aa
        names = ["c", "c" + "a" * 40 + "b", "a", "aa"]
        began = time.perf_counter()
        with pytest.raises(ValueError, match="'a' and 'aa' do not read back"):
            validate_coxeter(names, commuting(names))
        assert time.perf_counter() - began < 0.1

    def test_a_long_name_is_refused_at_once(self):
        # the read-back rule slices every suffix of a name, so its time grows
        # with the square of the name's length: 3.5 s at 3 * 10^5 characters
        names = ["a" * 10**6, "b"]
        began = time.perf_counter()
        with pytest.raises(ValueError, match="longer than 64 characters are not supported"):
            validate_coxeter(names, commuting(names))
        assert time.perf_counter() - began < 0.1
        names = ["a" * 64, "b"]
        assert ArtinMonoid(names, commuting(names)).parse_word(names[0] * 2) == (names[0],) * 2

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.lists(st.text("ab", min_size=1, max_size=3), min_size=2, max_size=4,
                    unique=True))
    def test_refused_exactly_when_longest_match_misreads(self, names):
        if any(longest_match(names, "".join(w)) != w
               for k in (2, 3) for w in itertools.product(names, repeat=k)):
            with pytest.raises(ValueError, match="do not read back"):
                ArtinMonoid(names, commuting(names))
            return
        monoid = ArtinMonoid(names, commuting(names))
        for k in range(5):
            for w in itertools.product(names, repeat=k):
                assert monoid.parse_word("".join(w)) == w


class TestReversing:
    def test_generator_complements(self):
        assert complements(B3, ("s",), ("s",))[0] == ()
        assert complements(B3, ("s",), ("t",))[0] == ("t", "s")
        # s left-divides st, so st \ s is trivial and s \ st is the quotient
        assert complements(B3, ("s", "t"), ("s",))[0] == ()
        assert equal(B3, complements(B3, ("s",), ("s", "t"))[0], ("t",))

    def test_complement_defines_the_lub(self):
        # s (s\t) = t (t\s) = the lub, for every generator pair and m
        for m in (2, 3, 4, 5):
            ops = dihedral(m)
            left = ("s",) + complements(ops, ("s",), ("t",))[0]
            right = ("t",) + complements(ops, ("t",), ("s",))[0]
            assert equal(ops, left, right)
            assert left == ops.monoid._alt("s", "t", m)

    def test_complement_symmetry_on_words(self):
        for u, v in itertools.product(words_up_to(MON, 3), repeat=2):
            u_v, v_u = complements(B3, u, v)
            assert equal(B3, u + u_v, v + v_u)

    def test_equal_positive_examples(self):
        assert equal(B3, ("s", "t", "s"), ("t", "s", "t"))
        assert not equal(B3, ("s", "t"), ("t", "s"))
        assert equal(B3, ("s", "s"), ("s", "s"))

    def test_equal_positive_matches_rewrite_bfs_up_to_length_5(self):
        words = list(words_up_to(MON, 5))
        for u in words:
            closure = rewrite_closure(MON, u)
            for v in words:
                if len(u) != len(v):
                    continue
                assert equal(B3, u, v) == (v in closure)

    def test_length_is_invariant(self):
        for u in words_up_to(MON, 5):
            for v in rewrite_closure(MON, u):
                assert len(v) == len(u)


class TestLatticeOps:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_generator_lub_is_the_alternating_word(self, m):
        ops = dihedral(m)
        mon = ops.monoid
        got = lub_word(ops, ("s",), ("t",))
        assert equal(ops, got, mon._alt("s", "t", m))
        minimal = bfs_minimal_common_multiples(mon, ("s",), ("t",), m + 1)
        assert len(minimal) == 1
        assert equal(ops, got, minimal[0])
        # the oracles' own edges: no multiple shorter than m, nor a divisor
        # longer than its multiple
        assert bfs_minimal_common_multiples(mon, ("s",), ("t",), m - 1) == []
        assert not bfs_left_divides(mon, got, ("s",))

    def test_lub_is_idempotent(self):
        for u in words_up_to(MON, 3):
            assert equal(B3, lub_word(B3, u, u), u)

    def test_lub_matches_bfs_minimal_common_multiple(self):
        # searching up to the claimed lub length also catches a lub that
        # is too long: the oracle would find a shorter common multiple
        small = [w for w in words_up_to(MON, 2)]
        for u, v in itertools.product(small, repeat=2):
            got = lub_word(B3, u, v)
            minimal = bfs_minimal_common_multiples(MON, u, v, len(got))
            assert minimal, f"no common multiple found for {u}, {v}"
            assert any(equal(B3, got, z) for z in minimal)

    def test_rgcd_examples(self):
        assert equal(B3, rgcd_word(B3, ("s", "t"), ("t",)), ("t",))
        assert rgcd_word(B3, ("s",), ("t",)) == ()

    def test_rgcd_matches_right_divisor_enumeration(self):
        small = [w for w in words_up_to(MON, 3) if w]
        for u, v in itertools.product(small, repeat=2):
            assert_rgcd_matches_oracle(B3, u, v)


# finite types for the canonical-word differential test (D4's branch is t,
# D5's and E6's s)
FINITE_TYPES = {
    "A2": (["s", "t"], [[1, 3], [3, 1]]),
    "A3": (["s", "t", "u"], [[1, 3, 2], [3, 1, 3], [2, 3, 1]]),
    "B3": (["s", "t", "u"], [[1, 4, 2], [4, 1, 3], [2, 3, 1]]),
    "I2(5)": (["s", "t"], [[1, 5], [5, 1]]),
    "I2(6)": (["s", "t"], [[1, 6], [6, 1]]),
    "H3": (["s", "t", "u"], [[1, 5, 2], [5, 1, 3], [2, 3, 1]]),
    "D4": (["s", "t", "u", "v"],
           [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]),
    "A1xA1": (["s", "t"], [[1, 2], [2, 1]]),
    "B4": (list("stuv"), labelled_path(4, 4)),
    "F4": (list("stuv"), labelled_path(4, 4, 1)),
    "H4": (list("stuv"), labelled_path(4, 5)),
    "D5": (list("stuvw"), branched(1, 1, 2)),
    "E6": (list("stuvwx"), branched(1, 2, 2)),
}
B4 = ArtinOps(["s", "t", "u"], [[1, 3, 2], [3, 1, 3], [2, 3, 1]])
E8 = branched(1, 2, 4)


def braid_move(monoid, word, rng):
    """Apply one braid relation at a random place where one fits."""
    moves = []
    for s, t in itertools.permutations(monoid.generators, 2):
        m = monoid.coxeter(s, t)
        lhs, rhs = monoid._alt(s, t, m), monoid._alt(t, s, m)
        moves += [
            word[:i] + rhs + word[i + m:]
            for i in range(len(word) - m + 1) if word[i:i + m] == lhs
        ]
    return rng.choice(moves) if moves else word


class TestCanonicalWord:
    @pytest.mark.parametrize("name", sorted(FINITE_TYPES))
    def test_matches_the_least_word_of_the_rewrite_closure(self, name):
        mon = ArtinOps(*FINITE_TYPES[name]).monoid
        rng = random.Random(f"canonical-{name}")
        for _ in range(150):
            w = tuple(rng.choice(mon.generators) for _ in range(rng.randint(0, 7)))
            expected = min(rewrite_closure(mon, w), key=shortlex(mon))
            assert mon.canonical_word(w) == expected, w

    @pytest.mark.parametrize("ops", [B3, B4], ids=["b3", "b4"])
    def test_long_words(self, ops):
        mon = ops.monoid
        rng = random.Random(len(mon.generators))
        for _ in range(30):
            w = tuple(rng.choice(mon.generators) for _ in range(rng.randint(20, 30)))
            got = mon.canonical_word(w)
            assert mon.canonical_word(got) == got
            # equal by reversing, which does not read canonical_word's result
            assert mon.reverse_fraction(got, w) == ((), ())
            assert shortlex(mon)(got) <= shortlex(mon)(w)
            assert mon.canonical_word(braid_move(mon, w, rng)) == got

    def test_long_b3_word_from_the_cli(self, capsys):
        code = main(["nf", "--ctx", "b3", '[["v","sttstttststssstssttsstss"]]'])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"] == [
            ["v", "sssssssstssttssttssttsst"]
        ]

    def test_b4_delta_power(self):
        f = B4.element(tuple("stsuts") * 4)
        assert "".join(f.num) == "sssstssttsstutsstuutsstu" and not f.den

    @pytest.mark.parametrize("matrix, count", [(FINITE_TYPES["A3"][1], 1000), (E8, 50)],
                             ids=["b4", "e8"])
    def test_the_cone_table_stays_within_its_budget(self, matrix, count):
        # E8 reverses a 40-letter word in about 12 ms, hence fewer words
        ops = ArtinOps(names(matrix), matrix)
        assert table_state(ops.monoid) == [1] * len(table_state(ops.monoid))
        rng = random.Random(0)
        words = [random_word(rng, ops.monoid, 40, 40) for _ in range(count)]
        for w in words:
            ops.element(w)
        state = table_state(ops.monoid)
        assert max(state) <= factors._CONE_TABLE_BUDGET
        for w in words:
            ops.element(w)
        assert table_state(ops.monoid) == state


def table_state(monoid):
    """The sizes of what the monoid's cone table keeps."""
    return [len(monoid._words), len(monoid._table.first),
            *map(len, monoid._table.rows), *map(len, monoid._inverse.values())]


def reversal_only(ops):
    """ops with a cone table budget of 0, so its monoid reverses every word."""
    ops.monoid._budget = 0
    return ops


def left_quotient(monoid, s, w):
    """The w' with s w' = w, or None, cut from _letter_quotient's word and start."""
    quotient = monoid._letter_quotient(s, w)
    return quotient and quotient[0][quotient[1]:]


def same_quotients(table, plain, w):
    """Whether both monoids divide w by the same letters, with equal quotients."""
    for s in table.generators:
        q, r = left_quotient(table, s, w), left_quotient(plain, s, w)
        if (q is None) != (r is None) or q is not None and (
                table.canonical_word(q) != plain.canonical_word(r)):
            return False
    return True


CONTEXTS = Path(__file__).resolve().parent.parent / "perfbench" / "contexts"


class TestConeTable:
    """Words up to the cone table's degree are read off the table; longer
    ones are reversed.  Both paths are checked against each other (the
    reversal one on a fresh instance with budget 0) and the table's answers
    against the rewriting oracles, which call neither."""

    @pytest.mark.parametrize("name", ["A2", "A3"])
    def test_equals_the_reversal_path_on_every_word_up_to_degree_8(self, name):
        table = ArtinOps(*FINITE_TYPES[name]).monoid
        plain = reversal_only(ArtinOps(*FINITE_TYPES[name])).monoid
        for w in words_up_to(table, 8):
            assert table.canonical_word(w) == plain.canonical_word(w), w
            assert not w or same_quotients(table, plain, w), w
        # grown only as far as the longest word asked
        assert (table._degree, plain._degree) == (8, 0)

    @pytest.mark.parametrize("name", sorted(FINITE_TYPES))
    def test_words_across_the_table_degree(self, name):
        table = ArtinOps(*FINITE_TYPES[name])
        plain = reversal_only(ArtinOps(*FINITE_TYPES[name]))
        table.element(table.monoid.generators[:1] * 100)  # grows it to its budget
        d = table.monoid._degree
        rng = random.Random(f"across-{name}")
        for _ in range(60):
            num, den = (random_word(rng, table.monoid, d - 1, d + 2) for _ in range(2))
            assert table.element(num) == plain.element(num), num
            assert table.element(num, den) == plain.element(num, den), (num, den)
            assert same_quotients(table.monoid, plain.monoid, num), num
        assert (table.monoid._degree, plain.monoid._degree) == (d, 0)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_table_answers_match_the_rewrite_oracles(self, name):
        mon = ArtinOps(*FINITE_TYPES[name]).monoid
        rng = random.Random(f"table-oracle-{name}")
        words = [random_word(rng, mon, 1, 6) for _ in range(40)]
        for w in words:
            assert rewrite_equal(mon, mon.canonical_word(w), w), w
            for s in mon.generators:
                quotient = left_quotient(mon, s, w)
                assert (quotient is not None) == bfs_left_divides(mon, (s,), w), (s, w)
                assert quotient is None or rewrite_equal(mon, (s,) + quotient, w), (s, w)
        assert mon._degree == max(map(len, words))

    def test_threads_share_one_growing_table(self):
        # each round starts four threads on a fresh monoid at once, each with
        # its own order of the words, so they ask for growth together
        plain = reversal_only(ArtinOps(*FINITE_TYPES["A3"])).monoid
        rng = random.Random("threads")
        words = [random_word(rng, plain, 6, 9) for _ in range(40)]
        expected = {w: plain.canonical_word(w) for w in words}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                shared = ArtinOps(*FINITE_TYPES["A3"]).monoid
                ready, results = threading.Barrier(4), [None] * 4

                def work(k):
                    order = random.Random(4 * round_ + k).sample(words, len(words))
                    ready.wait(timeout=60)
                    results[k] = {w: shared.canonical_word(w) for w in order}

                threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 4, round_
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("ctx, degree, digest", [
        ("free2", 8, "25448a837a46f183aae9fce015a3a54f0a5f345944e5b811938f5bf3a8625004"),
        ("path3", 6, "9b2bff4b5b6dd4436a2a9398399046b05c045b7184ca93a8bc60d14f6f88c210"),
        ("square4", 5, "3ecd54dc34b08b50674a93090017f2b9695eb9f3e895c86e257c3d16da6e9ba5"),
        ("b3", 15, "1187745d6918918bf94bbe39a961675214656750f50cfe068596624bc8364bb4"),
        ("b4", 9, "60e24b5cf5191804a40046641a9178bd502566c11969240eb0df1cf1325ed064"),
        (CONTEXTS / "b3zz.json", 6,
         "b3fea201990bfc8a29115bda2627880a3961022e0471ed54c00d09b7c3932601"),
        (CONTEXTS / "hex6.json", 5,
         "f5befc2322aa694a206c388e16fe69d1fdd23423e2a9734f67ac46e9cd746ee1"),
    ], ids=["free2", "path3", "square4", "b3", "b4", "b3zz", "hex6"])
    def test_ball_output_is_unchanged(self, capsys, ctx, degree, digest):
        # digests of `qlattice ball` as printed when ball elements were formed
        # by reversal alone; the b3 and b4 degrees pass their tables' budgets
        assert main(["ball", "--ctx", str(ctx), "--max-degree", str(degree)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestPrunedArithmetic:
    """One-letter division, gcd stripping and canonical tails, each
    against the rewriting oracles, which never call the code under test."""

    @pytest.mark.parametrize("name", ["A2", "B3", "H3"])
    def test_letter_division_matches_the_rewrite_oracle(self, name):
        mon = ArtinOps(*FINITE_TYPES[name]).monoid
        for w in words_up_to(mon, 5):
            for s in mon.generators if w else ():
                quotient = left_quotient(mon, s, w)
                assert (quotient is not None) == bfs_left_divides(mon, (s,), w)
                if quotient is not None:
                    assert rewrite_equal(mon, (s,) + quotient, w), (s, w)

    def test_the_reversals_of_one_division_share_one_step_budget(self, monkeypatch):
        # t^30 s^30, with no sts or tst, is the only word of its element; each
        # s test on it reverses at most 117 steps, 2,640 in all when
        # canonical_word divides it, and again when _strip does
        mon = reversal_only(dihedral(3)).monoid
        w = ("t",) * 30 + ("s",) * 30
        assert mon.canonical_word(w) == w
        assert mon._strip(w, w + ("t",)) == ((), ("t",))
        monkeypatch.setattr("qlattice.factors._REVERSING_STEP_CAP", 1000)
        for divide in (lambda: mon.canonical_word(w), lambda: mon._strip(w, w + ("t",))):
            with pytest.raises(NoCommonMultipleError, match="budget of 1000 steps"):
                divide()
        # one letter test on a long word is one linear reversal, 799 steps
        tail = ("s",) * 400
        assert mon._letter_quotient("s", ("t",) + tail) is None
        assert mon.canonical_word(("t",), tail) == ("t",) + tail

    def test_a_long_reversal_moves_no_tail(self, monkeypatch):
        # s^-1 t s^N reverses in 2N - 1 steps, each letter of s^N meeting the
        # inverse letters left by the last; a rewrite spliced into the middle
        # of one list moved its tail at every step, about 2 s at N = 10^5
        v = ("t",) + ("s",) * 10**5
        began = time.perf_counter()
        got = MON.reverse_fraction(("s",), v)
        assert time.perf_counter() - began < 1.0
        assert got == (("t", "s", "s") + ("t",) * (10**5 - 1), ("t", "s"))
        monkeypatch.setattr("qlattice.factors._REVERSING_STEP_CAP", 199_999)
        assert MON.reverse_fraction(("s",), v) == got
        monkeypatch.setattr("qlattice.factors._REVERSING_STEP_CAP", 199_998)
        with pytest.raises(NoCommonMultipleError, match="budget of 199998 steps"):
            MON.reverse_fraction(("s",), v)

    def test_a_reversal_stops_once_no_inverse_letter_is_left(self, monkeypatch):
        # s^-1 u s^N in b4: s^-1 u -> u s^-1, s^-1 s -> e, and s^(N-1) is
        # returned unread, so two steps are all it counts
        v = ("u",) + ("s",) * 10**5
        monkeypatch.setattr("qlattice.factors._REVERSING_STEP_CAP", 2)
        assert B4.monoid.reverse_fraction(("s",), v) == (("u",) + ("s",) * (10**5 - 1), ())
        monkeypatch.setattr("qlattice.factors._REVERSING_STEP_CAP", 1)
        with pytest.raises(NoCommonMultipleError, match="budget of 1 steps"):
            B4.monoid.reverse_fraction(("s",), v)

    def test_a_reversal_per_letter_reads_no_remainder_letter_by_letter(self):
        # u s^L in b4 divides off s at each greedy step by that 2-step
        # reversal; coding the whole remainder letter by letter at every step
        # made L = 5,000 take about 2.3 s on 2 cores
        began = time.perf_counter()
        got = ArtinOps(*FINITE_TYPES["A3"]).element(("u",) + ("s",) * 5000)
        assert time.perf_counter() - began < 1.0
        assert got.num == ("s",) * 5000 + ("u",)

    @pytest.mark.parametrize("num, den, expected", [
        (("s",) * 10**5, (), (("s",) * 10**5, ())),
        (("t",) + ("s",) * 10**4, ("s",) * 10**4, (("t",), ())),
    ], ids=["s^100000", "t s^10000 / s^10000"])
    def test_dividing_off_first_letters_copies_nothing(self, num, den, expected):
        # canonical_word divides s^L, and _strip the common s^N, one first
        # letter at a time with no reversal: each step moves an index.  A copy
        # of the remainder per step made s^(2 10^4) take about 0.6 s on 2
        # cores, and s^(10^5) about 15 s.
        ops = dihedral(3)
        began = time.perf_counter()
        got = ops.element(num, den)
        assert time.perf_counter() - began < 1.0
        assert (got.num, got.den) == expected

    @pytest.mark.parametrize("name", ["B3", "H3", "D4"])
    def test_rgcd_matches_right_divisor_enumeration(self, name):
        # a shared random suffix makes most of the gcds nontrivial
        ops = ArtinOps(*FINITE_TYPES[name])
        rng = random.Random(f"rgcd-{name}")
        for _ in range(25):
            common = random_word(rng, ops.monoid, 0, 2)
            u = random_word(rng, ops.monoid, 1, 3) + common
            v = random_word(rng, ops.monoid, 1, 3) + common
            assert_rgcd_matches_oracle(ops, u, v)

    @pytest.mark.parametrize("name", sorted(FINITE_TYPES))
    def test_canonical_tail(self, name):
        mon = ArtinOps(*FINITE_TYPES[name]).monoid
        rng = random.Random(f"tail-{name}")
        least = lambda w: min(rewrite_closure(mon, w), key=shortlex(mon))
        for _ in range(60):
            w = random_word(rng, mon, 0, 4)
            tail = least(random_word(rng, mon, 0, 4))
            assert mon.canonical_word(w, tail) == least(w + tail), (w, tail)

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "I2(5)"])
    def test_left_quotients_equal_the_stripped_fraction(self, name):
        # multiply returns u^-1 v = (u\v)(v\u)^-1 without element's gcd strip
        ops = ArtinOps(*FINITE_TYPES[name])
        rng = random.Random(f"quotient-{name}")
        for _ in range(80):
            u = ops.element(random_word(rng, ops.monoid, 0, 8))
            v = ops.element(random_word(rng, ops.monoid, 0, 8))
            assert ops.multiply(ops.invert(u), v) == ops.element(
                *ops.monoid.reverse_fraction(u.num, v.num)), (u, v)

    @pytest.mark.parametrize("name", sorted(FINITE_TYPES))
    def test_positive_products_equal_the_fraction(self, name):
        ops = ArtinOps(*FINITE_TYPES[name])
        rng = random.Random(f"product-{name}")
        for _ in range(60):
            f = ops.element(random_word(rng, ops.monoid, 0, 8))
            g = ops.element(random_word(rng, ops.monoid, 0, 8))
            assert ops.multiply(f, g) == ops.element(f.num + g.num)


class TestFractions:
    def test_inverse_pair_collapses_to_identity(self):
        f = B3.element(("s",), ("t",))
        g = B3.element(("t",), ("s",))
        assert B3.is_identity(B3.multiply(f, g))

    def test_fraction_reduction_is_canonical(self):
        # st (ts)^-1 has the common right divisor removed
        f = B3.element(("s", "t"), ("t", "t"))
        assert right_coprime(MON, f.num, f.den)
        # multiplying back recovers the element
        back = B3.multiply(
            B3.element(f.num), B3.invert(B3.element(f.den))
        )
        assert back == f

    def test_fraction_identities_on_sampled_positives(self):
        # (a, b) = fraction of u v^-1: a <= u, b <= v, rgcd(a, b) = 1,
        # and a^-1 u = b^-1 v = u rgcd v
        small = [w for w in words_up_to(MON, 4)]
        for u, v in itertools.product(small[:20], repeat=2):
            f = B3.multiply(B3.element(u), B3.invert(B3.element(v)))
            a, b = f.num, f.den
            assert bfs_left_divides(MON, a, u)
            assert bfs_left_divides(MON, b, v)
            assert right_coprime(MON, a, b)
            # u = a (a\u) exactly when the reversal of a^-1 u leaves no
            # denominator
            e1, over1 = MON.reverse_fraction(a, u)
            e2, over2 = MON.reverse_fraction(b, v)
            assert over1 == () and over2 == ()
            assert equal(B3, e1, e2)
            assert equal(B3, e1, rgcd_word(B3, u, v))

    def test_refactorizing_is_stable(self):
        f = B3.element(("s", "t", "s"), ("t",))
        again = B3.element(f.num, f.den)
        assert again == f

    def test_degree_is_the_letter_count_difference(self):
        f = B3.element(("s", "t", "s"), ("t",))
        assert B3.degree(f) == 2
        assert B3.degree(B3.invert(f)) == -2

    def test_factorize_returns_the_parts_it_holds(self):
        f = B3.element(("s", "t"))
        p, q = B3.factorize(f)
        assert p is f and q is B3.identity
        g = B3.invert(f)
        p, q = B3.factorize(g)
        assert p is B3.identity and q == f
        p, q = B3.factorize(B3.element(("s",), ("t",)))
        assert (p, q) == (B3.element(("s",)), B3.element(("t",)))
        assert B3.factorize(B3.identity) == (B3.identity, B3.identity)


class TestArtinFractionValue:
    """A value record on __slots__: the behaviour a frozen dataclass had."""

    f = ArtinFraction(("s", "t"), ("t",))

    def test_equality_is_by_value_and_class(self):
        assert self.f == ArtinFraction(("s", "t"), ("t",))
        assert self.f != ArtinFraction(("s", "t"), ())
        assert self.f != ArtinFraction(("t",), ("t",))
        assert self.f != (("s", "t"), ("t",))  # not a tuple of its fields
        assert ArtinFraction((), ()) != ((), ())

    def test_hash_is_that_of_the_field_tuple(self):
        assert hash(self.f) == hash((("s", "t"), ("t",)))
        assert hash(ArtinFraction((), ())) == hash(((), ()))
        assert len({self.f, ArtinFraction(("s", "t"), ("t",)), B3.identity}) == 2

    def test_repr(self):
        assert repr(self.f) == "st/t"
        assert repr(ArtinFraction(("s", "t", "s"), ())) == "sts"
        assert repr(ArtinFraction((), ("t",))) == "e/t"
        assert repr(ArtinFraction((), ())) == "e"

    def test_fields_are_read_only(self):
        for field in ("num", "den", "other"):
            with pytest.raises(AttributeError):
                setattr(self.f, field, ())
            with pytest.raises(AttributeError):
                delattr(self.f, field)
        assert self.f.num == ("s", "t") and self.f.den == ("t",)
        assert not hasattr(self.f, "__dict__")

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))])
    def test_copies_are_equal_records(self, clone):
        for f in (self.f, B3.identity, B3.element(("s",), ("t",))):
            again = clone(f)
            assert type(again) is ArtinFraction
            assert again == f and hash(again) == hash(f) and repr(again) == repr(f)


class TestZOps:
    ops = ZOps()

    def test_total_order_lattice(self, free2):
        # Z is totally ordered: the lub of two elements is the larger one
        assert phi_lub(free2, {"a": 3}, {"a": 5}) == {"a": 5}
        assert phi_lub(free2, {"a": 5, "b": -2}, {"a": 3, "b": -7}) == {"a": 5, "b": -2}
        assert phi_lub(free2, {"a": -4}, {}) == {}

    def test_factorize(self):
        assert self.ops.factorize(-3) == (0, 3)
        assert self.ops.factorize(3) == (3, 0)

    def test_spec_roundtrip(self):
        assert factor_from_spec("Z").kind == "Z"
