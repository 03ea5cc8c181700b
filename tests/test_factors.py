"""Factor-level tests: reversing arithmetic and the finite-type check."""

import itertools
import json
import random

import pytest

from qlattice import ArtinOps, NotFiniteTypeError, ZOps, factor_from_spec, phi_lub
from qlattice.cli import main
from qlattice.factors import coxeter_is_finite_type, validate_coxeter
from qlattice.oracles import (
    bfs_left_divides,
    bfs_minimal_common_multiples,
    bfs_right_divisors,
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


# finite types for the canonical-word differential test (D4's branch is t)
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
}
B4 = ArtinOps(["s", "t", "u"], [[1, 3, 2], [3, 1, 3], [2, 3, 1]])


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

    def test_the_monoid_keeps_no_state_per_word(self):
        before = {k: len(v) for k, v in vars(B4.monoid).items()}
        rng = random.Random(0)
        for _ in range(50):
            B4.element(tuple(rng.choice("stu") for _ in range(12)))
        assert {k: len(v) for k, v in vars(B4.monoid).items()} == before


class TestPrunedArithmetic:
    """One-letter division, gcd stripping and canonical tails, each
    against the rewriting oracles, which never call the code under test."""

    @pytest.mark.parametrize("name", ["A2", "B3", "H3"])
    def test_letter_division_matches_the_rewrite_oracle(self, name):
        mon = ArtinOps(*FINITE_TYPES[name]).monoid
        for w in words_up_to(mon, 5):
            for s in mon.generators if w else ():
                quotient = mon._letter_quotient(s, w)
                assert (quotient is not None) == bfs_left_divides(mon, (s,), w)
                if quotient is not None:
                    assert rewrite_equal(mon, (s,) + quotient, w), (s, w)

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
