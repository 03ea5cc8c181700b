"""Lattice operations: lub, canonical fractions, rgcd, and phi."""

import random

import pytest

from qlattice import (
    INFINITY,
    NotInPPInvError,
    canonical_fraction,
    is_positive,
    leq,
    leq_r,
    lub,
    phi,
    phi_lub,
    rgcd,
)
from qlattice.cli import _load_context
from qlattice.order import lub_general
from qlattice.oracles import (
    check_lub_against_ball,
    product_upper_bitsets,
    upper_bound_bitsets,
)
from qlattice.toeplitz import enumerate_ball
from qlattice.verify import random_syllables

from conftest import braid, nw


class TestOrders:
    def test_positivity(self, path3):
        assert is_positive(path3, nw(path3, ("a", 2), ("b", 1)))
        assert not is_positive(path3, nw(path3, ("a", 2), ("b", -1)))
        assert is_positive(path3, path3.identity())

    def test_leq_examples(self, path3):
        x = nw(path3, ("a", 1))
        y = nw(path3, ("a", 1), ("c", 2))
        assert leq(path3, x, y)
        assert not leq(path3, y, x)

    def test_left_and_right_orders_differ(self, b3):
        # s <= st (quotient t positive) but s is not a right divisor of st
        s = nw(b3, ("v", "s"))
        st = nw(b3, ("v", "st"))
        assert leq(b3, s, st)
        assert not leq_r(b3, s, st)
        t = nw(b3, ("v", "t"))
        assert leq_r(b3, t, st)


class TestLub:
    def test_free_generators_are_unbounded(self, free2):
        a = nw(free2, ("a", 1))
        b = nw(free2, ("b", 1))
        assert lub(free2, a, b) is INFINITY

    def test_adjacent_generators_join(self, path3):
        a = nw(path3, ("a", 1))
        b = nw(path3, ("b", 3))
        got = lub(path3, a, b)
        assert got.syllables == nw(path3, ("a", 1), ("b", 3)).syllables

    def test_non_adjacent_generators_do_not_join(self, path3):
        a = nw(path3, ("a", 1))
        c = nw(path3, ("c", 1))
        assert lub(path3, a, c) is INFINITY

    def test_artin_generators_join_inside_a_vertex(self, b3):
        s = nw(b3, ("v", "s"))
        t = nw(b3, ("v", "t"))
        got = lub(b3, s, t)
        assert got.syllables == nw(b3, ("v", "sts")).syllables

    def test_lub_is_commutative_and_idempotent(self, mixed):
        ball = enumerate_ball(mixed, 3)
        pool = list(ball.elements)
        rng = random.Random(12)
        for _ in range(60):
            x, y = rng.choice(pool), rng.choice(pool)
            xy = lub(mixed, x, y)
            yx = lub(mixed, y, x)
            if xy is INFINITY:
                assert yx is INFINITY
            else:
                assert mixed.equal(xy, yx)
            assert mixed.equal(lub(mixed, x, x), x)

    # the lub of two degree-3 braid positives can reach degree 9, so the
    # oracle ball must extend that far for the Artin contexts
    @pytest.mark.parametrize("ctx,degree,cap", [
        ("free2", 3, 6), ("path3", 3, 6), ("b3", 3, 9), ("mixed", 3, 9),
    ])
    def test_lub_against_ball_oracle(self, ctx, degree, cap, request):
        graph = request.getfixturevalue(ctx)
        small = enumerate_ball(graph, degree)
        big = enumerate_ball(graph, cap)
        bitsets = upper_bound_bitsets(graph, small.elements, big.elements, leq)
        index = {z.syllables: i for i, z in enumerate(big.elements)}
        pool = list(small.elements)
        rng = random.Random(13)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
        for x, y in pairs:
            ok, detail = check_lub_against_ball(
                graph, x, y, lub(graph, x, y), bitsets, big.elements, index, leq
            )
            assert ok, f"{ctx}: lub({x},{y}): {detail}"

    def test_lub_of_a_negative_and_the_identity(self, path3):
        a_inv2 = nw(path3, ("a", -2))
        e = path3.identity()
        assert lub(path3, a_inv2, e) == e
        assert lub(path3, e, a_inv2) == e

    @pytest.mark.parametrize("ctx", ["path3", "free2", "b3"])
    def test_mixed_sign_lub_against_ball_oracle(self, ctx, request):
        # a common upper bound x b (or y b) with b in B lies above x v y,
        # which is then x b' (or y b') for a left divisor b' of b, in B
        # too: so the candidates x.B and y.B suffice for the ball oracle
        graph = request.getfixturevalue(ctx)
        pool = list(enumerate_ball(graph, 2).elements)
        ball = enumerate_ball(graph, 4).elements
        rng = random.Random(19)
        for _ in range(60):
            u, v, w, t = (rng.choice(pool) for _ in range(4))
            x = graph.multiply(u, graph.invert(v))
            y = graph.multiply(w, graph.invert(t))
            candidates = {}
            for base in (x, y):
                for b in ball:
                    z = graph.multiply(base, b)
                    candidates.setdefault(z.syllables, z)
            elements = list(candidates.values())
            index = {z.syllables: i for i, z in enumerate(elements)}
            bitsets = upper_bound_bitsets(graph, [x, y], elements, leq)
            ok, detail = check_lub_against_ball(
                graph, x, y, lub(graph, x, y), bitsets, elements, index, leq
            )
            assert ok, f"{ctx}: lub({x},{y}): {detail}"

    def test_ball_oracle_rejects_wrong_lubs(self, path3):
        # a v b = ab; the ball of degree 4 holds ab, not a^5 b or a^6
        ball = enumerate_ball(path3, 4)
        a, b, ab = nw(path3, ("a", 1)), nw(path3, ("b", 1)), nw(path3, ("a", 1), ("b", 1))
        bitsets = upper_bound_bitsets(path3, [a, b], ball.elements, leq)
        wrong = [
            (INFINITY, f"lub says Infinity but {ab} bounds both"),
            (a, "computed lub is not a common upper bound"),
            (nw(path3, ("a", 2), ("b", 1)), f"computed lub does not divide {ab}"),
            (nw(path3, ("a", 5), ("b", 1)),
             f"computed lub exceeds the ball but {ab} is a common upper bound inside it"),
            (nw(path3, ("a", 6)), "computed lub does not bound both arguments"),
        ]
        for computed, detail in wrong:
            assert check_lub_against_ball(path3, a, b, computed, bitsets, ball.elements,
                                          ball.index, leq) == (False, detail)
        assert check_lub_against_ball(path3, a, b, ab, bitsets, ball.elements,
                                      ball.index, leq) == (True, None)

    @pytest.mark.parametrize("name", ["free2", "path3", "square4", "b3", "b4"])
    def test_product_upper_sets_equal_the_leq_scan(self, name):
        graph = _load_context(name)
        small, big = enumerate_ball(graph, 3), enumerate_ball(graph, 6)
        by_leq = upper_bound_bitsets(graph, small.elements, big.elements, leq)
        assert product_upper_bitsets(graph, small.elements, big) == by_leq


class TestFractions:
    def test_simple_fraction(self, path3):
        x = nw(path3, ("a", 2), ("c", -1))
        a, b = canonical_fraction(path3, x)
        assert a.syllables == nw(path3, ("a", 2)).syllables
        assert b.syllables == nw(path3, ("c", 1)).syllables

    def test_artin_fraction(self, b3):
        x = b3.reduce([b3.syllable("v", braid(b3, "s", "t"))])
        a, b = canonical_fraction(b3, x)
        assert a.syllables == nw(b3, ("v", "s")).syllables
        assert b.syllables == nw(b3, ("v", "t")).syllables

    def test_not_a_fraction_raises(self, free2):
        # a^-1 b is not in P P^-1 of the free product
        x = free2.multiply(
            free2.invert(nw(free2, ("a", 1))), nw(free2, ("b", 1))
        )
        with pytest.raises(NotInPPInvError) as raised:
            canonical_fraction(free2, x)
        assert raised.value.args[0] == str(raised.value) == f"{x} is not a fraction of positives"

    def test_fraction_properties_sampled(self, mixed):
        ball = enumerate_ball(mixed, 3)
        pool = list(ball.elements)
        rng = random.Random(14)
        for _ in range(50):
            u, v = rng.choice(pool), rng.choice(pool)
            x = mixed.multiply(u, mixed.invert(v))
            a, b = canonical_fraction(mixed, x)
            assert is_positive(mixed, a) and is_positive(mixed, b)
            assert mixed.equal(mixed.multiply(a, mixed.invert(b)), x)
            assert leq(mixed, a, u) and leq(mixed, b, v)
            assert rgcd(mixed, a, b).is_identity

    def test_lub_general_is_translation_invariant(self, b3):
        g = nw(b3, ("v", braid(b3, "s", "t")))  # a genuine fraction
        x = nw(b3, ("v", "st"))
        y = nw(b3, ("v", "ts"))
        plain = lub_general(b3, x, y)
        moved = lub_general(b3, b3.multiply(g, x), b3.multiply(g, y))
        assert b3.equal(moved, b3.multiply(g, plain))


class TestRgcd:
    def test_examples(self, path3, b3):
        u = nw(path3, ("a", 2), ("b", 1))
        v = nw(path3, ("b", 3), ("c", 1))
        got = rgcd(path3, u, v)
        assert got.syllables == nw(path3, ("b", 1)).syllables
        assert rgcd(b3, nw(b3, ("v", "st")), nw(b3, ("v", "t"))).syllables == (
            nw(b3, ("v", "t")).syllables
        )

    def test_rejects_non_positive_input(self, path3):
        with pytest.raises(ValueError):
            rgcd(path3, nw(path3, ("a", -1)), nw(path3, ("a", 1)))

    def test_is_the_greatest_right_lower_bound(self, mixed):
        ball = enumerate_ball(mixed, 3)
        pool = list(ball.elements)
        rng = random.Random(16)
        for _ in range(40):
            u, v = rng.choice(pool), rng.choice(pool)
            g = rgcd(mixed, u, v)
            assert leq_r(mixed, g, u) and leq_r(mixed, g, v)
            # any common right divisor in the ball divides g on the right
            for d in pool:
                if leq_r(mixed, d, u) and leq_r(mixed, d, v):
                    assert leq_r(mixed, d, g)


class TestPhi:
    def test_collapses_syllables_by_vertex(self, path3):
        x = nw(path3, ("a", 1), ("c", 1), ("a", 2))
        assert phi(path3, x) == {"a": 3, "c": 1}

    def test_is_a_homomorphism(self, mixed):
        rng = random.Random(17)
        for _ in range(40):
            x = mixed.reduce(random_syllables(mixed, rng))
            y = mixed.reduce(random_syllables(mixed, rng))
            lhs = phi(mixed, mixed.multiply(x, y))
            # multiply images componentwise
            acc = {}
            for v in mixed.vertices:
                ops = mixed.ops[v]
                acc[v] = ops.multiply(
                    phi(mixed, x).get(v, ops.identity),
                    phi(mixed, y).get(v, ops.identity),
                )
            assert lhs == {v: e for v, e in acc.items() if not mixed.ops[v].is_identity(e)}

    def test_phi_lub_off_the_positive_cone(self, path3, b3):
        e = phi(path3, path3.identity())
        assert e == {}
        assert phi_lub(path3, phi(path3, nw(path3, ("a", -2))), e) == e
        # Z is totally ordered: its lub is the larger of the two
        assert phi_lub(path3, {"a": 3, "b": -1}, {"a": 5, "b": -4}) == {"a": 5, "b": -1}
        s_over_t = b3.reduce([b3.syllable("v", braid(b3, "s", "t"))])
        got = phi_lub(b3, phi(b3, s_over_t), phi(b3, b3.identity()))
        assert got == phi(b3, nw(b3, ("v", "s")))

    def test_preserves_positivity_and_lubs(self, path3):
        ball = enumerate_ball(path3, 3)
        pool = list(ball.elements)
        rng = random.Random(18)
        for _ in range(40):
            x, y = rng.choice(pool), rng.choice(pool)
            assert all(path3.ops[v].is_positive(e) for v, e in phi(path3, x).items())
            join = lub(path3, x, y)
            if join is INFINITY:
                continue
            assert phi(path3, join) == phi_lub(
                path3, phi(path3, x), phi(path3, y)
            )


def test_oracles_do_not_import_the_checked_code():
    """The oracles must not rest on lub, fractions or the Toeplitz layer."""
    import ast
    from pathlib import Path

    import qlattice.oracles

    tree = ast.parse(Path(qlattice.oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.level and not node.module:
                imported.update("." + a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    checked = {".order", ".toeplitz", ".verify"}
    checked |= {"qlattice" + m for m in checked}
    assert not imported & checked, sorted(imported & checked)


def test_graph_products_reach_factors_only_through_the_interface():
    """graph, order and toeplitz read no factor internals and name no kind."""
    import ast
    from pathlib import Path

    import qlattice.graph
    import qlattice.order
    import qlattice.toeplitz

    internals = {"kind", "monoid", "num", "den"}
    kinds = {"ArtinOps", "ZOps", "ArtinFraction", "ArtinMonoid"}
    for module in (qlattice.graph, qlattice.order, qlattice.toeplitz):
        tree = ast.parse(Path(module.__file__).read_text())
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names = attrs | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
        assert not attrs & internals, (module.__name__, sorted(attrs & internals))
        assert not names & kinds, (module.__name__, sorted(names & kinds))
