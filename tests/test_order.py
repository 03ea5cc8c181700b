"""Lattice operations: lub, canonical fractions, rgcd, and phi."""

import copy
import pickle
import random
import sys
import threading
from pathlib import Path

import pytest

import qlattice.order
from qlattice import (
    INFINITY,
    CommutationGraph,
    NormalWord,
    NotInPPInvError,
    Syllable,
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
from qlattice.graph import SYLLABLE_POOL_CAP
from qlattice.io import parse_word
from qlattice.order import lub_general
from qlattice.oracles import (
    check_lub_against_ball,
    product_upper_bitsets,
    upper_bound_bitsets,
)
from qlattice.toeplitz import enumerate_ball
from qlattice.verify import random_syllables

from conftest import B3_SPEC, braid, nw

HEX6 = Path(__file__).resolve().parent.parent / "perfbench" / "contexts" / "hex6.json"


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


def order_requests(graph, monkeypatch):
    """The (vertex, element) pairs that qlattice.order asks graph's syllable
    pool for, from now on; the graph's own requests are not listed."""
    requests, pooled = [], graph._syllable

    def request(vertex, element):
        if sys._getframe(1).f_globals["__name__"] == "qlattice.order":
            requests.append((vertex, element))
        return pooled(vertex, element)

    monkeypatch.setattr(graph, "_syllable", request)
    return requests


class TestBuiltRecords:
    """The order layer builds only the syllables a result keeps: a positive
    syllable is its own a-part, and only canonical_fraction builds b."""

    @pytest.mark.parametrize("name", ["path3", str(HEX6)], ids=["path3", "hex6"])
    def test_positive_queries_build_no_syllable(self, name, monkeypatch):
        # Z syllables are never mixed, so no a-part needs a new syllable either
        graph = _load_context(name)
        pool = list(enumerate_ball(graph, 3).elements)
        rng = random.Random(34)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(80)]

        def queries():
            return [(lub(graph, x, y), rgcd(graph, x, y), leq(graph, x, y), leq_r(graph, x, y))
                    for x, y in pairs]

        want = queries()
        assert any(row[0] is INFINITY for row in want)
        built = order_requests(graph, monkeypatch)
        assert queries() == want
        assert built == []

    def test_canonical_fraction_builds_b(self, path3, b3, monkeypatch):
        built = order_requests(path3, monkeypatch)
        a, b = canonical_fraction(path3, nw(path3, ("a", 2), ("c", -1)))
        assert (a, b) == (nw(path3, ("a", 2)), nw(path3, ("c", 1)))
        assert built == [("c", 1)]
        built = order_requests(b3, monkeypatch)
        a, b = canonical_fraction(b3, b3.reduce([b3.syllable("v", braid(b3, "s", "t"))]))
        assert (a, b) == (nw(b3, ("v", "s")), nw(b3, ("v", "t")))
        assert built == [("v", braid(b3, "s")), ("v", braid(b3, "t"))]


    def test_canonical_fraction_factorizes_each_syllable_once(self, b3, monkeypatch):
        ops, factorized = b3.ops["v"], []
        factorize = ops.factorize
        monkeypatch.setattr(ops, "factorize", lambda f: factorized.append(f) or factorize(f))
        x = b3.reduce([b3.syllable("v", braid(b3, "s", "t"))])
        assert canonical_fraction(b3, x) == (nw(b3, ("v", "s")), nw(b3, ("v", "t")))
        assert factorized == [braid(b3, "s", "t")]


class TestSyllablePool:
    """A graph keeps one Syllable per (vertex, element) it builds, in a pool
    of at most SYLLABLE_POOL_CAP entries; results stay values."""

    def test_equal_syllables_are_one_object(self):
        graph = CommutationGraph([("a", "Z"), ("v", B3_SPEC)], [("a", "v")])
        s, t = braid(graph, "s"), braid(graph, "t")
        pooled = parse_word(graph, '[["v", "s"]]').syllables[0]
        assert graph.syllable("v", s) is pooled
        assert graph._inverses([Syllable("v", graph.ops["v"].invert(s))])[0] is pooled
        amalgamated = graph.multiply(parse_word(graph, '[["v", "st"]]'),
                                     parse_word(graph, '[["v", {"den": "t"}]]'))
        assert amalgamated.syllables[0] is pooled
        assert qlattice.order._split(graph, [Syllable("v", braid(graph, "s", "t"))])[0][0] is pooled
        a, b = canonical_fraction(graph, parse_word(graph, '[["v", {"num": "s", "den": "t"}]]'))
        assert a.syllables[0] is pooled
        assert b.syllables[0] is parse_word(graph, '[["v", "t"]]').syllables[0]
        assert b.syllables[0] == Syllable("v", t)
        z = parse_word(graph, '[["a", 2], ["v", "s"]]')
        assert z.syllables[0] is graph.syllable("a", 2) and z.syllables[1] is pooled

    def test_coprime_rgcd_is_the_shared_identity(self, path3, b3):
        assert rgcd(path3, nw(path3, ("a", 2)), nw(path3, ("c", 1))) is path3.identity()
        assert rgcd(b3, nw(b3, ("v", "s")), nw(b3, ("v", "t"))) is b3.identity()
        assert path3.identity() == NormalWord((), 0)

    def test_pool_holds_at_most_its_cap_and_results_do_not_change(self):
        graph, fresh = _load_context("path3"), _load_context("path3")
        for k in range(1, 2 * SYLLABLE_POOL_CAP + 1):
            x = parse_word(graph, f'[["a", {k}], ["c", -{k}]]')
            assert x.syllables == (Syllable("a", k), Syllable("c", -k))
            assert sum(map(len, graph._pools.values())) <= SYLLABLE_POOL_CAP

        def fraction(g, q):
            try:
                return canonical_fraction(g, q)
            except NotInPPInvError:
                return None

        rng = random.Random(35)
        for _ in range(60):
            u, v = (random_syllables(graph, rng, positive=True) for _ in range(2))
            for g in (graph, fresh):
                x, y = g.reduce(u), g.reduce(v)
                q = g.multiply(x, g.invert(y))
                results = (x, y, q, lub(g, x, y), fraction(g, q), rgcd(g, x, y),
                           leq(g, x, q), phi(g, q))
                if g is graph:
                    pooled = results
            assert pooled == results

    def test_threads_sharing_a_graph_get_equal_results(self, monkeypatch):
        # a tiny cap, so the pools are cleared under the threads all the time
        monkeypatch.setattr(qlattice.graph, "SYLLABLE_POOL_CAP", 16)
        graph = _load_context("path3")
        rng = random.Random(36)
        words = [random_syllables(graph, rng, positive=True) for _ in range(40)]

        def queries():
            xs = [graph.reduce(w) for w in words]
            return [(lub(graph, x, y), rgcd(graph, x, y), graph.multiply(x, graph.invert(y)))
                    for x, y in zip(xs, xs[1:])]

        want, got = queries(), []
        workers = [threading.Thread(target=lambda: got.append(queries())) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == [want] * len(workers)
        assert sum(map(len, graph._pools.values())) <= 16 + len(workers)

    def test_pooled_words_survive_pickle_and_copy(self, b3):
        x = parse_word(b3, '[["v", {"num": "sts", "den": "t"}]]')
        for clone in (copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))):
            y = clone(x)
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
            assert canonical_fraction(b3, y) == canonical_fraction(b3, x)


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
