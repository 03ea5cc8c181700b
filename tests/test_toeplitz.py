"""Cone balls, truncated isometries, covariance/defect checks, norms."""

import itertools
import json
import math
import random
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice import (
    BallSizeExceeded,
    CommutationGraph,
    INFINITY,
    IsometryFamily,
    NormNotCertified,
    check_graph_relations,
    check_toeplitz_relations,
    covariance_check,
    defect_product_diag,
    enumerate_ball,
    leq,
    lub,
    norm_curve,
    norm_estimate,
    range_projection_diag,
    toeplitz_op,
)
from qlattice import graph as graph_module
from qlattice import toeplitz
from qlattice.cli import _load_context, main
from qlattice.oracles import dense_norm, dense_operator, product_ball
from qlattice.toeplitz import (
    _DENSE_BLOCK,
    _bracket,
    _certified_norms,
    _component_labels,
    _dense_vector,
    _gram,
    _sparse_vector,
    _walk,
    _weighted_sum,
)

from conftest import nw


class TestConeBall:
    def test_frozen_sizes(self, path3, b3):
        assert len(enumerate_ball(path3, 2)) == 11
        assert len(enumerate_ball(b3, 2)) == 7
        # degree 3 contains sts = tst once
        assert len(enumerate_ball(b3, 3)) == 14

    def test_is_divisor_closed(self, mixed):
        ball = enumerate_ball(mixed, 3)
        for z in ball.elements:
            for x in ball.elements:
                if leq(mixed, x, z):
                    assert x.syllables in ball.index

    def test_order_is_by_degree_then_key(self, path3):
        ball = enumerate_ball(path3, 3)
        assert ball.elements[0].is_identity
        degrees = [x.degree for x in ball.elements]
        assert degrees == sorted(degrees)

    def test_size_cap(self, path3):
        with pytest.raises(BallSizeExceeded):
            enumerate_ball(path3, 30, size_cap=100)

    def test_negative_degree_rejected(self, path3):
        with pytest.raises(ValueError, match=">= 0"):
            enumerate_ball(path3, -1)

    def test_position_roundtrip(self, b3):
        ball = enumerate_ball(b3, 3)
        for i, x in enumerate(ball.elements):
            assert ball.index[x.syllables] == i

    @pytest.mark.parametrize("name,words", [
        ("free2", ["", "a", "b", "aa", "ab", "ba", "bb"]),
        # ba = ab and cb = bc are numbered in rows a and b; ca is new in row c
        ("path3", ["", "a", "b", "c", "aa", "ab", "ac", "bb", "bc", "ca", "cc"]),
        ("b3", ["", "s", "t", "ss", "st", "ts", "tt"]),
    ])
    def test_basis_order_is_the_table_numbering(self, name, words):
        # degree first, then the least spellings in label order
        graph = _load_context(name)
        gens = dict(zip(graph.generator_labels(), graph.generator_words()))
        spelled = [graph.identity()]
        for word in words[1:]:
            x = graph.identity()
            for letter in word:
                x = graph.multiply(x, gens[letter])
            spelled.append(x)
        ball = enumerate_ball(graph, 2)
        assert ball.elements == tuple(spelled)
        assert ball.start == (0, 1, 1 + len(gens), len(words))


CONTEXTS = Path(__file__).resolve().parent.parent / "perfbench" / "contexts"


def artin(*names, m):
    """An Artin factor spec on two generators with m(s, t) = m."""
    return {"artin": {"generators": list(names), "m": [[1, m], [m, 1]]}}


#: Vertex factors for random graph products: Z, A2, B2, I2(7) and A1 x A1
VERTEX_KINDS = {
    "Z": lambda v: "Z",
    "A2": lambda v: artin(v + "s", v + "t", m=3),
    "B2": lambda v: artin(v + "s", v + "t", m=4),
    "I2(7)": lambda v: artin(v + "s", v + "t", m=7),
    "A1xA1": lambda v: artin(v + "s", v + "t", m=2),
}


@st.composite
def graph_products(draw):
    n = draw(st.integers(1, 4))
    names = [f"v{i}" for i in range(n)]
    kinds = [draw(st.sampled_from(sorted(VERTEX_KINDS))) for _ in names]
    edges = [e for e in itertools.combinations(names, 2) if draw(st.booleans())]
    return CommutationGraph([(v, VERTEX_KINDS[k](v)) for v, k in zip(names, kinds)], edges)


def count_multiplies(monkeypatch):
    """A list whose length counts the calls of CommutationGraph.multiply."""
    calls, multiply = [], graph_module.CommutationGraph.multiply

    def counted(self, x, y):
        calls.append(None)
        return multiply(self, x, y)

    monkeypatch.setattr(graph_module.CommutationGraph, "multiply", counted)
    return calls


class TestBallFromRelations:
    """enumerate_ball builds its table from the generator relations; the
    oracle product_ball hashes every product g y."""

    @pytest.mark.parametrize("name,degree", [
        ("free2", 7), ("path3", 6), ("square4", 5), ("b3", 8), ("b4", 6),
        (str(CONTEXTS / "b3zz.json"), 5), (str(CONTEXTS / "hex6.json"), 4),
    ])
    def test_matches_the_product_oracle(self, name, degree):
        graph = _load_context(name)
        for d in range(degree + 1):
            ball = enumerate_ball(graph, d)
            elements, table = product_ball(graph, d, size_cap=10**6)
            assert ball.elements == elements
            assert np.array_equal(ball.table, table), d

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(graph_products(), st.integers(0, 6))
    def test_random_graph_products_match_the_product_oracle(self, graph, degree):
        try:
            elements, table = product_ball(graph, degree, size_cap=400)
        except BallSizeExceeded:
            with pytest.raises(BallSizeExceeded):
                enumerate_ball(graph, degree, size_cap=400)
            return
        ball = enumerate_ball(graph, degree, size_cap=400)
        assert ball.elements == elements
        assert np.array_equal(ball.table, table)

    @pytest.mark.parametrize("name,degree", [
        ("free2", 6), ("square4", 5), ("b4", 6), (str(CONTEXTS / "b3zz.json"), 4),
    ])
    def test_one_product_per_element(self, name, degree, monkeypatch):
        # a fallback to one product per table entry would make about
        # len(generators) times as many
        graph = _load_context(name)
        calls = count_multiplies(monkeypatch)
        ball = enumerate_ball(graph, degree)
        assert not calls
        ball.elements
        assert len(calls) == len(ball) - 1

    @pytest.mark.parametrize("name", [
        "free2", "square4", "b4", str(CONTEXTS / "b3zz.json"),
    ])
    def test_norms_form_no_element(self, name, monkeypatch):
        # norms read the table alone: no element is formed
        graph = _load_context(name)
        calls = count_multiplies(monkeypatch)
        labels = graph.generator_labels()
        rows = norm_curve(graph, dict.fromkeys(labels, 1 / len(labels)), [1, 2, 3, 4])
        ball = enumerate_ball(graph, 4)
        assert len(ball) == rows[-1][1]
        norm_estimate(graph, dict.fromkeys(graph.generator_words(), 1 / len(labels)), ball)
        assert not calls
        assert "elements" not in vars(ball)

    @pytest.mark.parametrize("name,degree,message", [
        ("square4", 14, "degree 13 has 212993 elements, over the size cap of 200000; "
                        "the ball of degree 12 has 98305"),
        (str(CONTEXTS / "hex6.json"), 9, "degree 8 has 290809 elements, over the size "
                                         "cap of 200000; the ball of degree 7 has 65856"),
    ])
    def test_size_cap_fires_before_any_product(self, name, degree, message, monkeypatch,
                                               capsys):
        calls = count_multiplies(monkeypatch)
        assert main(["ball", "--ctx", name, "--max-degree", str(degree)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "BallSizeExceeded" and message in error["detail"]
        assert not calls


# generators plus longer positives, several with multi-letter Artin syllables
TABLE_CASES = {
    "free2": (6, [(("a", 2),), (("a", 1), ("b", 2)), (("b", 1), ("a", 1), ("b", 1))]),
    "path3": (5, [(("a", 2), ("c", 1)), (("b", 3),), (("a", 1), ("b", 1), ("c", 1))]),
    "square4": (4, [(("a", 1), ("c", 2)), (("b", 2), ("d", 1)),
                    (("a", 1), ("b", 1), ("c", 1), ("d", 1))]),
    "b3": (6, [(("v", "st"),), (("v", "sts"),), (("v", "tts"),)]),
    "b4": (5, [(("v", "su"),), (("v", "stu"),), (("v", "tsut"),)]),
}


def check_curve_rows(graph, by_label, degrees, tol=1e-9):
    """norm_curve's rows against dense_norm on separately enumerated balls."""
    words = dict(zip(graph.generator_labels(), graph.generator_words()))
    weights = {words[label]: lam for label, lam in by_label.items()}
    rows = norm_curve(graph, by_label, degrees, tol=tol)
    assert [n for n, _, _ in rows] == list(degrees)
    for n, size, val in rows:
        ball = enumerate_ball(graph, n)
        assert size == len(ball)
        exact = dense_norm(graph, weights, ball)
        assert val <= exact <= val + tol * max(val, 1.0), n


def op_matrix(graph, x, ball):
    """toeplitz_op's index map (rows, cols) as a scipy csr matrix over the ball."""
    import scipy.sparse as sp
    rows, cols = toeplitz_op(graph, x, ball)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(ball),) * 2)


class TestCayleyTable:
    @pytest.mark.parametrize("name", sorted(TABLE_CASES))
    def test_operators_match_the_dense_oracle(self, name):
        # T_x is walked from the basis prefix of degree n - deg x, its
        # domain: on small balls every x of degree 0..n + 2 is checked, the
        # identity and the x that reach no column included
        graph = _load_context(name)
        degree, longer = TABLE_CASES[name]
        cases = [(n, enumerate_ball(graph, n + 2).elements) for n in (0, 1, 3)]
        cases.append((degree, graph.generator_words() + [nw(graph, *p) for p in longer]))
        for n, symbols in cases:
            ball = enumerate_ball(graph, n)
            for x in symbols:
                cols = _walk(graph, x, ball)[1]
                assert np.array_equal(cols, np.arange(len(cols))), (n, x)
                got = op_matrix(graph, x, ball).toarray()
                assert np.array_equal(got, dense_operator(graph, x, ball)), (n, x)

    def test_mixed_syllables_match_the_dense_oracle(self, mixed):
        ball = enumerate_ball(mixed, 4)
        for pairs in [(("a", 2), ("v", "st")), (("v", "sts"), ("a", 1)), (("a", 3),)]:
            x = nw(mixed, *pairs)
            got = op_matrix(mixed, x, ball).toarray()
            assert np.array_equal(got, dense_operator(mixed, x, ball)), x

    @pytest.mark.parametrize("name", sorted(TABLE_CASES))
    def test_truncation_equals_a_fresh_enumeration(self, name):
        # norm_curve reads the ball of degree d, and its operator, as the
        # leading k elements and the leading k x k block of the largest one
        graph = _load_context(name)
        degree, _ = TABLE_CASES[name]
        big = enumerate_ball(graph, degree)
        gens = graph.generator_words()

        def weighted_sum(ball):
            return sum((i + 1) * op_matrix(graph, x, ball) for i, x in enumerate(gens))

        big_sum = weighted_sum(big)
        for d in range(degree + 1):
            small = enumerate_ball(graph, d)
            k = len(small)
            assert big.elements[:k] == small.elements
            assert all(x.degree > d for x in big.elements[k:])
            assert np.array_equal(np.where(big.table[:, :k] < k, big.table[:, :k], -1),
                                  small.table)
            assert np.array_equal(big_sum[:k, :k].toarray(), weighted_sum(small).toarray())

    @pytest.mark.parametrize(
        "name,degree", [("free2", 6), ("path3", 5), ("square4", 4), ("b3", 7), ("b4", 5)]
    )
    def test_curve_rows_match_separate_balls(self, name, degree):
        graph = _load_context(name)
        labels = sorted(graph.generator_labels())
        weights_by_label = {label: 1.0 / len(labels) for label in labels}
        weights = {x: 1.0 / len(labels) for x in graph.generator_words()}
        tol = 1e-9
        rows = norm_curve(graph, weights_by_label, range(1, degree + 1), tol=tol)
        for n, size, val in rows:
            ball = enumerate_ball(graph, n)
            assert size == len(ball)
            exact = dense_norm(graph, weights, ball)
            assert val <= exact <= val + tol * max(val, 1.0)

    @pytest.mark.parametrize(
        "name,degree", [("free2", 6), ("path3", 5), ("square4", 4), ("b3", 7), ("b4", 5)]
    )
    def test_gram_matrix_splits_into_degree_layers(self, name, degree):
        # norm_curve certifies each degree layer of B = A^T A once and reads
        # the ball of degree n off the layers below n; checked here on a
        # dense B from the oracle operators and on separately enumerated balls
        graph = _load_context(name)
        gens = graph.generator_words()
        weights = {x: 1.0 / len(gens) for x in gens}
        ball = enumerate_ball(graph, degree)
        a = sum(lam * dense_operator(graph, x, ball) for x, lam in weights.items())
        b = a.T @ a
        layer = np.array([x.degree for x in ball.elements])
        rows, cols = np.nonzero(b)
        assert np.array_equal(layer[rows], layer[cols])
        tops = [np.linalg.eigvalsh(b[np.ix_(layer == d, layer == d)])[-1]
                for d in range(degree)]
        for n in range(1, degree + 1):
            exact = dense_norm(graph, weights, enumerate_ball(graph, n))
            assert exact == pytest.approx(math.sqrt(max(tops[:n])), abs=1e-12), n

    def test_curve_over_non_contiguous_degrees(self, b3):
        check_curve_rows(b3, {"s": 0.5, "t": 0.5}, [2, 5, 9])

    def test_size_cap_still_applies(self, path3):
        with pytest.raises(BallSizeExceeded):
            norm_curve(path3, {"a": 0.5, "b": 0.5}, [1, 30], size_cap=100)
        with pytest.raises(BallSizeExceeded):
            enumerate_ball(path3, 6, size_cap=246)
        assert len(enumerate_ball(path3, 6, size_cap=247)) == 247

    def test_degrees_past_the_size_cap_are_not_read(self, path3):
        # listing the degrees would exhaust memory; they are read no further
        # than the first one over the cap, whose ball cannot fit
        began = time.perf_counter()
        with pytest.raises(BallSizeExceeded, match="degree 2 has 11 elements, over the "
                           "size cap of 5; the ball of degree 1 has 4"):
            norm_curve(path3, {"a": 1.0}, range(1, 10**18), size_cap=5)
        assert time.perf_counter() - began < 0.1

    def test_no_degrees_give_no_rows(self, path3):
        assert norm_curve(path3, {"a": 1.0}, []) == []


class TestToeplitzOps:
    def test_shift_on_a_single_vertex(self, free2):
        ball = enumerate_ball(free2, 2)
        a = nw(free2, ("a", 1))
        op = op_matrix(free2, a, ball)
        col = op[:, ball.index[free2.identity().syllables]].toarray().ravel()
        assert col[ball.index[a.syllables]] == 1.0
        assert col.sum() == 1.0

    def test_rejects_non_positive_symbols(self, free2):
        ball = enumerate_ball(free2, 2)
        with pytest.raises(ValueError):
            toeplitz_op(free2, nw(free2, ("a", -1)), ball)

    def test_adjoint_is_exact_on_the_ball(self, mixed):
        # T_x^* e_z = e_{x^-1 z} when x <= z, else 0: so T_x^* T_x = 1 on
        # columns whose image stays inside the ball
        ball = enumerate_ball(mixed, 3)
        for x in mixed.generator_words():
            op = op_matrix(mixed, x, ball)
            prod = op.T @ op
            keep = [j for j, y in enumerate(ball.elements) if y.degree <= 2]
            sub = prod[np.ix_(keep, keep)].toarray()
            assert np.array_equal(sub, np.eye(len(keep)))

    def test_range_projection_diag(self, path3):
        ball = enumerate_ball(path3, 2)
        diag = range_projection_diag(path3, nw(path3, ("a", 1)), ball)
        want = [1 if leq(path3, nw(path3, ("a", 1)), z) else 0 for z in ball.elements]
        assert diag.tolist() == want
        assert diag[ball.index[path3.identity().syllables]] == 0

    def test_range_projection_rejects_non_positive_symbols(self, free2):
        ball = enumerate_ball(free2, 2)
        with pytest.raises(ValueError, match="positive"):
            range_projection_diag(free2, nw(free2, ("a", 1), ("b", -1)), ball)


class TestUpperSets:
    @pytest.mark.parametrize(
        "name,degree",
        [("free2", 5), ("path3", 5), ("b3", 5), ("square4", 4), ("b4", 4)],
    )
    def test_table_masks_equal_the_leq_scan(self, name, degree):
        # the ball is divisor closed, so the rows T_x reaches are exactly
        # the z >= x; checked here against leq for every x in the ball
        graph = _load_context(name)
        ball = enumerate_ball(graph, degree)
        for x in ball.elements:
            want = [1 if leq(graph, x, z) else 0 for z in ball.elements]
            assert range_projection_diag(graph, x, ball).tolist() == want, x

    def test_joins_past_the_ball_degree_reach_nothing(self, b3):
        ball = enumerate_ball(b3, 2)
        delta = nw(b3, ("v", "sts"))
        assert not range_projection_diag(b3, delta, ball).any()
        report = covariance_check(b3, nw(b3, ("v", "s")), nw(b3, ("v", "t")), ball)
        assert report.ok and report.lub.syllables == delta.syllables


class TestCovariance:
    def test_bounded_pair(self, path3):
        ball = enumerate_ball(path3, 4)
        report = covariance_check(
            path3, nw(path3, ("a", 1)), nw(path3, ("b", 1)), ball
        )
        assert report.ok and not report.mismatches
        assert report.lub.syllables == nw(path3, ("a", 1), ("b", 1)).syllables

    def test_unbounded_pair(self, free2):
        ball = enumerate_ball(free2, 4)
        report = covariance_check(
            free2, nw(free2, ("a", 1)), nw(free2, ("b", 1)), ball
        )
        assert report.ok
        assert report.lub is INFINITY

    def test_sampled_pairs(self, mixed):
        ball = enumerate_ball(mixed, 4)
        pool = list(enumerate_ball(mixed, 2).elements)
        rng = random.Random(21)
        for _ in range(30):
            x, y = rng.choice(pool), rng.choice(pool)
            assert covariance_check(mixed, x, y, ball).ok

    def test_rejects_non_positive_arguments(self, free2):
        ball = enumerate_ball(free2, 2)
        a, inv = nw(free2, ("a", 1)), nw(free2, ("b", -1))
        for x, y in [(a, inv), (inv, a)]:
            with pytest.raises(ValueError, match="positive"):
                covariance_check(free2, x, y, ball)

    def test_a_wrong_lub_is_reported(self, free2, path3, monkeypatch):
        # both sides are read off the table, never from lub, so a wrong
        # join still shows: one argument of an incomparable pair, or
        # infinity for a bounded pair
        a, b = nw(free2, ("a", 1)), nw(free2, ("b", 1))
        monkeypatch.setattr(toeplitz, "lub", lambda graph, x, y: x)
        report = covariance_check(free2, a, b, enumerate_ball(free2, 3))
        assert not report.ok and report.mismatches[0].syllables == a.syllables
        monkeypatch.setattr(toeplitz, "lub", lambda graph, x, y: INFINITY)
        a, b = nw(path3, ("a", 1)), nw(path3, ("b", 1))
        report = covariance_check(path3, a, b, enumerate_ball(path3, 3))
        ab = nw(path3, ("a", 1), ("b", 1))
        assert not report.ok and report.mismatches[0].syllables == ab.syllables


class TestDefect:
    def test_diagonal_over_generators(self, path3):
        ball = enumerate_ball(path3, 3)
        diag = defect_product_diag(path3, path3.generator_words(), ball)
        # exactly the identity survives: every other ball element is
        # divisible by some generator
        assert diag[ball.index[path3.identity().syllables]] == 1
        assert diag.sum() == 1

    def test_partial_family_leaves_more_support(self, path3):
        ball = enumerate_ball(path3, 2)
        a_only = [nw(path3, ("a", 1))]
        diag = defect_product_diag(path3, a_only, ball)
        assert diag.sum() == sum(
            1 for z in ball.elements if not leq(path3, a_only[0], z)
        )

    def test_empty_family_rejected(self, path3):
        ball = enumerate_ball(path3, 2)
        with pytest.raises(ValueError):
            defect_product_diag(path3, [], ball)

    def test_rejects_non_positive_elements(self, path3):
        ball = enumerate_ball(path3, 2)
        family = [nw(path3, ("a", 1)), nw(path3, ("c", -1))]
        with pytest.raises(ValueError, match="positive"):
            defect_product_diag(path3, family, ball)


def left_regular_family(graph, degree):
    """The truncated Toeplitz matrices as a concrete IsometryFamily input."""
    ball = enumerate_ball(graph, degree)
    mats = {}
    for label, (v, e) in graph.generator_labels().items():
        word = graph.reduce([graph.syllable(v, e)])
        mats[label] = op_matrix(graph, word, ball).toarray()
    return ball, mats


class TestIsometryFamily:
    def test_missing_generator_rejected(self, free2):
        with pytest.raises(ValueError):
            IsometryFamily(free2, {"a": np.eye(2)})

    def test_dimension_mismatch_rejected(self, free2):
        with pytest.raises(ValueError):
            IsometryFamily(free2, {"a": np.eye(2), "b": np.eye(3)})
        with pytest.raises(ValueError, match="matrix for 'a' must be square 2-D"):
            IsometryFamily(free2, {"a": np.ones((2, 3)), "b": np.eye(2)})

    def test_labels_that_are_not_generators_rejected(self, free2):
        mats = {"a": np.eye(2), "b": np.eye(2), "c": np.eye(2), "d": np.eye(2)}
        with pytest.raises(ValueError, match=r"unknown generator labels \['c', 'd'\]"):
            IsometryFamily(free2, mats)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, free2, bad):
        with pytest.raises(ValueError, match="matrix for 'a' has a non-finite entry"):
            IsometryFamily(free2, {"a": [[bad]], "b": [[1.0]]})

    def test_extension_along_reduced_expressions(self, path3):
        _, mats = left_regular_family(path3, 4)
        fam = IsometryFamily(path3, mats)
        x = nw(path3, ("a", 2), ("b", 1))
        direct = (
            np.linalg.matrix_power(mats["a"], 2) @ mats["b"]
        )
        assert np.allclose(fam.of(x), direct)

    def test_truncated_shifts_fail_only_the_isometry_check(self):
        # tensor products of truncated shifts commute and *-commute
        # exactly, but each kills its top basis vector, so the only
        # violations reported are the isometry defects
        n = 6
        shift = np.eye(n, k=-1)
        graph2 = CommutationGraph([("a", "Z"), ("b", "Z")], [("a", "b")])
        mats = {"a": np.kron(shift, np.eye(n)), "b": np.kron(np.eye(n), shift)}
        report = check_graph_relations(IsometryFamily(graph2, mats), tol=1e-9)
        assert not report.ok
        assert all("isometry" in desc for desc, _ in report.violations)

    def test_unitary_family_passes_relations_without_ball(self):
        # two commuting unitaries on the complete graph satisfy every
        # generator-level relation exactly
        graph2 = CommutationGraph([("a", "Z"), ("b", "Z")], [("a", "b")])
        theta = 2 * math.pi / 5
        u = np.diag([np.exp(1j * theta * k) for k in range(4)])
        w = np.diag([np.exp(1j * 0.3 * k) for k in range(4)])
        report = check_graph_relations(IsometryFamily(graph2, {"a": u, "b": w}))
        assert report.ok

    def test_non_finite_tolerance_rejected(self, free2):
        # NaN compares false with every residual, so it would pass anything
        family = IsometryFamily(free2, {"a": 2 * np.eye(2), "b": np.eye(2)})
        assert not check_graph_relations(family).ok
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                check_graph_relations(family, tol=tol)

    @pytest.mark.parametrize("name", ["path3", "b3"])
    def test_sampled_covariance_matches_products_of_the_extension(self, request, name):
        # each sampled pair is one more entry of the relation list; the
        # reference forms its sides from IsometryFamily.of products instead
        graph = request.getfixturevalue(name)
        rng = np.random.default_rng(7)
        family = IsometryFamily(graph, {
            label: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for label in graph.generator_labels()})
        ball = enumerate_ball(graph, 3)
        pool = [x for x in ball.elements if not x.is_identity]
        draw = np.random.default_rng(5)
        expected, infinite = [], 0
        for _ in range(40):
            x = pool[draw.integers(len(pool))]
            y = pool[draw.integers(len(pool))]
            vx, vy = family.of(x), family.of(y)
            lhs = vx @ vx.conj().T @ vy @ vy.conj().T
            join = lub(graph, x, y)
            if join is INFINITY:
                infinite += 1
                rhs = np.zeros_like(lhs)
            else:
                vj = family.of(join)
                rhs = vj @ vj.conj().T
            expected.append((f"covariance {x},{y}", float(np.linalg.norm(lhs - rhs, ord=2))))
        assert (infinite > 0) == (name == "path3")
        # a negative tolerance reports every residual
        got = check_graph_relations(family, tol=-1.0, ball=ball, samples=40, seed=5)
        generators = check_graph_relations(family, tol=-1.0)
        hexed = lambda pairs: [(desc, r.hex()) for desc, r in pairs]
        assert hexed(got.violations) == hexed(generators.violations + tuple(expected))

    def test_orthogonality_violation_is_reported(self, free2):
        # identical unitaries at non-adjacent vertices cannot have
        # orthogonal ranges
        u = np.eye(3)
        report = check_graph_relations(IsometryFamily(free2, {"a": u, "b": u}))
        assert not report.ok
        assert any("orthogonal" in desc for desc, _ in report.violations)


class TestToeplitzRelations:
    @pytest.mark.parametrize("ctx", ["free2", "path3", "b3", "mixed"])
    def test_truncated_family_self_check(self, ctx, request):
        graph = request.getfixturevalue(ctx)
        ball = enumerate_ball(graph, 4)
        report = check_toeplitz_relations(graph, ball)
        assert report.ok, report.violations

    def test_wrong_graph_is_caught(self):
        # the path3 operators checked against the relations of other
        # graphs: an added edge a-c breaks commuting, a dropped edge b-c
        # breaks orthogonality of ranges
        vertices = [("a", "Z"), ("b", "Z"), ("c", "Z")]
        path3 = CommutationGraph(vertices, [("a", "b"), ("b", "c")])
        ball = enumerate_ball(path3, 4)
        triangle = CommutationGraph(vertices, [("a", "b"), ("b", "c"), ("a", "c")])
        report = check_toeplitz_relations(triangle, ball)
        assert [desc for desc, _ in report.violations] == ["commute a,c", "*-commute a,c"]
        edge = CommutationGraph(vertices, [("a", "b")])
        report = check_toeplitz_relations(edge, ball)
        assert [desc for desc, _ in report.violations] == ["orthogonal ranges b,c"]

    @pytest.mark.parametrize("ctx", ["path3", "b3", "mixed"])
    def test_a_dropped_adjoint_letter_is_caught(self, ctx, request, monkeypatch):
        # each relation with an adjoint letter, with one of them dropped, is
        # checked alone: the composed index maps must tell the sides apart
        graph = request.getfixturevalue(ctx)
        ball = enumerate_ball(graph, 6)
        relations = toeplitz._generator_relations(graph)
        bent = [(desc, side[:i] + side[i + 1:], other)
                for desc, lhs, rhs in relations
                for side, other in ((lhs, rhs), (rhs, lhs)) if side
                for i, (_, adjoint) in enumerate(side) if adjoint]
        assert len(bent) >= len(graph.generator_labels())
        for relation in bent:
            monkeypatch.setattr(toeplitz, "_generator_relations", lambda g: [relation])
            report = check_toeplitz_relations(graph, ball)
            assert [desc for desc, _ in report.violations] == [relation[0]], relation

    def test_a_dropped_forward_letter_is_caught_at_degree_4(self, b3, monkeypatch):
        # s^* t t^* against j j^*: neither side rises above the degree of its
        # column, so every column is compared.  Compared on the columns of
        # degree <= n - 3 (3 forward letters in j j^*), both sides vanish there
        desc, lhs, rhs = next(r for r in toeplitz._generator_relations(b3)
                              if r[0] == "generator covariance s,t")
        assert lhs[0] == ("s", False)
        bent = (desc, lhs[1:], rhs)
        monkeypatch.setattr(toeplitz, "_generator_relations", lambda g: [bent])
        report = check_toeplitz_relations(b3, enumerate_ball(b3, 4))
        assert [d for d, _ in report.violations] == [desc]

    def test_a_killed_vector_stays_killed(self, free2, monkeypatch):
        # T_b^* T_a^* T_b = 0 as T_a^* T_b = 0.  T_a^* kills every column;
        # T_b^* then must not read the killed -1 as an index, where the
        # last element, b^n, has the preimage b^(n-1)
        zero = ("zero after a kill", (("b", True), ("a", True), ("b", False)), None)
        monkeypatch.setattr(toeplitz, "_generator_relations", lambda g: [zero])
        assert check_toeplitz_relations(free2, enumerate_ball(free2, 3)).ok

    @pytest.mark.parametrize(
        "ctx,need", [("free2", 1), ("path3", 2), ("b3", 3), ("mixed", 3)]
    )
    def test_ball_too_small_for_some_relation(self, ctx, need, request):
        # a relation whose sides rise at most k above the degree of their
        # column is compared only on columns e_y with deg y + k <= max_degree;
        # a ball with none for some relation must not report ok
        graph = request.getfixturevalue(ctx)
        with pytest.raises(ValueError, match=f"compared from degree {need}$"):
            check_toeplitz_relations(graph, enumerate_ball(graph, need - 1))
        assert check_toeplitz_relations(graph, enumerate_ball(graph, need)).ok


B3_TYPE = {"artin": {"generators": ["p", "q", "r"],
                     "m": [[1, 4, 2], [4, 1, 3], [2, 3, 1]]}}
I2_5 = {"artin": {"generators": ["x", "y"], "m": [[1, 5], [5, 1]]}}
H3 = {"artin": {"generators": ["h", "i", "j"], "m": [[1, 5, 2], [5, 1, 3], [2, 3, 1]]}}

#: Graphs with Artin vertices of every edge label 2, 3, 4 and 5.
VERTEX_GRAPHS = {
    "b3": lambda: _load_context("b3"),
    "b4": lambda: _load_context("b4"),
    "b3type_z": lambda: CommutationGraph([("w", B3_TYPE), ("z", "Z")], [("w", "z")]),
    "i2_5_h3": lambda: CommutationGraph([("u", I2_5), ("h3", H3)], []),
}


class TestVertexRelations:
    @pytest.mark.parametrize("name", sorted(VERTEX_GRAPHS))
    def test_braid_relations_from_the_coxeter_matrix(self, name):
        # the relations inside a vertex, against the Coxeter matrix: the
        # braid relation <st>^m and the covariance with join <st>^m
        graph = VERTEX_GRAPHS[name]()
        rels = {desc: (lhs, rhs) for desc, lhs, rhs in toeplitz._generator_relations(graph)}

        def up(word):
            return tuple((c, False) for c in word)

        pairs = 0
        for ops in graph.ops.values():
            if ops.kind != "artin":
                continue
            mon = ops.monoid
            for s, t in itertools.combinations(mon.generators, 2):
                m = mon.coxeter(s, t)
                join = mon._alt(s, t, m)
                assert rels[f"braid relation <{s}{t}>^{m}"] == (up(join), up(mon._alt(t, s, m)))
                assert rels[f"generator covariance {s},{t}"] == (
                    ((s, False), (s, True), (t, False), (t, True)),
                    up(join) + tuple((c, True) for c in reversed(join)),
                )
                pairs += 1
        inside = [d for d in rels if d.startswith(("braid", "generator covariance"))]
        assert len(inside) == 2 * pairs

    def test_covariant_unitaries_that_do_not_braid(self, b3):
        # unitaries satisfy every isometry and covariance relation, but
        # s t s = diag(-1, 1) differs from t s t = -s
        s = np.array([[0, 1], [1, 0]])
        t = np.diag([1, -1])
        report = check_graph_relations(IsometryFamily(b3, {"s": s, "t": t}))
        assert [desc for desc, _ in report.violations] == ["braid relation <st>^3"]


def nonzero_gram(graph, ball, weights):
    """B = A^T A without its empty rows, A = sum weights[x] T_x."""
    a = sum(lam * op_matrix(graph, x, ball) for x, lam in weights.items())
    b = (a.T @ a).tocsr()
    rows = np.flatnonzero(np.diff(b.indptr))
    return b[rows][:, rows]


#: Preset balls (name, degree) that both brackets are checked on.
BRACKET_CASES = [("free2", 6), ("path3", 7), ("square4", 5), ("b3", 10), ("b4", 5)]


class TestNorms:
    def test_single_isometry_has_norm_one(self, free2):
        ball = enumerate_ball(free2, 5)
        a = nw(free2, ("a", 1))
        got = norm_estimate(free2, {a: 1.0}, ball)
        assert got == pytest.approx(1.0, abs=1e-6)
        # a zero weight gives the zero operator, not an empty iteration
        assert norm_estimate(free2, {a: 0.0}, ball) == 0.0

    def test_free_pair_attains_the_free_bound(self, free2):
        # lambda (T_a + T_b) with lambda = 1/2: the compressions converge
        # to sqrt(2)/2 and in fact sit there for every degree
        for degree in (3, 5, 7):
            ball = enumerate_ball(free2, degree)
            weights = {nw(free2, ("a", 1)): 0.5, nw(free2, ("b", 1)): 0.5}
            got = norm_estimate(free2, weights, ball)
            assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_commuting_pair_attains_the_sum(self, path3):
        # adjacent generators generate a copy of N^2; the norm of
        # (T_a + T_b)/2 tends to 1 as the ball grows
        ball = enumerate_ball(path3, 8)
        weights = {nw(path3, ("a", 1)): 0.5, nw(path3, ("b", 1)): 0.5}
        got = norm_estimate(path3, weights, ball)
        assert 0.9 < got <= 1.0 + 1e-9

    def test_monotone_in_the_ball_degree(self, b3):
        weights_by_label = {"s": 0.5, "t": 0.5}
        rows = norm_curve(b3, weights_by_label, range(2, 7))
        values = [val for _, _, val in rows]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo
        sizes = [n for _, n, _ in rows]
        assert sizes == [7, 14, 26, 46, 79]

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    @pytest.mark.parametrize(
        "name,degree",
        [("free2", 6), ("path3", 5), ("square4", 4), ("b3", 8), ("b4", 5)],
    )
    def test_within_tolerance_below_the_dense_norm(self, name, degree, tol):
        graph = _load_context(name)
        ball = enumerate_ball(graph, degree)
        gens = graph.generator_words()
        weights = {x: 1.0 / len(gens) for x in gens}
        val = norm_estimate(graph, weights, ball, tol=tol)
        exact = dense_norm(graph, weights, ball)
        assert val <= exact <= val + tol * max(val, 1.0)

    @pytest.mark.parametrize(
        "name,degree",
        [("free2", 8), ("path3", 6), ("square4", 6), ("b3", 8), ("b4", 5)],
    )
    def test_unequal_weights_within_tolerance(self, name, degree):
        # components of smaller norm used to decay below the underflow
        # guard when the iterate was scaled by its global maximum
        graph = _load_context(name)
        rng = random.Random(f"{name}-{degree}")
        ball = enumerate_ball(graph, degree)
        for _ in range(6):
            weights = {x: rng.uniform(0.05, 1.0) for x in graph.generator_words()}
            val = norm_estimate(graph, weights, ball)
            exact = dense_norm(graph, weights, ball)
            assert val <= exact <= val + 1e-9 * max(val, 1.0)

    def test_path3_unequal_weights_certify(self, path3):
        weights = {
            nw(path3, ("a", 1)): 0.3, nw(path3, ("b", 1)): 0.3, nw(path3, ("c", 1)): 0.4,
        }
        ball = enumerate_ball(path3, 6)
        val = norm_estimate(path3, weights, ball)
        assert len(ball) == 247
        assert val <= dense_norm(path3, weights, ball) <= val + 1e-9
        assert f"{val:.12f}" == "0.781211021665"

    @pytest.mark.parametrize("name,degree", [("path3", 6), ("b3", 10), ("b4", 5)])
    def test_component_labels_match_csgraph(self, name, degree):
        # the lower bound is only valid on whole components of A^T A
        from scipy.sparse.csgraph import connected_components

        graph = _load_context(name)
        ball = enumerate_ball(graph, degree)
        b = nonzero_gram(graph, ball, {x: 1.0 for x in graph.generator_words()})
        count, want = connected_components(b, directed=False)
        got = _component_labels(b)
        assert got.max() + 1 == count
        assert len(set(zip(got.tolist(), want.tolist()))) == count

    @staticmethod
    def bracket_weights(graph):
        # with generator weights alone B has a constant diagonal; the
        # square of a generator makes it vary
        gens = graph.generator_words()
        weights = {x: lam for x, lam in zip(gens, (1.0, 1e-3, 0.3, 0.7))}
        weights[graph.multiply(gens[0], gens[0])] = 0.5
        return weights

    def bracket_case(self, name, degree):
        graph = _load_context(name)
        b = nonzero_gram(graph, enumerate_ball(graph, degree), self.bracket_weights(graph))
        return b, _component_labels(b), np.linalg.eigvalsh(b.toarray())[-1]

    @staticmethod
    def gathered_gram(graph, ball, weights):
        """_gram's B as a scipy matrix, and its rows, checked against the
        scipy product nonzero_gram."""
        terms = _weighted_sum(graph, weights, ball)
        b, rows = _gram(terms, len(ball))
        # B's nonempty rows are the columns y that some T_x with a nonzero
        # weight keeps inside the ball
        assert rows.tolist() == sorted({y for _, cols, lam in terms if lam for y in cols})
        want = nonzero_gram(graph, ball, weights)
        got = type(want)((b.data, b.indices, b.indptr), shape=b.shape)
        assert got.shape == want.shape and ((got != 0) != (want != 0)).nnz == 0
        # the same products lambda_x lambda_x', summed in a possibly other order
        rtol = len(terms) ** 2 * np.finfo(float).eps
        assert abs(got - want).max() <= rtol * abs(want).max()
        v = np.random.default_rng(len(ball)).uniform(0.5, 1.0, b.shape[0])
        np.testing.assert_allclose(b @ v, want @ v, rtol=rtol, atol=0)
        return got, rows

    @pytest.mark.parametrize("name,degree", BRACKET_CASES)
    def test_gathered_gram_equals_the_product(self, name, degree):
        graph = _load_context(name)
        self.gathered_gram(graph, enumerate_ball(graph, degree), self.bracket_weights(graph))

    def test_gathered_gram_sums_coinciding_pairs(self):
        # a (b) = b (a) and ab (a) = aa (b): two pairs of terms meet at
        # B[a, b], which _gram must add
        graph = _load_context("square4")
        ball = enumerate_ball(graph, 6)
        a, b = nw(graph, ("a", 1)), nw(graph, ("b", 1))
        weights = {a: 0.3, b: 0.7, graph.multiply(a, b): 0.2, graph.multiply(a, a): 0.5}
        gram, rows = self.gathered_gram(graph, ball, weights)
        i, j = np.searchsorted(rows, [ball.index[x.syllables] for x in (a, b)])
        assert gram[i, j] == 0.3 * 0.7 + 0.2 * 0.5
        tol = 1e-9
        val = norm_estimate(graph, weights, ball, tol=tol)
        assert val <= dense_norm(graph, weights, ball) <= val + tol * max(val, 1.0)

    def test_candidate_vectors_combine_per_component(self):
        # (1, 1) is the top eigenvector of both blocks; each candidate has
        # it on one block only, so only the two together close both
        import scipy.sparse as sp
        b = sp.csr_matrix(np.kron(np.eye(2), np.ones((2, 2))) + np.diag([1.0, 1, 0, 0]))
        component = _component_labels(b)
        first, second = np.array([1.0, 1, 1, 2]), np.array([1.0, 2, 1, 1])
        for v, closed in ((first, [True, False]), (second, [False, True])):
            lower, upper = _bracket(b, v, component)
            assert (upper - lower <= 1e-12 * upper).tolist() == closed
        lower, upper = _bracket(b, np.stack([first, second]), component)
        assert lower.tolist() == pytest.approx([3.0, 2.0]) and (upper - lower <= 1e-12 * upper).all()

    @staticmethod
    def block_tops(b, component):
        """The top eigenvalue of each block of b, by dense eigvalsh."""
        dense = b.toarray()
        blocks = (np.flatnonzero(component == c) for c in range(component.max() + 1))
        return np.array([np.linalg.eigvalsh(dense[np.ix_(r, r)])[-1] for r in blocks])

    def check_bracket(self, source, name, degree, each_tight):
        # _bracket bounds every block by itself; the top block's bracket
        # is tight, and with the dense vector every block's is
        b, component, exact = self.bracket_case(name, degree)
        tops = self.block_tops(b, component)
        lower, upper = _bracket(b, source(b, component), component)
        assert (lower <= tops * (1 + 1e-13)).all() and (tops <= upper).all()
        assert upper.max() - lower.max() <= 1e-10 * exact
        if each_tight:
            assert (upper - lower <= 1e-10 * tops).all()

    @pytest.mark.parametrize("name,degree", BRACKET_CASES)
    def test_dense_bracket_contains_the_top_eigenvalue(self, name, degree):
        self.check_bracket(_dense_vector, name, degree, each_tight=True)

    @pytest.mark.parametrize("name,degree", [*BRACKET_CASES, ("square4", 7)])
    def test_sparse_bracket_contains_the_top_eigenvalue(self, name, degree):
        # the sparse vector serves blocks past _DENSE_BLOCK (square4 at
        # degree 7 is one block of 769 rows here) but serves any B
        self.check_bracket(lambda b, component: _sparse_vector(b), name, degree,
                           each_tight=False)

    @pytest.mark.parametrize("name,degree", BRACKET_CASES)
    def test_any_positive_vector_gives_a_bracket(self, name, degree):
        # nothing about the vector is trusted: a poor one only widens the
        # bracket, and one that is not positive gives none
        b, component, _ = self.bracket_case(name, degree)
        tops = self.block_tops(b, component)
        rng = np.random.default_rng(0)
        for v in (np.ones(b.shape[0]), rng.uniform(0.5, 1.0, b.shape[0])):
            lower, upper = _bracket(b, v, component)
            assert (lower <= tops * (1 + 1e-13)).all() and (tops <= upper).all()
        # a zero entry voids the bracket of its own block only
        v = np.ones(b.shape[0])
        v[b.shape[0] // 2] = 0.0
        lower, upper = _bracket(b, v, component)
        void = np.arange(len(tops)) == component[b.shape[0] // 2]
        assert (lower[void] == 0.0).all() and (upper[void] == np.inf).all()
        assert (lower <= tops * (1 + 1e-13)).all() and np.isfinite(upper[~void]).all()

    @pytest.mark.parametrize(
        "name,degree", [("free2", 6), ("path3", 8), ("square4", 6), ("b3", 10), ("b4", 6)]
    )
    def test_small_blocks_need_no_power_step(self, name, degree):
        # a near-degenerate weight (lambda_2 / lambda_1 close to 1)
        # certifies in one bracket like any other
        graph = _load_context(name)
        ball = enumerate_ball(graph, degree)
        gens = graph.generator_words()
        weights = {x: 1e-6 if i else 1.0 for i, x in enumerate(gens)}
        val = norm_estimate(graph, weights, ball)
        assert val <= dense_norm(graph, weights, ball) <= val + 1e-9 * max(val, 1.0)

    def test_large_block_certifies_by_the_sparse_bracket(self):
        # square4 at degree 7 has a 448-row block, past _DENSE_BLOCK
        graph = _load_context("square4")
        ball = enumerate_ball(graph, 7)
        gens = graph.generator_words()
        unit = {x: 1.0 for x in gens}
        b = nonzero_gram(graph, ball, unit)
        assert np.bincount(_component_labels(b)).max() == 448 > _DENSE_BLOCK
        for weights in (unit, {x: 1e-6 if i else 1.0 for i, x in enumerate(gens)}):
            val = norm_estimate(graph, weights, ball)
            assert val <= dense_norm(graph, weights, ball) <= val + 1e-9 * max(val, 1.0)

    def test_a_block_past_the_fill_cap_certifies_by_power_steps(self, monkeypatch):
        # square4 at degree 11 with uneven weights, one of them on a d: spilu
        # fills its 20,481-row block past the cap, and the Ritz vector's least
        # entries are too inexact for the upper end, which stayed 6.7e-7 above
        # the lower one; the power-polished third vector closes the bracket
        graph = _load_context("square4")
        words = dict(zip(graph.generator_labels(), graph.generator_words()))
        rng = random.Random(2)
        weights = {x: rng.uniform(0.05, 1) for x in words.values()}
        weights[graph.multiply(words["a"], words["d"])] = 0.5
        seen = []
        monkeypatch.setattr(toeplitz, "_sparse_vector",
                            lambda b: seen.append((b, _sparse_vector(b))) or seen[-1][1])
        val = norm_estimate(graph, weights, enumerate_ball(graph, 11))
        # inside the bracket the first two vectors give, 2.06666863703084 to
        # 2.06667002414159
        assert 2.0666686370 <= val <= 2.0666700242
        (b, v), = seen
        component = _component_labels(b)
        for vectors, closes in ((v[:2], False), (v, True)):
            lower, upper = (np.sqrt(end.max()) for end in _bracket(b, vectors, component))
            assert (upper - lower <= 1e-9 * lower) == closes

    @pytest.mark.parametrize("failure", ["lanczos", "singular", "non-finite solve"])
    def test_failed_sparse_factorisation_raises(self, monkeypatch, failure):
        # each way _sparse_vector can fail leaves the upper bound infinite
        import scipy.sparse.linalg as sla

        def no_lanczos(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", [], [])

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        class NaNFactor:
            def solve(self, rhs):
                return np.full_like(rhs, np.nan)

        broken = {"lanczos": ("eigsh", no_lanczos), "singular": ("spilu", singular),
                  "non-finite solve": ("spilu", lambda c, **kwargs: NaNFactor())}[failure]
        monkeypatch.setattr(sla, *broken)
        graph = _load_context("square4")
        ball = enumerate_ball(graph, 7)
        weights = {x: 1.0 for x in graph.generator_words()}
        with pytest.raises(NormNotCertified, match=r"\[0, inf\] is wider than"):
            norm_estimate(graph, weights, ball)

    def test_failed_dense_solve_raises(self, monkeypatch, free2):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        ball = enumerate_ball(free2, 5)
        weights = {x: 1.0 for x in free2.generator_words()}
        with pytest.raises(NormNotCertified, match=r"\[0, inf\] is wider than"):
            norm_estimate(free2, weights, ball)

    @pytest.mark.parametrize("scale", [1e141, 1e-150])
    @pytest.mark.parametrize("name,degree", [("free2", 9), ("square4", 7)])
    def test_extreme_weight_scales_certify(self, name, degree, scale):
        # free2 takes the dense vector, square4 at degree 7 the sparse one.
        # At 1e141 an inverse-iteration vector left unscaled overflows
        # v.(Bv) or underflows v.v; at 1e-150 B must be scaled up before
        # either vector is solved for, or v.v underflows and the norm reads 0.
        graph = _load_context(name)
        ball = enumerate_ball(graph, degree)
        weights = {x: scale * (1 + 0.1 * i) for i, x in enumerate(graph.generator_words())}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = norm_estimate(graph, weights, ball)
        assert val <= dense_norm(graph, weights, ball) <= val * (1 + 1e-9)

    def test_uncertified_norm_raises(self, b3):
        ball = enumerate_ball(b3, 6)
        weights = {nw(b3, ("v", "s")): 0.5, nw(b3, ("v", "t")): 0.5}
        # a zero tolerance is below the bracket's rounding allowance
        with pytest.raises(NormNotCertified, match="the least the norm bracket"):
            norm_estimate(b3, weights, ball, tol=0.0)

    def test_weight_support_outside_the_ball(self, free2, b3, monkeypatch):
        # too high a degree, or not positive (s t^-1 has degree 0)
        calls = count_multiplies(monkeypatch)
        s_over_t = b3.reduce([b3.syllable("v", b3.ops["v"].element("s", "t"))])
        for graph, x in ((free2, nw(free2, ("a", 4))), (free2, nw(free2, ("a", -1))),
                         (b3, s_over_t)):
            with pytest.raises(ValueError, match="weight support must lie inside the ball"):
                norm_estimate(graph, {x: 1.0}, enumerate_ball(graph, 3))
        assert not calls

    def test_input_validation(self, free2):
        ball = enumerate_ball(free2, 3)
        with pytest.raises(ValueError):
            norm_estimate(free2, {}, ball)
        with pytest.raises(ValueError):
            norm_estimate(free2, {nw(free2, ("a", 1)): -1.0}, ball)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                norm_estimate(free2, {nw(free2, ("a", 1)): bad}, ball)
        with pytest.raises(ValueError):
            norm_estimate(free2, {nw(free2, ("a", 9)): 1.0}, ball)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                norm_estimate(free2, {nw(free2, ("a", 1)): 1.0}, ball, tol=tol)
        # finite weights whose squares overflow: A^T A is not finite
        for big in ({"a": 1e308, "b": 1e308}, {"a": 1e200, "b": 1.0}):
            weights = {nw(free2, (label, 1)): lam for label, lam in big.items()}
            with pytest.raises(ValueError, match="overflows the float range"):
                norm_estimate(free2, weights, ball)
        with pytest.raises(ValueError):
            norm_curve(free2, {"zz": 1.0}, [2])
        with pytest.raises(ValueError):
            norm_curve(free2, {"a": 1.0}, [3, 2])
        with pytest.raises(ValueError, match=">= 0"):
            norm_curve(free2, {"a": 1.0}, [-1, 2])
        # generator weights have degree 1, so a curve from degree 0 misses them
        for degrees in ([0], [0, 1, 2]):
            with pytest.raises(ValueError, match="inside the ball"):
                norm_curve(free2, {"a": 1.0}, degrees)

    @pytest.mark.parametrize("weights,degrees,tol,match", [
        ({"a": 1.0}, [0, 30], 1e-9, "inside the ball"),
        ({"a": 1.0}, [1, 30], math.nan, "must be finite"),
        ({}, [1, 30], 1e-9, "norm_curve needs a nonempty weight function"),
        ({"a": -1.0}, [1, 30], 1e-9, "finite and nonnegative"),
        ({"a": math.nan}, [1, 30], 1e-9, "finite and nonnegative"),
    ], ids=["degree-0", "nan-tolerance", "no-weights", "negative-weight", "nan-weight"])
    def test_curve_validates_before_enumerating(self, path3, weights, degrees, tol, match):
        # the ball of degree 30 is far past the size cap, so each of these
        # must be rejected before the ball is enumerated
        with pytest.raises(ValueError, match=match):
            norm_curve(path3, weights, degrees, tol=tol, size_cap=1000)

    def test_curve_solves_each_block_size_once(self, b3, monkeypatch):
        # one stacked eigvalsh per block size of the largest ball's B,
        # however many degrees the curve reads off it
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        norm_curve(b3, {"s": 0.5, "t": 0.5}, range(1, 9))
        b = nonzero_gram(b3, enumerate_ball(b3, 8), {x: 0.5 for x in b3.generator_words()})
        sizes = np.unique(np.bincount(_component_labels(b)))
        assert len(calls) <= len(sizes) == 5

    def test_curve_mixes_dense_and_sparse_layers(self, path3, monkeypatch):
        # with unit weights the layers of path3 below degree 8 have blocks
        # of 2^(d+1) - 1 rows: layers 6 and 7 (127 and 255) take the sparse
        # vector, one factorisation each, and the lower ones the dense one
        big = enumerate_ball(path3, 8)
        b = nonzero_gram(path3, big, {x: 1.0 for x in path3.generator_words()})
        assert np.unique(np.bincount(_component_labels(b))).tolist() == [
            1, 3, 7, 15, 31, 63, 127, 255]
        layer_rows = np.bincount([x.degree for x in big.elements])[6:8].tolist()
        sizes = []
        sparse_vector = toeplitz._sparse_vector
        monkeypatch.setattr(toeplitz, "_sparse_vector",
                            lambda b: sizes.append(b.shape[0]) or sparse_vector(b))
        check_curve_rows(path3, {"a": 1.0, "b": 1.0, "c": 1.0}, range(1, 9))
        assert sizes == layer_rows

    def test_each_layer_certifies_under_its_own_shift(self):
        # blocks of one size recur in several layers with different top
        # eigenvalues; shifted by the largest of them, a lower layer's
        # block gets an upper end above its own top, and its degree fails
        check_curve_rows(_load_context("b4"), {"s": 0.8, "t": 0.5, "u": 0.6}, range(1, 7))

    def test_each_degree_reads_every_layer_below_it(self):
        # a layer below the newest one may hold the top eigenvalue: A is
        # diag(2, 1), as two one-entry terms of weights 2 and 1
        one, two = np.array([0]), np.array([1])
        terms = [(one, one, 2.0), (two, two, 1.0)]
        lower, upper = _certified_norms(terms, np.array([0, 1]), [1, 2], 1e-9)
        assert lower == pytest.approx([2.0, 2.0], rel=1e-12)
        assert upper == pytest.approx([2.0, 2.0], rel=1e-12)

    def test_square4_curve_certifies_up_to_the_size_cap(self):
        # square4 at degree 12 (98,305 elements, under the default cap) has
        # a layer that spilu fills past its cap; the Ritz vector closes it.
        # 0.7019511765976546 was certified on the whole B, not by layers.
        graph = _load_context("square4")
        rows = norm_curve(graph, {k: 0.25 for k in graph.generator_labels()}, range(1, 13))
        assert rows[-1][:2] == (12, 98305)
        assert rows[-1][2] == pytest.approx(0.7019511765976546, abs=1e-9)

    def test_b3_closed_form(self, b3):
        # the dense-SVD norms of (T_s + T_t)/2 follow
        # cos(pi / (2 (n - floor((n - 2) / 3)))) for n = 2..12
        tol = 1e-10
        rows = norm_curve(b3, {"s": 0.5, "t": 0.5}, range(2, 13), tol=tol)
        assert [n for n, _, _ in rows] == list(range(2, 13))
        for n, _, val in rows:
            exact = math.cos(math.pi / (2 * (n - (n - 2) // 3)))
            assert val <= exact <= val + tol, n

    def test_near_degenerate_weights_certify(self, path3):
        # one dominant weight: power iteration converged at the rate
        # lambda_2 / lambda_1, close to 1, and ran out of steps
        by_label = {"a": 1.0, "b": 1e-6, "c": 1e-6}
        weights = {nw(path3, (label, 1)): lam for label, lam in by_label.items()}
        rows = norm_curve(path3, by_label, range(1, 9))
        for n, size, val in rows:
            ball = enumerate_ball(path3, n)
            assert size == len(ball)
            exact = dense_norm(path3, weights, ball)
            assert val <= exact <= val + 1e-9 * max(val, 1.0), n
