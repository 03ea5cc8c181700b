"""The benchmark's workloads: seeded inputs, timed operations and checks.

A workload turns its seed into a fixed batch of operations.  The runner
times the program's set-up (``setup``), then repeats the batch in rounds
(``round`` returns the round's contexts and operations), and finally
hands the first round's outputs to ``check``, which compares them with
brute-force oracles and with properties the algorithms must have.
"""

from __future__ import annotations

import functools
import importlib.resources
import inspect
import json
import math
import random
from collections import namedtuple
from pathlib import Path

from qlattice import io as qio
from qlattice import oracles, order, toeplitz
from qlattice.factors import INFINITY
from qlattice.graph import Syllable

CONTEXTS = Path(__file__).resolve().parent / "contexts"


def load_context(name):
    """A freshly built context: one of contexts/ here, else a shipped preset."""
    local = CONTEXTS / f"{name}.json"
    if local.is_file():
        return qio.load_graph(local)
    preset = importlib.resources.files("qlattice") / "presets" / f"{name}.json"
    return qio.graph_from_json(json.loads(preset.read_text()))


# ---------------------------------------------------------------------------
# Helpers shared by the checks
# ---------------------------------------------------------------------------

def _state(x):
    """A normal word as the oracles spell words: (vertex, element) pairs."""
    return tuple((s.vertex, s.element) for s in x.syllables)


def _is_positive(graph, x):
    return all(graph.ops[s.vertex].is_positive(s.element) for s in x.syllables)


def _artin_monoid(graph):
    """The monoid of a context with a single Artin vertex, else None."""
    if len(graph.vertices) == 1:
        ops = graph.ops[graph.vertices[0]]
        if ops.kind == "artin":
            return ops.monoid
    return None


def _letters(x):
    """The positive word of an element of a single-Artin-vertex context."""
    if not x.syllables:
        return ()
    element = x.syllables[0].element
    if element.den:
        raise ValueError(f"{element!r} is not positive")
    return element.num


def _oracle_leq(graph, x, z):
    """x <= z decided without the graph product's reduce."""
    monoid = _artin_monoid(graph)
    if monoid is not None:
        return oracles.bfs_left_divides(monoid, _letters(x), _letters(z))
    inverse = [
        Syllable(s.vertex, graph.ops[s.vertex].invert(s.element))
        for s in reversed(x.syllables)
    ]
    normal = oracles.bfs_normal_form(graph, inverse + list(z.syllables))
    return all(graph.ops[v].is_positive(e) for v, e in normal)


def _lub_against_ball(graph, u, v, computed, ball):
    """Check lub(u, v) on the candidates u.B and v.B for a small ball B.

    Every common upper bound z = u y with y in B has lub(u, v) = u y' for
    a divisor y' of y, which lies in B too; so the candidate set is
    closed enough for the ball oracle's reasoning.
    """
    candidates = {}
    for base in (u, v):
        for y in ball.elements:
            z = graph.multiply(base, y)
            candidates.setdefault(z.syllables, z)
    elements = list(candidates.values())
    index = {z.syllables: i for i, z in enumerate(elements)}
    bitsets = oracles.upper_bound_bitsets(graph, [u, v], elements, order.leq)
    ok, detail = oracles.check_lub_against_ball(
        graph, u, v, computed, bitsets, elements, index, order.leq
    )
    return None if ok else f"lub against the ball oracle: {detail}"


def _first_problem(checks):
    """Run (description, thunk) pairs; the first failing description."""
    for description, thunk in checks:
        try:
            ok = thunk()
        except Exception as exc:  # a check that raises has failed
            return f"{description}: {exc!r}"
        if not ok:
            return description
    return None


class Workload:
    """A fixed batch of operations, repeated in rounds by the runner."""

    #: Rounds every run makes, however short --seconds is.
    min_rounds = 3

    def setup(self):
        """The program's set-up before the first operation (timed)."""
        raise NotImplementedError

    def round(self):
        """(contexts, [(group, operation)]) for one round (not timed)."""
        raise NotImplementedError

    def check(self, outputs):
        """One problem description or None per operation of a round.

        Operations that raised come as None and are not checked again.
        """
        self.prepare_checks()
        return [None if out is None else self.check_one(i, out) for i, out in enumerate(outputs)]

    def prepare_checks(self):
        """Build what the checks share (fresh contexts, oracle balls)."""

    def check_one(self, index, output):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Lattice queries
# ---------------------------------------------------------------------------

QueryResult = namedtuple("QueryResult", "u v w lub x a b rgcd lub_general")


def positive_literal(rng, graph, syllables, artin_letters):
    """A positive word literal; consecutive syllables sit at distinct
    vertices, Z syllables have exponents 1-3."""
    out, previous = [], None
    for _ in range(syllables):
        vertex = rng.choice([v for v in graph.vertices if v != previous])
        previous = vertex
        ops = graph.ops[vertex]
        if ops.kind == "Z":
            out.append([vertex, rng.randint(1, 3)])
        else:
            gens = ops.monoid.generators
            out.append([vertex, "".join(rng.choice(gens) for _ in range(artin_letters))])
    return json.dumps(out)


def lattice_query(graph, u, v, w):
    """Parse three positive literals; lub, fraction, rgcd and general lub."""
    u = qio.parse_word(graph, u)
    v = qio.parse_word(graph, v)
    w = qio.parse_word(graph, w)
    join = order.lub(graph, u, v)
    x = graph.multiply(u, graph.invert(v))
    a, b = order.canonical_fraction(graph, x)
    c = order.rgcd(graph, u, v)
    return QueryResult(u, v, w, join, x, a, b, c, order.lub_general(graph, x, w))


class QueryWorkload(Workload):
    """Seeded lattice queries, a fixed number per context.

    A seeded sample of checked_per_context queries per context is checked
    for the properties of its outputs, and the first
    oracle_checked_per_context of those against the oracles as well.

    plan: (context, syllables per word, letters per Artin syllable,
    degree of the ball behind the lub oracle) per context.
    """

    plan = ()
    queries_per_context = 480
    checked_per_context = 100
    oracle_checked_per_context = 8

    def __init__(self, seed):
        rng = random.Random(seed)
        self.inputs = []
        self.checked, self.oracle_checked = set(), set()
        for context, syllables, letters, _ in self.plan:
            graph = load_context(context)
            first = len(self.inputs)
            for i in range(self.queries_per_context):
                literals = tuple(
                    positive_literal(rng, graph, syllables, letters) for _ in range(3)
                )
                self.inputs.append((context, literals))
            checked = rng.sample(range(first, len(self.inputs)), self.checked_per_context)
            self.checked.update(checked)
            self.oracle_checked.update(checked[:self.oracle_checked_per_context])

    def setup(self):
        self.graphs = {context: load_context(context) for context, *_ in self.plan}

    def round(self):
        # a fresh session per round, so caches start empty every round
        self.setup()
        ops = [
            (context, functools.partial(lattice_query, self.graphs[context], *literals))
            for context, literals in self.inputs
        ]
        return list(self.graphs.values()), ops

    def prepare_checks(self):
        self.check_graphs = {context: load_context(context) for context, *_ in self.plan}
        self.check_balls = {
            context: toeplitz.enumerate_ball(self.check_graphs[context], degree)
            for context, _, _, degree in self.plan
        }

    def check_one(self, index, r):
        if index not in self.checked:
            return None
        context, literals = self.inputs[index]
        graph = self.check_graphs[context]
        checks = self._property_checks(graph, r)
        if index in self.oracle_checked:
            checks += self._oracle_checks(graph, literals, r, self.check_balls[context])
        return _first_problem(checks)

    @staticmethod
    def _property_checks(graph, r):
        return [
            ("fraction parts are positive",
             lambda: _is_positive(graph, r.a) and _is_positive(graph, r.b)),
            ("a b^-1 = u v^-1",
             lambda: graph.equal(graph.multiply(r.a, graph.invert(r.b)), r.x)),
            ("rgcd(a, b) is trivial", lambda: order.rgcd(graph, r.a, r.b).is_identity),
            ("lub bounds u and v",
             lambda: r.lub is INFINITY
             or (order.leq(graph, r.u, r.lub) and order.leq(graph, r.v, r.lub))),
            ("general lub bounds x and w",
             lambda: r.lub_general is INFINITY
             or (order.leq(graph, r.x, r.lub_general)
                 and order.leq(graph, r.w, r.lub_general))),
        ]

    @staticmethod
    def _oracle_checks(graph, literals, r, ball):
        monoid = _artin_monoid(graph)
        if monoid is not None:
            def same(word, x):
                return oracles.rewrite_equal(monoid, word, _letters(x))
            checks = [
                (f"normal form of {lit} against relation rewriting",
                 lambda lit=lit, x=x: same(monoid.parse_word(json.loads(lit)[0][1]), x))
                for lit, x in zip(literals, (r.u, r.v, r.w))
            ]
            checks += [
                ("a rgcd = u against relation rewriting",
                 lambda: same(_letters(r.a) + _letters(r.rgcd), r.u)),
                ("b rgcd = v against relation rewriting",
                 lambda: same(_letters(r.b) + _letters(r.rgcd), r.v)),
            ]
        else:
            def literal_syllables(lit):
                out = []
                for vertex, raw in json.loads(lit):
                    ops = graph.ops[vertex]
                    element = raw if ops.kind == "Z" else ops.element(ops.monoid.parse_word(raw))
                    out.append(Syllable(vertex, element))
                return out

            def bfs(syllables):
                return oracles.bfs_normal_form(graph, syllables)

            checks = [
                (f"normal form of {lit} against the shuffle BFS",
                 lambda lit=lit, x=x: bfs(literal_syllables(lit)) == _state(x))
                for lit, x in zip(literals, (r.u, r.v, r.w))
            ]
            checks += [
                ("a rgcd = u against the shuffle BFS",
                 lambda: bfs(list(r.a.syllables) + list(r.rgcd.syllables)) == _state(r.u)),
                ("b rgcd = v against the shuffle BFS",
                 lambda: bfs(list(r.b.syllables) + list(r.rgcd.syllables)) == _state(r.v)),
            ]
        checks.append(
            ("lub against the ball oracle",
             lambda: _lub_against_ball(graph, r.u, r.v, r.lub, ball) is None)
        )
        return checks


class RaagQueries(QueryWorkload):
    plan = (
        ("free2", 6, 0, 3),
        ("path3", 10, 0, 2),
        ("square4", 9, 0, 2),
        ("hex6", 9, 0, 2),
    )


class BraidQueries(QueryWorkload):
    queries_per_context = 640
    plan = (
        ("b3", 1, 5, 4),
        ("b4", 1, 3, 3),
        ("b3zz", 5, 3, 3),
    )


# ---------------------------------------------------------------------------
# Covariance scans
# ---------------------------------------------------------------------------

def covariance(graph, x, y, ball):
    return toeplitz.covariance_check(graph, x, y, ball)


class CovarianceScan(Workload):
    """covariance_check on seeded pairs from fixed degree-4 balls.

    The contexts and balls are those of acceptance criterion 5, built once
    in set-up and shared by every round, as one session shares them.  The
    pairs are stratified: pairs_per_class pairs for each pair of degrees
    (dx, dy) in 1..4, each element drawn uniformly from its degree.
    """

    plan = (("free2", 4), ("path3", 4), ("b3", 4))
    pairs_per_class = 8
    oracle_pairs_per_context = 10
    oracle_points_per_pair = 10

    def __init__(self, seed):
        rng = random.Random(seed)
        # (context, dx, dy, fx, fy): fx picks among the ball's elements of
        # degree dx, as a fraction of their number (the balls come from set-up)
        self.pairs = []
        self.sampled = {}
        for context, degree in self.plan:
            first = len(self.pairs)
            self.pairs += [
                (context, dx, dy, rng.random(), rng.random())
                for dx in range(1, degree + 1)
                for dy in range(1, degree + 1)
                for _ in range(self.pairs_per_class)
            ]
            for i in rng.sample(range(first, len(self.pairs)), self.oracle_pairs_per_context):
                self.sampled[i] = rng.randrange(1 << 30)

    def setup(self):
        self.graphs = {context: load_context(context) for context, _ in self.plan}
        self.balls = {
            context: toeplitz.enumerate_ball(self.graphs[context], degree)
            for context, degree in self.plan
        }

    def _pair(self, context, dx, dy, fx, fy):
        elements = self.balls[context].elements

        def pick(degree, fraction):
            layer = [z for z in elements if z.degree == degree]
            return layer[int(fraction * len(layer))]

        return pick(dx, fx), pick(dy, fy)

    def round(self):
        ops = []
        for context, dx, dy, fx, fy in self.pairs:
            x, y = self._pair(context, dx, dy, fx, fy)
            graph, ball = self.graphs[context], self.balls[context]
            ops.append((context, functools.partial(covariance, graph, x, y, ball)))
        return list(self.graphs.values()), ops

    def check_one(self, index, report):
        if not report.ok or report.mismatches:
            return f"covariance fails at {report.mismatches[:3]}"
        if index not in self.sampled:
            return None
        return _first_problem([
            ("the oracles decide the covariance condition alike",
             lambda: self._oracle_decisions(index, report)),
        ])

    def _oracle_decisions(self, index, report):
        """Recompute the covariance condition at sampled z with the oracles."""
        context = self.pairs[index][0]
        graph, ball = self.graphs[context], self.balls[context]
        x, y = self._pair(*self.pairs[index])
        rng = random.Random(self.sampled[index])
        for z in rng.sample(ball.elements, min(self.oracle_points_per_pair, len(ball))):
            lhs = _oracle_leq(graph, x, z) and _oracle_leq(graph, y, z)
            rhs = report.lub is not INFINITY and _oracle_leq(graph, report.lub, z)
            if lhs != rhs:
                return False
        return True


# ---------------------------------------------------------------------------
# Certified norm curves
# ---------------------------------------------------------------------------

def curve(graph, weights, max_degree):
    return toeplitz.norm_curve(graph, weights, range(1, max_degree + 1))


class NormCurves(Workload):
    """norm_curve calls over degrees 1..n with uniform weights.

    plan: (preset, n, calls per batch).  Each call gets its own seeded
    total weight in [0.8, 1] and a freshly loaded context, as one
    `qlattice norm-curve` invocation does.  The seed also fixes the order
    of the calls.  b4 keeps degree 7, where operator assembly outweighs
    the solve, and makes only two calls: each costs as much as ten of the
    others.  The presets' costs rise in plan order, and the call counts
    put p50 in the middle of the square4 calls and p75 in the middle of
    the b3 calls, away from the jump between two presets.
    """

    plan = (
        ("path3", 5, 7), ("free2", 7, 6), ("square4", 5, 12), ("b3", 8, 13), ("b4", 7, 2),
    )
    #: Largest ball checked against a dense SVD.
    dense_cap = 800

    def __init__(self, seed):
        rng = random.Random(seed)
        self.calls = [
            (context, degree, rng.uniform(0.8, 1.0))
            for context, degree, calls in self.plan
            for _ in range(calls)
        ]
        rng.shuffle(self.calls)
        self.tol = inspect.signature(toeplitz.norm_curve).parameters["tol"].default
        self._dense = {}

    def setup(self):
        self.graphs = {context: load_context(context) for context, *_ in self.plan}

    @staticmethod
    def _weights(graph, total):
        labels = sorted(graph.generator_labels())
        return {label: total / len(labels) for label in labels}

    def round(self):
        ops, graphs = [], []
        for context, degree, total in self.calls:
            graph = load_context(context)
            graphs.append(graph)
            weights = self._weights(graph, total)
            ops.append((context, functools.partial(curve, graph, weights, degree)))
        return graphs, ops

    def check_one(self, index, rows):
        return _first_problem(self._curve_checks(*self.calls[index], rows))

    def _dense_unit_norm(self, context, degree):
        """Dense-SVD norm of the sum of the generators (all weights 1)."""
        if (context, degree) not in self._dense:
            graph = load_context(context)
            ball = toeplitz.enumerate_ball(graph, degree)
            unit = {g: 1.0 for g in graph.generator_words()}
            self._dense[context, degree] = (
                oracles.dense_norm(graph, unit, ball) if len(ball) <= self.dense_cap else None
            )
        return self._dense[context, degree]

    def _curve_checks(self, context, degree, total, rows):
        values = [value for _, _, value in rows]
        checks = [
            ("degrees 1..n", lambda: [d for d, _, _ in rows] == list(range(1, degree + 1))),
            ("nondecreasing", lambda: all(a <= b for a, b in zip(values, values[1:]))),
        ]
        if context == "free2":
            # orthogonal ranges: the norm is sqrt(w_a^2 + w_b^2) at every degree
            exact = math.hypot(total / 2, total / 2)
            checks += [
                (f"free2 ball of degree {d} has 2^(d+1) - 1 elements",
                 lambda d=d, size=size: size == 2 ** (d + 1) - 1)
                for d, size, _ in rows
            ]
            checks += [
                (f"free2 value within tol below sqrt(w_a^2 + w_b^2) at degree {d}",
                 lambda value=value: self._certified(value, exact))
                for d, _, value in rows
            ]
        # uniform weights w scale the unit-weight operator, and its norm, by w
        weight = total / len(self.graphs[context].generator_labels())
        checks += [
            (f"value within tol below the dense SVD at degree {d}",
             lambda d=d, value=value: self._dense_unit_norm(context, d) is None
             or self._certified(value, weight * self._dense_unit_norm(context, d)))
            for d, _, value in rows
        ]
        return checks

    def _certified(self, value, exact):
        """exact lies in [value, value + tol max(value, 1)], up to rounding."""
        rounding = 1e-12 * max(exact, 1.0)
        return value <= exact + rounding and exact - value <= self.tol * max(value, 1.0) + rounding


WORKLOADS = {
    "raag_queries": RaagQueries,
    "braid_queries": BraidQueries,
    "norm_curves": NormCurves,
    "covariance_scan": CovarianceScan,
}
