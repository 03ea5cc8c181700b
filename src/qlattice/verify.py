"""Sampled property suite for a given context, behind the `verify` command.

Each check pits one of the implemented algorithms against a brute-force
oracle or a stated invariant on randomly sampled inputs.  Sizes are small
by default; they are meant to be a fast smoke screen, not the full
acceptance run.
"""

from __future__ import annotations

import random

from . import oracles
from .factors import INFINITY
from .graph import BALL_SIZE_CAP, Syllable
from .order import (
    canonical_fraction,
    leq,
    leq_r,
    lub,
    phi,
    phi_lub,
    rgcd,
    NotInPPInvError,
)
from .toeplitz import covariance_check, defect_product_diag, enumerate_ball


def _random_element(rng, ops, positive):
    if ops.kind == "Z":
        return rng.choice([1, 2] if positive else [-2, -1, 1, 2])
    gens = ops.monoid.generators
    word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
    if positive or rng.random() < 0.5:
        return ops.element(word)
    den = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
    elem = ops.element(word, den)
    if ops.is_identity(elem):
        elem = ops.element(word)
    return elem


def random_syllables(graph, rng, max_len=6, positive=False):
    out = []
    for _ in range(rng.randint(0, max_len)):
        vertex = rng.choice(graph.vertices)
        out.append(Syllable(vertex, _random_element(rng, graph.ops[vertex], positive)))
    return out


def check_normal_forms(graph, rng, samples):
    """reduce() against the shuffle/amalgamation BFS oracle."""
    for _ in range(samples):
        sylls = random_syllables(graph, rng)
        got = graph.reduce(sylls)
        want = oracles.bfs_normal_form(graph, sylls)
        if tuple((s.vertex, s.element) for s in got.syllables) != want:
            return False, f"normal form mismatch on {sylls}"
        delta = graph.initial_vertices(got)
        for a in delta:
            for b in delta:
                if a != b and not graph.adjacent(a, b):
                    return False, f"initial vertices of {got} not pairwise adjacent"
    return True, None


def _pairs(rng, elements, samples):
    """``samples`` pairs drawn from elements, lazily: a check that stops
    early draws no more."""
    pool = list(elements)
    for _ in range(samples):
        yield rng.choice(pool), rng.choice(pool)


def check_lub_oracle(graph, rng, small, big, samples):
    """lub() against the common-upper-bound scan of an enumerated ball."""
    bitsets = oracles.product_upper_bitsets(graph, small.elements, big)
    for x, y in _pairs(rng, small.elements, samples):
        ok, detail = oracles.check_lub_against_ball(
            graph, x, y, lub(graph, x, y), bitsets, big.elements, big.index, leq
        )
        if not ok:
            return False, f"lub({x},{y}): {detail}"
    return True, None


def check_fractions(graph, rng, ball, samples):
    """Canonical fraction minimality, rgcd, and pair uniqueness."""
    for u, v in _pairs(rng, ball.elements, samples):
        x = graph.multiply(u, graph.invert(v))
        a, b = canonical_fraction(graph, x)
        if not graph.equal(graph.multiply(a, graph.invert(b)), x):
            return False, f"fraction of {x} does not multiply back"
        if not (leq(graph, a, u) and leq(graph, b, v)):
            return False, f"fraction of {x} not minimal under ({u},{v})"
        if not rgcd(graph, a, b).is_identity:
            return False, f"fraction of {x} has a common right divisor"
        a2, b2 = canonical_fraction(graph, graph.multiply(a, graph.invert(b)))
        if a2.syllables != a.syllables or b2.syllables != b.syllables:
            return False, f"re-factorizing the fraction of {x} changed it"
        e = graph.multiply(graph.invert(a), u)
        if not graph.equal(e, rgcd(graph, u, v)):
            return False, f"rgcd({u},{v}) disagrees with a^-1 u"
        if not (leq_r(graph, e, u) and leq_r(graph, e, v)):
            return False, f"rgcd({u},{v}) is not a right lower bound"
    return True, None


def check_phi(graph, rng, ball, samples):
    """Injectivity on bounded pairs and compatibility with lubs."""
    for x, y in _pairs(rng, ball.elements, samples):
        join = lub(graph, x, y)
        if join is INFINITY:
            continue
        lhs = phi(graph, join)
        rhs = phi_lub(graph, phi(graph, x), phi(graph, y))
        if lhs != rhs:
            return False, f"phi(lub) mismatch at ({x},{y})"
        if phi(graph, x) == phi(graph, y) and x.syllables != y.syllables:
            return False, f"phi not injective at bounded pair ({x},{y})"
    return True, None


def check_covariance(graph, rng, ball, samples):
    for x, y in _pairs(rng, ball.elements, samples):
        report = covariance_check(graph, x, y, ball)
        if not report.ok:
            return False, f"covariance fails at ({x},{y}): {report.mismatches[:3]}"
    return True, None


def check_defect(graph, ball):
    diag = defect_product_diag(graph, graph.generator_words(), ball)
    if diag[0] != 1:
        return False, "defect projection vanishes at the identity vector"
    return True, None


def run_verification(graph, seed=0, samples=50, degree=3, size_cap=BALL_SIZE_CAP):
    """Run every check; each ball is enumerated under ``size_cap``.  The
    lub oracle scans the ball of degree min(2 degree, degree + 3)."""
    rng = random.Random(seed)
    ball = enumerate_ball(graph, degree, size_cap=size_cap)
    cap = min(2 * degree, degree + 3)
    checks = {
        "normal_forms": lambda: check_normal_forms(graph, rng, samples),
        "lub_oracle": lambda: check_lub_oracle(
            graph, rng, ball, enumerate_ball(graph, cap, size_cap=size_cap), samples),
        "canonical_fractions": lambda: check_fractions(graph, rng, ball, samples),
        "phi": lambda: check_phi(graph, rng, ball, samples),
        "covariance": lambda: check_covariance(graph, rng, ball, samples),
        "defect": lambda: check_defect(graph, ball),
    }
    report = {}
    for name, run in checks.items():
        try:
            ok, detail = run()
        except NotInPPInvError as exc:
            ok, detail = False, str(exc)
        entry = {"ok": ok}
        if detail:
            entry["detail"] = detail
        report[name] = entry
    report["ok"] = all(entry["ok"] for entry in report.values())
    return report
