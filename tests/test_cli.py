"""End-to-end tests of the command line interface."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

import qlattice
from qlattice.cli import _load_context, build_parser, main
from qlattice.oracles import dense_norm
from qlattice.toeplitz import enumerate_ball


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return _run


def lanczos_norm(graph, weights, ball):
    """Top singular value of the compressed sum lambda_x T_x, by Lanczos.

    The sparse operator is assembled from ``graph.multiply`` and the
    ball's element index, without the ball's multiplication table.
    """
    entries = [(ball.index.get(graph.multiply(x, y).syllables), j, lam)
               for j, y in enumerate(ball.elements) for x, lam in weights.items()]
    rows, cols, vals = zip(*[e for e in entries if e[0] is not None])
    a = sp.csr_matrix((vals, (rows, cols)), shape=(len(ball),) * 2)
    return float(np.sqrt(eigsh(a.T @ a, k=1, which="LA", return_eigenvectors=False)[0]))


def run_json(run, *argv):
    code, out = run(*argv)
    return code, json.loads(out)


PATH3_B_A = json.dumps([["b", 1], ["a", 1]])


class TestBasics:
    def test_nf(self, run):
        code, doc = run_json(run, "nf", "--ctx", "path3", PATH3_B_A)
        assert code == 0
        assert doc == {"ok": True, "result": [["a", 1], ["b", 1]]}

    def test_eq(self, run):
        code, doc = run_json(
            run, "eq", "--ctx", "path3", PATH3_B_A, json.dumps([["a", 1], ["b", 1]])
        )
        assert code == 0 and doc["result"] is True

    def test_len(self, run):
        code, doc = run_json(run, "len", "--ctx", "b3", json.dumps([["v", "sts"]]))
        assert code == 0 and doc["result"] == 1

    def test_input_from_file(self, run, tmp_path):
        words = tmp_path / "words.json"
        words.write_text(json.dumps([[["a", 1], ["b", 1]]]))
        code, doc = run_json(run, "nf", "--ctx", "path3", "--in", str(words))
        assert code == 0 and doc["result"] == [["a", 1], ["b", 1]]

    def test_output_to_file(self, run, tmp_path):
        out = tmp_path / "result.json"
        code, _ = run(
            "nf", "--ctx", "path3", "--out", str(out), PATH3_B_A
        )
        assert code == 0
        assert json.loads(out.read_text())["result"] == [["a", 1], ["b", 1]]

    def test_context_file_path(self, run, tmp_path):
        ctx = tmp_path / "g.json"
        ctx.write_text(json.dumps({
            "vertices": [{"name": "x", "factor": "Z"}], "edges": [],
        }))
        code, doc = run_json(run, "nf", "--ctx", str(ctx), json.dumps([["x", 3]]))
        assert code == 0 and doc["result"] == [["x", 3]]


class TestLatticeCommands:
    def test_lub_finite(self, run):
        code, doc = run_json(
            run, "lub", "--ctx", "b3",
            json.dumps([["v", "s"]]), json.dumps([["v", "t"]]),
        )
        assert code == 0 and doc["result"] == [["v", "sts"]]

    def test_lub_infinite(self, run):
        code, doc = run_json(
            run, "lub", "--ctx", "free2",
            json.dumps([["a", 1]]), json.dumps([["b", 1]]),
        )
        assert code == 0 and doc["result"] == "infinity"

    def test_rgcd(self, run):
        code, doc = run_json(
            run, "rgcd", "--ctx", "b3",
            json.dumps([["v", "st"]]), json.dumps([["v", "t"]]),
        )
        assert code == 0 and doc["result"] == [["v", "t"]]

    def test_rgcd_rejects_negatives(self, run):
        code, doc = run_json(
            run, "rgcd", "--ctx", "path3",
            json.dumps([["a", -1]]), json.dumps([["a", 1]]),
        )
        assert code == 1 and doc["ok"] is False

    def test_fraction(self, run):
        code, doc = run_json(
            run, "fraction", "--ctx", "b3",
            json.dumps([["v", {"num": "s", "den": "t"}]]),
        )
        assert code == 0
        assert doc["result"] == {"a": [["v", "s"]], "b": [["v", "t"]]}

    def test_nf_prints_a_fraction_syllable(self, run):
        code, out = run("nf", "--ctx", "b3", json.dumps([["v", {"num": "s", "den": "t"}]]))
        assert code == 0
        assert out == '{"ok": true, "result": [["v", {"den": "t", "num": "s"}]]}\n'

    def test_fraction_outside_ppinv(self, run):
        code, doc = run_json(
            run, "fraction", "--ctx", "free2",
            json.dumps([["a", -1], ["b", 1]]),
        )
        assert code == 1 and doc["ok"] is False

    def test_phi(self, run):
        code, doc = run_json(
            run, "phi", "--ctx", "path3",
            json.dumps([["a", 1], ["c", 1], ["a", 2]]),
        )
        assert code == 0 and doc["result"] == {"a": 3, "c": 1}


class TestAnalysisCommands:
    def test_ball(self, run):
        code, doc = run_json(run, "ball", "--ctx", "b3", "--max-degree", "2")
        assert code == 0
        assert doc["result"]["size"] == 7
        assert doc["result"]["elements"][0] == []

    def test_ball_reports_its_layer_sizes(self, run):
        # degree 3 of b3 holds sts = tst once, so 8 - 1 elements
        code, doc = run_json(run, "ball", "--ctx", "b3", "--max-degree", "3")
        assert code == 0 and doc["result"]["layer_sizes"] == [1, 2, 4, 7]
        code, doc = run_json(run, "ball", "--ctx", "square4", "--max-degree", "0")
        assert code == 0 and doc["result"]["layer_sizes"] == [1]

    def test_cov_check(self, run):
        code, doc = run_json(
            run, "cov-check", "--ctx", "path3",
            json.dumps([["a", 1]]), json.dumps([["b", 1]]),
        )
        assert code == 0 and doc["result"]["ok"] is True
        assert doc["result"]["lub"] == [["a", 1], ["b", 1]]

    def test_defect(self, run):
        code, doc = run_json(run, "defect", "--ctx", "path3", "--max-degree", "3")
        assert code == 0
        assert doc["result"] == {"nonzero": True, "delta1": 1, "support_size": 1}

    def test_defect_of_given_words(self, run):
        # on path3's ball of degree 2, e, b and bb lie above neither a nor c
        code, doc = run_json(run, "defect", "--ctx", "path3", "--max-degree", "2",
                             json.dumps([["a", 1]]), json.dumps([["c", 1]]))
        assert code == 0
        assert doc["result"] == {"nonzero": True, "delta1": 1, "support_size": 3}

    def test_relcheck_toeplitz(self, run):
        code, doc = run_json(run, "relcheck", "--ctx", "b3")
        assert code == 0 and doc["result"]["ok"] is True

    def test_relcheck_with_representation(self, run, tmp_path):
        rep = tmp_path / "rep.json"
        # a pair of identical 1x1 "isometries" at non-adjacent vertices:
        # isometry holds, range orthogonality fails
        rep.write_text(json.dumps({"a": [[1.0]], "b": [[1.0]]}))
        code, doc = run_json(
            run, "relcheck", "--ctx", "free2", "--rep", str(rep)
        )
        assert code == 1
        assert doc["ok"] is False
        assert any(
            "orthogonal" in desc for desc, _ in doc["error"]["detail"]["violations"]
        )

    def test_norm_curve_csv(self, run):
        code, out = run(
            "norm-curve", "--ctx", "free2", "--max-degree", "3",
            "--weights", json.dumps({"a": 0.5, "b": 0.5}),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,ball_size,norm_estimate,norm_hi"
        assert len(lines) == 4
        degree, size, val, hi = lines[-1].split(",")
        assert (degree, size) == ("3", "15")
        assert abs(float(val) - 0.7071067811865476) < 1e-6
        assert abs(float(hi) - 0.7071067811865476) < 1e-6

    def test_norm_curve_csv_to_a_file(self, run, tmp_path):
        argv = ["norm-curve", "--ctx", "free2", "--max-degree", "3",
                "--weights", json.dumps({"a": 0.5, "b": 0.5})]
        _, csv = run(*argv)
        out = tmp_path / "curve.csv"
        assert run(*argv, "--out", str(out)) == (0, "")
        assert out.read_text() == csv

    @pytest.mark.parametrize("ctx,max_degree,weights,tol", [
        ("free2", 6, {"a": 0.5, "b": 0.5}, "1e-9"),
        ("path3", 6, {"a": 0.3, "b": 0.3, "c": 0.4}, "1e-6"),
        ("square4", 5, {"a": 1, "b": 2, "c": 3, "d": 4}, "1e-9"),
        ("b3", 9, {"s": 0.5, "t": 0.5}, "1e-11"),
        ("b4", 6, {"s": 0.8, "t": 0.5, "u": 0.6}, "1e-9"),
        ("b3", 5, {"s": 0.5, "t": 0.5}, "1e-13"),
    ])
    def test_norm_curve_csv_carries_the_bracket(self, run, ctx, max_degree, weights, tol):
        code, out = run("norm-curve", "--ctx", ctx, "--max-degree", str(max_degree),
                        "--weights", json.dumps(weights), "--tolerance", tol)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,ball_size,norm_estimate,norm_hi"
        lo, hi = zip(*((float(v) for v in line.split(",")[2:]) for line in lines[1:]))
        # each end is rounded outward to 12 decimals, which widens the
        # computed bracket by less than 2e-12: below 1e-12 that dominates
        for a, b in zip(lo, hi):
            assert a <= b and b - a <= float(tol) * max(a, 1.0) + 2e-12
        assert list(lo) == sorted(lo) and list(hi) == sorted(hi)

    def test_norm_curve_csv_brackets_the_b3_closed_form(self, run):
        # the exact norms of (T_s + T_t)/2 are cos(pi / (2 (n - floor((n - 2) / 3)))):
        # rounded to nearest, the printed ends missed them at 9 of 11 degrees
        code, out = run("norm-curve", "--ctx", "b3", "--max-degree", "12", "--tolerance",
                        "1e-10", "--weights", json.dumps({"s": 0.5, "t": 0.5}))
        assert code == 0
        for line in out.strip().splitlines()[2:]:
            n, _, lo, hi = line.split(",")
            exact = math.cos(math.pi / (2 * (int(n) - (int(n) - 2) // 3)))
            assert float(lo) <= exact <= float(hi), line

    def test_norm_curve_unequal_weights(self, run):
        # the power iterate is normalised per component, so the weakest
        # component no longer trips the underflow guard at degree 6
        code, out = run(
            "norm-curve", "--ctx", "path3", "--max-degree", "6",
            "--weights", json.dumps({"a": 0.3, "b": 0.3, "c": 0.4}),
        )
        assert code == 0
        # the ends are rounded outward: 0.78121102166(5) to nearest
        assert out.strip().splitlines()[-1] == "6,247,0.781211021664,0.781211021666"

    def test_norm_curve_near_degenerate_weights(self, run, path3):
        # one dominant weight: power iteration used to run out of steps at
        # degree 11 and lose the rows below with it.  Unit weights at
        # degree 11 have a block of 2,047 rows.  The dense oracle checks
        # the near-degenerate rows up to degree 9, Lanczos the others.
        near = {"a": 1, "b": 1e-6, "c": 1e-6}
        exact = {}
        for weights, max_degree in ((near, 10), (near, 11), (near, 12),
                                    ({"a": 1, "b": 1, "c": 1}, 11)):
            code, out = run("norm-curve", "--ctx", "path3", "--max-degree",
                            str(max_degree), "--weights", json.dumps(weights))
            assert code == 0
            lines = out.strip().splitlines()
            assert len(lines) == max_degree + 1
            by_word = {path3.reduce([path3.syllable(label, 1)]): lam
                       for label, lam in weights.items()}
            for line in lines[1:]:
                degree, size, val, hi = line.split(",")
                key = (json.dumps(weights), int(degree))
                if key not in exact:
                    ball = enumerate_ball(path3, int(degree))
                    dense = weights is near and ball.max_degree <= 9
                    oracle = dense_norm if dense else lanczos_norm
                    exact[key] = len(ball), oracle(path3, by_word, ball)
                want_size, norm = exact[key]
                assert int(size) == want_size
                # the value is printed to 12 decimals
                assert float(val) - 1e-12 <= norm <= float(val) + 1e-9 * max(norm, 1.0)
                assert norm <= float(hi) + 1e-12

    def test_norm_curve_rejects_an_unreachable_tolerance(self, run):
        code, doc = run_json(
            run, "norm-curve", "--ctx", "b3", "--max-degree", "4", "--tolerance", "0",
            "--weights", json.dumps({"s": 0.5, "t": 0.5}),
        )
        assert code == 1
        assert doc["error"]["kind"] == "NormNotCertified"
        assert "the least the norm bracket" in doc["error"]["detail"]

    def test_verify(self, run):
        code, doc = run_json(
            run, "verify", "--ctx", "path3", "--samples", "10", "--max-degree", "3"
        )
        assert code == 0 and doc["result"]["ok"] is True

    @pytest.mark.parametrize("cap", [20, 100])
    def test_verify_respects_max_ball(self, run, cap):
        # square4 balls of degree 3 and 6 hold 49 and 769 elements: a cap
        # of 20 stops the first ball verify enumerates, 100 the lub oracle's
        argv = ["--ctx", "square4", "--max-degree", "3", "--max-ball", str(cap)]
        for command in ("ball", "verify"):
            code, doc = run_json(run, command, *argv)
            if command == "ball" and cap == 100:
                assert code == 0
                continue
            assert code == 1 and doc["error"]["kind"] == "BallSizeExceeded"

    def test_verify_reports_a_failed_check(self, run, monkeypatch):
        # one broken function at a time, each caught by the check that reads
        # it, with the detail of the failure it makes
        from qlattice.order import NotInPPInvError, canonical_fraction
        from qlattice.toeplitz import CovarianceReport
        def longer(graph, x):  # both sides times a generator: still x, not minimal
            g = graph.generator_words()[0]
            return tuple(graph.multiply(p, g) for p in canonical_fraction(graph, x))

        calls = itertools.count()

        def every_other(graph, x):  # right for x, then longer for a b^-1
            return (longer if next(calls) % 2 else canonical_fraction)(graph, x)

        def not_a_fraction(graph, x):
            raise NotInPPInvError(f"{x} is not a fraction of positives")

        for name, broken, check, detail in [
            ("oracles.bfs_normal_form", lambda graph, sylls: None, "normal_forms",
             "normal form mismatch"),
            ("graph.CommutationGraph.initial_vertices", lambda graph, x: set(graph.vertices),
             "normal_forms", "not pairwise adjacent"),
            ("verify.lub", lambda graph, x, y: x, "lub_oracle", "lub("),
            ("verify.canonical_fraction", lambda graph, x: (graph.identity(),) * 2,
             "canonical_fractions", "does not multiply back"),
            ("verify.canonical_fraction", longer, "canonical_fractions", "not minimal"),
            ("verify.rgcd", lambda graph, u, v: u, "canonical_fractions", "common right divisor"),
            ("verify.canonical_fraction", every_other, "canonical_fractions", "re-factorizing"),
            ("verify.rgcd", lambda graph, u, v: graph.identity(), "canonical_fractions",
             "disagrees with a^-1 u"),
            ("verify.leq_r", lambda graph, x, y: False, "canonical_fractions",
             "not a right lower bound"),
            ("verify.phi_lub", lambda graph, xi, eta: {}, "phi", "phi(lub) mismatch"),
            ("verify.phi", lambda graph, x: {}, "phi", "phi not injective"),
            ("verify.covariance_check", lambda graph, x, y, ball: CovarianceReport(False, x, ()),
             "covariance", "covariance fails"),
            ("verify.defect_product_diag", lambda graph, elements, ball: [0], "defect",
             "vanishes at the identity"),
            ("verify.canonical_fraction", not_a_fraction, "canonical_fractions",
             "is not a fraction of positives"),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(f"qlattice.{name}", broken)
                code, doc = run_json(run, "verify", "--ctx", "free2", "--samples", "20")
            assert code == 1 and doc["error"]["kind"] == "verification-failure"
            assert doc["error"]["detail"]["ok"] is False
            assert doc["error"]["detail"][check]["ok"] is False, name
            assert detail in doc["error"]["detail"][check]["detail"], name


I2_100 = {"vertices": [{"name": "v", "factor": {"artin": {
    "generators": ["s", "t"], "m": [[1, 100], [100, 1]]}}}]}


def i2_quotient(k):
    """The literal of s^-k t^k at I2_100's vertex."""
    return json.dumps([["v", {"den": "s" * k}], ["v", "t" * k]])


class TestErrorHandling:
    def test_unknown_context(self, run):
        code, doc = run_json(run, "nf", "--ctx", "nope", "[]")
        assert code == 2 and doc["ok"] is False

    def test_malformed_word(self, run):
        code, doc = run_json(run, "nf", "--ctx", "path3", json.dumps([["a", "x"]]))
        assert code == 2 and doc["ok"] is False

    def test_malformed_json(self, run):
        code, doc = run_json(run, "nf", "--ctx", "path3", "[[")
        assert code == 2 and doc["ok"] is False

    def test_wrong_arity(self, run):
        code, doc = run_json(run, "lub", "--ctx", "path3", "[]")
        assert code == 2 and doc["ok"] is False

    def test_not_in_pp_inv_detail(self, run):
        code, doc = run_json(
            run, "fraction", "--ctx", "free2", json.dumps([["a", -1], ["b", 1]])
        )
        assert code == 1
        assert doc["error"] == {"kind": "NotInPPInvError", "detail": (
            "NormalWord(syllables=(Syllable(vertex='a', element=-1), "
            "Syllable(vertex='b', element=1)), degree=0) is not a fraction of positives"
        )}

    @pytest.mark.parametrize("argv, code, kind", [
        (["nf", "--ctx", "nope", "[]"], 2, "context"),
        (["nf", "--ctx", "path3", json.dumps([["a", "x"]])], 2, "parse"),
        (["nf", "--ctx", "INF", "[]"], 2, "parse"),
        (["nf", "--ctx", "path3", "[["], 2, "parse"),
        (["nf", "--ctx", "path3", "--in", "MISSING"], 2, "parse"),
        (["rgcd", "--ctx", "path3", json.dumps([["a", -1]]),
          json.dumps([["a", 1]])], 1, "not-positive"),
        (["relcheck", "--ctx", "free2", "--rep", "REP"], 1, "relation-violation"),
        (["fraction", "--ctx", "free2", json.dumps([["a", -1], ["b", 1]])],
         1, "NotInPPInvError"),
        (["ball", "--ctx", "b3", "--max-ball", "3"], 1, "BallSizeExceeded"),
        (["norm-curve", "--ctx", "b3", "--max-degree", "4", "--tolerance", "0",
          "--weights", json.dumps({"s": 0.5, "t": 0.5})], 1, "NormNotCertified"),
        (["relcheck", "--ctx", "free2", "--rep", "REP_ARRAY"], 2, "parse"),
        (["relcheck", "--ctx", "free2", "--rep", "REP_1D"], 2, "parse"),
        (["relcheck", "--ctx", "free2", "--rep", "REP_STR"], 2, "parse"),
        (["relcheck", "--ctx", "free2", "--rep", "REP_RAGGED"], 2, "parse"),
        (["relcheck", "--ctx", "b3", "--max-degree", "2"], 1, "ValueError"),
        (["relcheck", "--ctx", "free2", "--rep", "REP_EXTRA"], 2, "parse"),
        (["relcheck", "--ctx", "free2", "--rep", "REP_SCALED", "--tolerance", "nan"],
         2, "parse"),
        (["norm-curve", "--ctx", "b3", "--tolerance", "nan",
          "--weights", json.dumps({"s": 0.5, "t": 0.5})], 2, "parse"),
        (["norm-curve", "--ctx", "path3", "--weights", '{"a": NaN}'], 2, "parse"),
        (["norm-curve", "--ctx", "path3", "--weights", '{"a": Infinity}'], 2, "parse"),
        (["norm-curve", "--ctx", "path3", "--weights", '{"a": true}'], 2, "parse"),
        (["norm-curve", "--ctx", "path3", "--max-degree", "2",
          "--weights", json.dumps({"a": 1e308, "b": 1e308})], 1, "ValueError"),
        (["norm-curve", "--ctx", "path3", "--weights", '{"a": 1' + "0" * 400 + "}"],
         2, "parse"),
        (["nf", "--ctx", "b3", json.dumps([["v", "sx"]])], 2, "parse"),
        (["nf", "--ctx", "b3", json.dumps([["v", {"num": "s", "den": "q"}]])], 2, "parse"),
        (["nf", "--ctx", "b3", json.dumps([["v", {"num": 3}]])], 2, "parse"),
        (["relcheck", "--ctx", "free2", "--rep", "REP_NAN"], 2, "parse"),
        (["relcheck", "--ctx", "free2", "--rep", "REP_INF"], 2, "parse"),
        (["nf", "--ctx", "CTX_ARRAY", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_NO_FACTOR", "[]"], 2, "parse"),
        (["nf", "--ctx", "path3", json.dumps([["z", 1]])], 2, "parse"),
        (["nf", "--ctx", "path3", json.dumps({"a": 1})], 2, "parse"),
        (["nf", "--ctx", "path3", json.dumps([["a"]])], 2, "parse"),
        (["nf", "--ctx", "path3", json.dumps([["a", 0]])], 2, "parse"),
        (["norm-curve", "--ctx", "path3", "--weights", "{}"], 2, "parse"),
        (["norm-curve", "--ctx", "path3", "--weights", json.dumps({"z": 1})], 2, "parse"),
        (["nf", "--ctx", "path3", "--in", "IN_OBJECT"], 2, "parse"),
        (["cov-check", "--ctx", "path3", json.dumps([["a", -1]]), json.dumps([["b", 1]])],
         1, "not-positive"),
        (["lub", "--ctx", "b3", json.dumps([["v", "s" * 30]]), json.dumps([["v", "t" * 30]])],
         1, "NoCommonMultipleError"),
        (["nf", "--ctx", "CTX_EDGES_INT", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_VERTICES_INT", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_ARTIN_INT", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_NAME_LIST", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_GENERATOR_INT", json.dumps([["v", "s"]])], 2, "parse"),
        (["nf", "--ctx", "CTX_GENERATOR_EMPTY", json.dumps([["v", "s"]])], 2, "parse"),
        (["defect", "--ctx", "path3", json.dumps([["a", -1]])], 1, "not-positive"),
        (["norm-curve", "--ctx", "path3", "--max-degree", "-2",
          "--weights", json.dumps({"a": 1})], 2, "parse"),
        (["verify", "--ctx", "path3", "--samples", "-3"], 2, "parse"),
        (["ball", "--ctx", "path3", "--max-ball", "0"], 2, "parse"),
        (["ball", "--ctx", "path3", "--max-degree", "-1"], 2, "parse"),
        (["nf", "--ctx", "CTX_HUGE_ENTRY", json.dumps([["v", "s"]])], 2, "parse"),
        (["relcheck", "--ctx", "free2", "--rep", "REP", "--seed", "-1"], 2, "parse"),
        (["verify", "--ctx", "path3", "--seed", "-1"], 2, "parse"),
        (["defect", "--ctx", "square4", "--max-ball", "10", json.dumps([["zz", 1]])],
         2, "parse"),
        (["relcheck", "--ctx", "b3", "--max-ball", "1", "--rep", "MISSING"], 2, "parse"),
        (["nf", "--ctx", "path3", "--in", "IN_WORDS", json.dumps([["a", 1]])], 2, "parse"),
        (["defect", "--ctx", "path3", "--in", "IN_WORDS", json.dumps([["a", 1]])],
         2, "parse"),
        (["defect", "--ctx", "path3", "--in", "IN_EMPTY"], 1, "ValueError"),
        (["verify", "--ctx", "CTX_NO_VERTEX"], 2, "parse"),
        (["norm-curve", "--ctx", "path3", "--max-degree", str(10**18), "--max-ball", "5",
          "--weights", json.dumps({"a": 1})], 1, "BallSizeExceeded"),
        (["nf", "--ctx", "CTX_NAME_NULL", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_GENERATOR_PREFIX", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_ENTRY_FALSE", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_ENTRY_STR", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_NO_GENERATOR", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_GENERATOR_DUP", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_ENTRY_ONE", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_GENERATOR_LONG", "[]"], 2, "parse"),
        (["nf", "--ctx", "CTX_I2_100", i2_quotient(2)], 1, "NoCommonMultipleError"),
        (["nf", "--ctx", "path3", "[]", "--out", "OUT_MISSING"], 2, "parse"),
    ])
    def test_error_envelope(self, run, tmp_path, monkeypatch, argv, code, kind):
        # one case per error class: unknown context, LiteralError,
        # NotFiniteTypeError, JSONDecodeError, OSError, two DomainErrors,
        # NotInPPInvError, BallSizeExceeded and NormNotCertified; then
        # --rep files that are not a JSON object of square numeric matrices;
        # a ball too small to compare every relation; a --rep family with
        # a matrix for a label that is not a generator; a NaN tolerance
        # (which every residual comparison would pass); weights that are
        # NaN, infinite or a boolean; weights whose squares overflow; an
        # integer weight too large for a float; Artin literals with an
        # unknown letter or a non-string word; --rep entries NaN or infinite;
        # a context that is not an object, or has a vertex without a factor;
        # a word at an unknown vertex, not an array, with a one-element or a
        # trivial syllable; weights empty or at an unknown label; an --in
        # file that is not an array; cov-check on a word that is not positive;
        # a reversal past its step budget (made small here, so only the lub of
        # two 30-letter words reaches it); context files whose edges,
        # vertices, Artin spec, vertex name or Artin generator names have the
        # wrong JSON type, or an empty generator name; defect on a word that
        # is not positive; a negative degree or sample count, a size cap below 1;
        # a Coxeter entry above the cap; a negative seed; a malformed literal
        # or a missing --rep file with a size cap the ball would pass (inputs
        # are read first); word arguments beside --in; an empty --in family;
        # a context with no vertex; a norm curve to a degree far past its cap;
        # a vertex name that is not a string; then Artin contexts, with the
        # detail: names that longest match misreads, entries false, a string
        # and 1, no generators, duplicate names, a name over 64 characters, and
        # in I2(100) a 198-letter quotient, whose greedy division takes 12,375
        # reversing steps in all, though none of its reversals passes 200; an
        # --out file in a missing directory
        monkeypatch.setattr("qlattice.factors._REVERSING_STEP_CAP", 1000)
        inf = tmp_path / "inf.json"
        inf.write_text(json.dumps({"vertices": [{"name": "v", "factor": {
            "artin": {"generators": ["s", "t"], "m": [[1, "inf"], ["inf", 1]]},
        }}]}))
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"a": [[1.0]], "b": [[1.0]]}))
        paths = {"INF": inf, "REP": rep, "MISSING": tmp_path / "missing.json",
                 "OUT_MISSING": tmp_path / "missing" / "x.json"}
        files = {
            "CTX_ARRAY": [],
            "CTX_NO_FACTOR": {"vertices": [{"name": "a"}]},
            "CTX_NO_VERTEX": {"vertices": []},
            "CTX_NAME_NULL": {"vertices": [{"name": None, "factor": "Z"}]},
            "IN_OBJECT": {"words": [[["a", 1]]]},
            "IN_WORDS": [[["a", 1]]],
            "IN_EMPTY": [],
            "CTX_EDGES_INT": {"vertices": [{"name": "a", "factor": "Z"}], "edges": 5},
            "CTX_VERTICES_INT": {"vertices": 5},
            "CTX_ARTIN_INT": {"vertices": [{"name": "v", "factor": {"artin": 5}}]},
            "CTX_NAME_LIST": {"vertices": [{"name": ["a"], "factor": "Z"}]},
            **{f"CTX_GENERATOR_{name}": {"vertices": [{"name": "v", "factor": {"artin": {
                "generators": ["s", bad], "m": [[1, 3], [3, 1]]}}}]}
               for name, bad in (("INT", 1), ("EMPTY", ""), ("PREFIX", "ss"), ("DUP", "s"),
                                 ("LONG", "t" * 65))},
            **{f"CTX_ENTRY_{name}": {"vertices": [{"name": "v", "factor": {"artin": {
                "generators": ["s", "t"], "m": [[1, bad], [bad, 1]]}}}]}
               for name, bad in (("FALSE", False), ("STR", "x"), ("ONE", 1))},
            "CTX_NO_GENERATOR": {"vertices": [{"name": "v", "factor": {"artin": {
                "generators": [], "m": []}}}]},
            "CTX_HUGE_ENTRY": {"vertices": [{"name": "v", "factor": {"artin": {
                "generators": ["s", "t"], "m": [[1, 10**9], [10**9, 1]]}}}]},
            "CTX_I2_100": I2_100,
        }
        bad_reps = {
            "REP_ARRAY": [[1]],
            "REP_1D": {"a": [1, 0], "b": [0, 1]},
            "REP_STR": {"a": "x", "b": "y"},
            "REP_RAGGED": {"a": [[1, 0], [1]], "b": [[1, 0], [0, 1]]},
            "REP_EXTRA": {"a": [[1.0]], "b": [[1.0]], "c": [[1.0]]},
            "REP_SCALED": {"a": [[2, 0], [0, 2]], "b": [[1, 0], [0, 1]]},
            "REP_NAN": {"a": [[float("nan")]], "b": [[1.0]]},
            "REP_INF": {"a": [[float("inf")]], "b": [[1.0]]},
        }
        for name, content in {**bad_reps, **files}.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(content))
        details = {
            "CTX_GENERATOR_PREFIX": "Artin generator names 's' and 'ss' do not read back",
            "CTX_ENTRY_FALSE": "bad Coxeter matrix entry: False",
            "CTX_ENTRY_STR": "bad Coxeter matrix entry: 'x'",
            "CTX_NO_GENERATOR": "Artin factor needs at least one generator",
            "CTX_GENERATOR_DUP": "duplicate Artin generator names",
            "CTX_ENTRY_ONE": "off-diagonal Coxeter entries must be >= 2",
            "CTX_GENERATOR_LONG": "Artin generator names longer than 64 characters "
                                  "are not supported",
            "CTX_I2_100": "subword reversing passed its budget of 1000 steps",
            "OUT_MISSING": f"[Errno 2] No such file or directory: '{paths['OUT_MISSING']}'",
        }
        detail = next((details[arg] for arg in argv if arg in details), None)
        argv = [str(paths.get(arg, arg)) for arg in argv]
        got_code, doc = run_json(run, *argv)
        assert (got_code, doc["ok"], doc["error"]["kind"]) == (code, False, kind)
        assert set(doc["error"]) == {"kind", "detail"}
        assert detail in (None, doc["error"]["detail"])


class TestDivisionBudget:
    """nf of s^-k t^k in I2(100): a quotient of 99 k letters on each side,
    past the cone table, so its greedy division takes about 2,600 k^2
    reversing steps, all counted against one budget."""

    @pytest.fixture()
    def ctx(self, tmp_path):
        path = tmp_path / "i2.json"
        path.write_text(json.dumps(I2_100))
        return str(path)

    @pytest.mark.parametrize("k, digest", [
        (10, "c8f9c664eac872c95caaaa79045728449dcebbb617dbe419263031ade0a31a86"),
        (15, "58590010a3c12736f21c31c2a6b9d15208639f01f6958952809c042924b7cf98"),
    ])
    def test_a_quotient_within_the_budget_prints_as_before(self, run, ctx, k, digest):
        code, out = run("nf", "--ctx", ctx, i2_quotient(k))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)

    def test_a_long_word_with_one_reversal_prints_as_before(self, run):
        # t s^1500 in b3: one letter test on 1,501 letters, one reversal
        code, out = run("nf", "--ctx", "b3", json.dumps([["v", "t"], ["v", "s" * 1500]]))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, (
            "05c2de5322f2a33bad49b4f43b54097f65be6e55fdcf181c92b95931314c8d8b"))

    def test_a_quotient_past_the_budget_is_refused(self, run, ctx):
        # 1,980 letters: about 1.04 million steps in all, past 1,000,000
        code, doc = run_json(run, "nf", "--ctx", ctx, i2_quotient(20))
        assert (code, doc["error"]) == (1, {"kind": "NoCommonMultipleError", "detail":
                                            "subword reversing passed its budget of 1000000 steps"})


class TestPresets:
    @pytest.mark.parametrize("name", ["free2", "path3", "square4", "b3", "b4"])
    def test_all_presets_load(self, run, name):
        code, doc = run_json(run, "nf", "--ctx", name, "[]")
        assert code == 0 and doc["result"] == []


def loaded_after(code, modules=("numpy", "scipy")):
    """Whether each module is loaded after code runs in a new interpreter."""
    path = [str(Path(qlattice.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    report = f"print(json.dumps([m in sys.modules for m in {modules!r}]))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport json, sys\n{report}"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def commands(*argvs):
    """Code that runs each CLI command and asserts that it succeeds."""
    runs = "".join(f"assert main({argv!r}) == 0\n" for argv in argvs)
    return "from qlattice.cli import main\n" + runs


B3_ST, B3_TS = json.dumps([["v", "st"]]), json.dumps([["v", "ts"]])


#: The flags each subcommand reads, besides --ctx and --out, which all take.
WORDS, BALL = {"--in", "words"}, {"--max-degree", "--max-ball"}
FLAGS = {
    **dict.fromkeys(["nf", "eq", "len", "lub", "rgcd", "fraction", "phi"], WORDS),
    "ball": BALL,
    "cov-check": WORDS | BALL,
    "defect": WORDS | BALL,
    "relcheck": BALL | {"--tolerance", "--seed", "--rep"},
    "norm-curve": BALL | {"--tolerance", "--weights"},
    "verify": BALL | {"--seed", "--samples"},
}


#: A succeeding run of each subcommand.
SUCCEEDING = {
    "nf": ["--ctx", "path3", PATH3_B_A],
    "eq": ["--ctx", "path3", PATH3_B_A, PATH3_B_A],
    "len": ["--ctx", "b3", B3_ST],
    "lub": ["--ctx", "b3", B3_ST, B3_TS],
    "rgcd": ["--ctx", "b3", B3_ST, B3_TS],
    "fraction": ["--ctx", "path3", PATH3_B_A],
    "phi": ["--ctx", "path3", PATH3_B_A],
    "ball": ["--ctx", "path3", "--max-degree", "2"],
    "cov-check": ["--ctx", "b3", "--max-degree", "2", B3_ST, B3_TS],
    "defect": ["--ctx", "path3", "--max-degree", "2"],
    "relcheck": ["--ctx", "path3", "--max-degree", "3"],
    "norm-curve": ["--ctx", "free2", "--max-degree", "3", "--weights", '{"a": 0.5}'],
    "verify": ["--ctx", "path3", "--max-degree", "2", "--samples", "2"],
}


class TestOutFile:
    """--out is opened once a command has succeeded, inside the envelope."""

    @pytest.mark.parametrize("name", sorted(FLAGS))
    def test_an_out_file_that_cannot_be_opened_is_a_parse_error(self, capsys, tmp_path, name):
        out = tmp_path / "missing" / "x.json"
        assert in_process([name, *SUCCEEDING[name]])[0] == 0
        code, text = in_process([name, *SUCCEEDING[name], "--out", str(out)])
        doc = assert_one_envelope(code, text, False)
        assert (code, doc["error"]["kind"]) == (2, "parse")
        assert capsys.readouterr().err == "" and not out.parent.exists()


class TestParser:
    def test_each_subcommand_takes_only_the_flags_it_reads(self, capsys):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {a.option_strings[0] if a.option_strings else a.dest
                   for a in p._actions if not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()
        }
        assert got == {name: flags | {"--ctx", "--out"} for name, flags in FLAGS.items()}
        assert sum(map(len, got.values())) == 63
        # a flag the subcommand does not read is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["nf", "--ctx", "b3", "--max-ball", "1", "--seed", "4", B3_ST])
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


PRESETS = {path.stem: json.loads(path.read_text())
           for path in sorted((Path(qlattice.__file__).parent / "presets").glob("*.json"))}
#: Literals that are not words of any preset: not JSON, not an array, at an
#: unknown vertex, or with a syllable of the wrong shape.
MALFORMED = ["[[", "", "null", '"x"', "{}", "[1]", json.dumps([["zz", 1]]),
             json.dumps([["a"]]), json.dumps([["v", "sx"]]), json.dumps([["a", 1, 2]])]
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([10**9, 10**400]),
                 st.floats(), st.text(max_size=2), st.just([]), st.just({}))


def json_paths(doc, prefix=()):
    """The path of every value in a JSON document, the root first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from json_paths(value, prefix + (key,))


def mutate(data, doc):
    """doc with one value replaced by junk, deleted or repeated."""
    path = data.draw(st.sampled_from(list(json_paths(doc))[::-1]))  # the root last
    if not path:
        return data.draw(JUNK)
    *head, key = path
    parent = doc
    for k in head:
        parent = parent[k]
    action = data.draw(st.sampled_from(["junk", "delete", "repeat"]))
    if action == "junk":
        parent[key] = data.draw(JUNK)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(json.loads(json.dumps(parent[key])))
    else:
        parent[key] = [parent[key]] * 2
    return doc


def literals(graph):
    """Word literals of graph, as JSON values, and malformed ones, as the
    text of an argument."""
    def syllable(v):
        if graph.ops[v].kind == "Z":
            return st.tuples(st.just(v), st.integers(-3, 3)).map(list)
        letters = st.text(alphabet=graph.ops[v].monoid.generators, max_size=4)
        fraction = st.fixed_dictionaries({"num": letters, "den": letters})
        return st.tuples(st.just(v), st.one_of(letters, fraction)).map(list)

    word = st.lists(st.sampled_from(graph.vertices).flatmap(syllable), max_size=3)
    return st.one_of(word, st.sampled_from(MALFORMED))


def argument(literal):
    return literal if isinstance(literal, str) else json.dumps(literal)


def in_process(argv):
    """main's exit code and standard output; any exception escapes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def assert_one_envelope(code, text, ok):
    assert text.endswith("\n") and text.count("\n") == 1, text
    doc = json.loads(text)
    assert doc["ok"] is ok and (ok or set(doc["error"]) == {"kind", "detail"})
    return doc


#: The number of words each subcommand takes, where it is fixed.
COUNTS = {**dict.fromkeys(["nf", "len", "fraction", "phi"], 1),
          **dict.fromkeys(["eq", "lub", "rgcd", "cov-check"], 2)}
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    """main(argv) in-process on mutated presets, random flags and input
    files: every run ends in one exit code of the envelope, with its one
    JSON object (or the CSV of a norm-curve success) on standard output.
    The work flags, --max-ball and --samples, stay small, since they set
    the work asked for; --max-degree may be huge, and the size cap bounds it.
    An --out file now and then lies in a missing directory."""

    @FUZZ
    @given(data=st.data())
    def test_every_invocation_ends_in_the_envelope(self, data, tmp_path):
        command = data.draw(st.sampled_from(sorted(FLAGS)))
        name = data.draw(st.sampled_from(sorted(PRESETS)))
        graph = _load_context(name)
        labels = list(graph.generator_labels())
        doc = json.loads(json.dumps(PRESETS[name]))
        for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
            doc = mutate(data, doc)
        files = {"--ctx": doc}
        weights = st.dictionaries(st.sampled_from(labels), st.floats(0, 1), min_size=1)
        values = {
            "--max-degree": st.one_of(st.integers(-1, 6), st.sampled_from([10**6, 10**18])),
            "--max-ball": st.integers(-1, 60),
            "--samples": st.integers(-1, 3),
            "--seed": st.one_of(st.integers(-2, 3), st.just(10**30)),
            "--tolerance": st.one_of(st.sampled_from(["1e-9", "1e-6", "0.5", "1e308"]),
                                     st.sampled_from(["0", "-1", "nan", "inf", "-inf", "5e-324"])),
            "--weights": st.one_of(weights, st.dictionaries(
                st.sampled_from(labels + ["zz"]), st.one_of(st.floats(), JUNK)), JUNK,
            ).map(json.dumps),
        }
        argv = [command]
        for flag in sorted(FLAGS[command] & set(values)):
            if flag == "--weights" or data.draw(st.booleans()):
                argv.append(f"{flag}={data.draw(values[flag])}")
        if "--rep" in FLAGS[command] and data.draw(st.booleans()):
            row = st.lists(st.one_of(st.floats(), st.integers(-2, 2)), min_size=1, max_size=2)
            matrix = st.one_of(st.lists(row, min_size=1, max_size=2), JUNK)
            files["--rep"] = data.draw(st.one_of(st.dictionaries(
                st.sampled_from(labels + ["zz"]), matrix), JUNK))
        count = COUNTS.get(command)
        if count is None or data.draw(st.sampled_from(["right"] * 3 + ["any"])) == "any":
            count = data.draw(st.integers(0, 3))
        words = data.draw(st.lists(literals(graph), min_size=count, max_size=count))
        if "--in" in FLAGS[command] and data.draw(st.booleans()):
            files["--in"] = data.draw(st.one_of(st.just(words), JUNK))
            words = data.draw(st.sampled_from([[]] * 3 + [words]))  # now and then both
        for flag, content in files.items():
            path = tmp_path / f"{flag[2:]}.json"
            if data.draw(st.sampled_from(["write"] * 9 + ["missing"])) == "write":
                path.write_text(json.dumps(content))
            elif path.exists():
                path.unlink()  # a missing file
            argv.append(f"{flag}={path}")
        out = tmp_path / data.draw(st.sampled_from(["out.txt"] * 2 + ["missing/out.txt"]))
        out.unlink(missing_ok=True)
        if data.draw(st.booleans()):
            argv.append(f"--out={out}")
        if "words" in FLAGS[command]:
            argv += map(argument, words)
        code, text = in_process(argv)
        assert code in (0, 1, 2)
        assert code == 0 or not out.exists()  # a failure writes no file
        if code == 0 and out.exists():
            assert text == ""
            text = out.read_text()
        if code == 0 and command == "norm-curve":
            head, *rows = text.splitlines()
            assert head == "degree,ball_size,norm_estimate,norm_hi"
            assert all(float(lo) <= float(hi) for _, _, lo, hi in (r.split(",") for r in rows))
        else:
            assert_one_envelope(code, text, code == 0)

    @FUZZ
    @given(data=st.data())
    def test_malformed_inputs_exit_2_before_any_ball(self, data, tmp_path):
        # the inputs are read first, so the degree and the cap do not matter
        command = data.draw(st.sampled_from(["cov-check", "defect", "relcheck"]))
        name = data.draw(st.sampled_from(sorted(PRESETS)))
        labels = list(_load_context(name).generator_labels())
        argv = [command, f"--ctx={name}",
                f"--max-degree={data.draw(st.sampled_from([0, 1, 6, 12, 10**6, 10**18]))}",
                f"--max-ball={data.draw(st.sampled_from([1, 10, 1000]))}"]
        if command == "relcheck":
            rep = tmp_path / "rep.json"
            rep.unlink(missing_ok=True)
            bad = data.draw(st.sampled_from(["missing", [[1]], {"zz": [[1.0]]},
                                             dict.fromkeys(labels, [1.0, 0.0]),
                                             dict.fromkeys(labels, [[math.nan]])]))
            if bad != "missing":
                rep.write_text(json.dumps(bad))
            argv.append(f"--rep={rep}")
        else:
            word = json.dumps([["v", labels[0]] if name[0] == "b" else [labels[0], 1]])
            words = [word] * data.draw(st.integers(0, 2))
            words.insert(data.draw(st.integers(0, len(words))),
                         data.draw(st.sampled_from(MALFORMED)))
            argv += words
        code, text = in_process(argv)
        doc = assert_one_envelope(code, text, False)
        assert (code, doc["error"]["kind"]) == (2, "parse"), argv


#: What the lattice side never loads: the numeric libraries, and dataclasses
#: with the inspect it imports (about 30 % of the start-up of a lattice command).
LATTICE_UNLOADED = ("numpy", "scipy", "dataclasses", "inspect")


class TestStartup:
    def test_import_loads_no_numeric_library(self):
        assert loaded_after("import qlattice", LATTICE_UNLOADED) == [False] * 4

    def test_lattice_commands_load_no_numeric_library(self):
        ctx = ["--ctx", "b3"]
        code = commands(["nf", *ctx, B3_ST], ["eq", *ctx, B3_ST, B3_TS],
                        ["len", *ctx, B3_ST], ["lub", *ctx, B3_ST, B3_TS],
                        ["rgcd", *ctx, B3_ST, B3_TS], ["fraction", *ctx, B3_ST],
                        ["phi", *ctx, B3_ST])
        assert loaded_after(code, LATTICE_UNLOADED) == [False] * 4

    @pytest.mark.parametrize("argv", [
        ["ball", "--ctx", "b3", "--max-degree", "3"],
        ["cov-check", "--ctx", "b3", B3_ST, B3_TS],
        ["defect", "--ctx", "b3"],
        ["relcheck", "--ctx", "b3"],
        ["relcheck", "--ctx", "b4"],
    ])
    def test_table_commands_load_numpy_but_not_scipy(self, argv):
        assert loaded_after(commands(argv)) == [True, False]

    def test_operators_load_numpy_but_not_scipy(self):
        # toeplitz_op is the index map the table walk gives: no sparse matrix
        code = ("from qlattice import enumerate_ball, toeplitz_op\n"
                "from qlattice.cli import _load_context\n"
                "g = _load_context('b3')\n"
                "rows, cols = toeplitz_op(g, g.generator_words()[0], enumerate_ball(g, 3))\n"
                "assert len(rows) == len(cols) == 7\n")
        assert loaded_after(code) == [True, False]

    def test_small_norm_curves_load_no_sparse_solver(self):
        # every block of this curve is small enough for the dense bracket,
        # and B is gathered from the ball's table: no scipy module loads
        argv = ["norm-curve", "--ctx", "b3", "--max-degree", "8",
                "--weights", json.dumps({"s": 0.5, "t": 0.5})]
        assert loaded_after(commands(argv)) == [True, False]

    def test_public_names(self):
        assert sorted(qlattice.__all__) == [
            "ArtinFraction", "ArtinOps", "BallSizeExceeded", "CommutationGraph",
            "ConeBall", "INFINITY", "IsometryFamily",
            "NoCommonMultipleError", "NormNotCertified", "NormalWord",
            "NotFiniteTypeError", "NotInPPInvError", "Syllable",
            "ZOps", "canonical_fraction", "check_graph_relations",
            "check_toeplitz_relations", "covariance_check", "defect_product_diag",
            "enumerate_ball", "factor_from_spec", "factors", "graph", "is_positive",
            "leq", "leq_r", "lub", "norm_curve", "norm_estimate",
            "order", "phi", "phi_lub", "range_projection_diag", "rgcd", "toeplitz",
            "toeplitz_op",
        ]
        assert qlattice.order.lub_general is not qlattice.order.lub  # a span each
        star = "from qlattice import *\nassert norm_curve.__name__ == 'norm_curve'"
        assert loaded_after(star) == [True, False]
