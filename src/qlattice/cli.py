"""Command line interface.

A result goes to standard output, or to the --out file, as one JSON object,
{"ok": true, "result": ...}; an infinite lub is rendered as "infinity".
Exit codes: 0 success, 1 domain error (a word that is not positive or no
fraction of positives, relation violation, a norm that cannot be certified,
a reversal or a division past the step budget), 2 input/parse error, such as
a generator name over 64 characters or an --out file that cannot be opened.
An error is reported on standard output, and no --out file is written.  The
norm-curve subcommand emits CSV instead (columns degree, ball_size,
norm_estimate, norm_hi).  Each row is a bracket on the exact compressed
norm, and both columns are nondecreasing.  The computed bracket is at most
--tolerance (relative above 1) wide; its ends are printed rounded outward to
12 decimals, so a printed row is at most --tolerance plus 2e-12 wide.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.resources
import json
import math
import sys

from . import io as qio
from .factors import INFINITY, NoCommonMultipleError
from .graph import BALL_SIZE_CAP, BallSizeExceeded
from .order import NotPositiveError, canonical_fraction, lub, phi, rgcd

# The numeric subcommands import toeplitz and verify themselves, so the
# lattice ones load neither numpy nor scipy.


class DomainError(Exception):
    def __init__(self, kind, detail):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


class InputError(DomainError):
    pass


def _load_context(spec):
    """Accept a filesystem path or a bare preset name like 'b3'."""
    candidates = [spec]
    if not spec.endswith(".json"):
        candidates.append(spec + ".json")
    for cand in candidates:
        try:
            return qio.load_graph(cand)
        except FileNotFoundError:
            pass
    for cand in candidates:
        resource = importlib.resources.files("qlattice") / "presets" / cand
        if resource.is_file():
            return qio.graph_from_json(json.loads(resource.read_text()))
    raise InputError("context", f"no context file or preset named {spec!r}")


def _words(graph, args):
    """The words of a subcommand that takes them, read and counted before
    it runs: from the arguments or from an --in file, not both."""
    if not args.infile:
        literals = [json.loads(w) for w in args.words]
    elif args.words:
        raise InputError("parse", "give word literals as arguments or in --in, not both")
    else:
        with open(args.infile) as fh:
            literals = json.load(fh)
        if not isinstance(literals, list):
            raise InputError("parse", "--in file must hold a JSON array of words")
    if args.count is not None and len(literals) != args.count:
        raise InputError("parse", f"expected {args.count} word argument(s)")
    return [qio.parse_word(graph, lit) for lit in literals]


def _ball(graph, args):
    from .toeplitz import enumerate_ball
    return enumerate_ball(graph, args.max_degree, size_cap=args.max_ball)


def _result_word(graph, x):
    if x is INFINITY:
        return "infinity"
    return qio.word_to_json(graph, x)


def _json_words(graph, xs):
    return [qio.word_to_json(graph, x) for x in xs]


#: The lattice subcommands, one row each: name, word count, the result
#: from the graph and the parsed words, help.
_LATTICE = (
    ("nf", 1, _result_word, "canonical normal form of a word"),
    ("eq", 2, lambda g, x, y: g.equal(x, y), "whether two words represent the same element"),
    ("len", 1, lambda g, x: len(x), "syllable length of the represented element"),
    ("lub", 2, lambda g, x, y: _result_word(g, lub(g, x, y)), "least upper bound, or infinity"),
    ("rgcd", 2, lambda g, x, y: _result_word(g, rgcd(g, x, y)),
     "greatest common right divisor of positives"),
    ("fraction", 1, lambda g, x: dict(zip("ab", _json_words(g, canonical_fraction(g, x)))),
     "canonical fraction a b^-1"),
    ("phi", 1, lambda g, x: {v: qio.element_to_json(g, v, e) for v, e in phi(g, x).items()},
     "image in the direct product of the factors"),
)


def cmd_ball(graph, args):
    ball = _ball(graph, args)
    return {
        "size": len(ball),
        "layer_sizes": [b - a for a, b in zip(ball.start, ball.start[1:])],
        "elements": _json_words(graph, ball.elements),
    }


def cmd_cov_check(graph, args, x, y):
    from .toeplitz import covariance_check
    report = covariance_check(graph, x, y, _ball(graph, args))
    return {
        "ok": report.ok,
        "lub": _result_word(graph, report.lub),
        "mismatches": _json_words(graph, report.mismatches),
    }


def cmd_defect(graph, args, *family):
    from .toeplitz import defect_product_diag
    if not (family or args.infile):  # no words given: the generators
        family = graph.generator_words()
    diag = defect_product_diag(graph, family, _ball(graph, args))
    return {
        "nonzero": bool(diag.any()),
        "delta1": int(diag[0]),
        "support_size": int(diag.sum()),
    }


def cmd_relcheck(graph, args):
    from .toeplitz import IsometryFamily, check_graph_relations, check_toeplitz_relations
    if args.rep:
        with open(args.rep) as fh:
            matrices = json.load(fh)
        if not isinstance(matrices, dict):
            raise InputError("parse", "--rep file must be a JSON object")
        try:
            family = IsometryFamily(graph, matrices)
        except ValueError as exc:
            raise InputError("parse", str(exc)) from exc
        report = check_graph_relations(
            family, tol=args.tolerance, ball=_ball(graph, args), seed=args.seed
        )
    else:
        report = check_toeplitz_relations(graph, _ball(graph, args))
    payload = {
        "ok": report.ok,
        "violations": [[desc, res] for desc, res in report.violations],
    }
    if not report.ok:
        raise DomainError("relation-violation", payload)
    return payload


def cmd_norm_curve(graph, args):
    from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
    from .toeplitz import _norm_brackets
    rows = _norm_brackets(graph, qio.parse_weights(graph, args.weights),
                          range(1, args.max_degree + 1),
                          tol=args.tolerance, size_cap=args.max_ball)
    # each end exactly to 12 decimals, outward: a float has at most 309 integer digits
    down, up = (Context(prec=400, rounding=r) for r in (ROUND_FLOOR, ROUND_CEILING))
    step = Decimal("1e-12")
    return "".join(["degree,ball_size,norm_estimate,norm_hi\n"] + [
        f"{d},{n},{down.quantize(Decimal(lo), step):.12f},{up.quantize(Decimal(hi), step):.12f}\n"
        for d, n, lo, hi in rows])


def cmd_verify(graph, args):
    from .verify import run_verification
    report = run_verification(
        graph, seed=args.seed, samples=args.samples, degree=args.max_degree,
        size_cap=args.max_ball,
    )
    if not report["ok"]:
        raise DomainError("verification-failure", report)
    return report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qlattice",
        description="Normal forms, lattice operations and truncated Toeplitz "
        "representations for graph products of quasi-lattice ordered groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flag groups a subcommand takes when it reads them
    words, ball, tolerance, seed = (argparse.ArgumentParser(add_help=False)
                                    for _ in range(4))
    words.add_argument("--in", dest="infile", help="JSON file with word literals")
    words.add_argument("words", nargs="*", help="word literals (JSON)")
    ball.add_argument("--max-degree", type=int, default=4)
    ball.add_argument("--max-ball", type=int, default=BALL_SIZE_CAP)
    tolerance.add_argument("--tolerance", type=float, default=1e-9,
                           help="relation residual bound for relcheck; for "
                           "norm-curve, the width of the certified norm bracket")
    seed.add_argument("--seed", type=int, default=0)

    def add(name, fn, *parents, count=None, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.add_argument("--ctx", required=True, help="context file or preset name")
        p.add_argument("--out", help="write the result to a file")
        p.set_defaults(fn=fn, count=count)
        return p

    for name, count, result, text in _LATTICE:
        add(name, lambda graph, args, *xs, result=result: result(graph, *xs), words,
            count=count, help=text)
    add("ball", cmd_ball, ball, help="enumerate the positive cone ball")
    add("cov-check", cmd_cov_check, words, ball, count=2,
        help="covariance identity over a ball")
    add("defect", cmd_defect, words, ball, help="defect projection support over a ball")
    p = add("relcheck", cmd_relcheck, ball, tolerance, seed,
            help="check the graph-product relations of a representation")
    p.add_argument("--rep", help="JSON file mapping generator labels to matrices")
    p = add("norm-curve", cmd_norm_curve, ball, tolerance,
            help="CSV of truncated convolution norms by ball degree")
    p.add_argument("--weights", required=True,
                   help='JSON weights by generator label, e.g. {"s":0.5,"t":0.5}')
    p = add("verify", cmd_verify, ball, seed,
            help="run the sampled oracle/property suite")
    p.add_argument("--samples", type=int, default=50)

    return parser


#: Error kind and exit code by exception type, first match wins.  A kind
#: of None reports the exception's own: a DomainError's kind, else the
#: class name (ValueError covers NotInPPInvError and NormNotCertified).
_ERRORS = (
    (InputError, None, 2),
    (qio.LiteralError, "parse", 2),
    (json.JSONDecodeError, "parse", 2),
    (OSError, "parse", 2),
    (DomainError, None, 1),
    (BallSizeExceeded, None, 1),
    (NotPositiveError, "not-positive", 1),
    (NoCommonMultipleError, None, 1),
    (ValueError, None, 1),
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tolerance" in args and not math.isfinite(args.tolerance):
            raise InputError("parse", f"--tolerance {args.tolerance} is not finite")
        for flag, least in (("max_degree", 0), ("samples", 0), ("max_ball", 1), ("seed", 0)):
            if getattr(args, flag, least) < least:
                raise InputError("parse", f"--{flag.replace('_', '-')} must be at "
                                 f"least {least}, not {getattr(args, flag)}")
        graph = _load_context(args.ctx)
        words = _words(graph, args) if "words" in args else []
        result = args.fn(graph, args, *words)
        if args.command != "norm-curve":  # which returns its CSV
            result = json.dumps({"ok": True, "result": result}, sort_keys=True) + "\n"
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(result)
    except tuple(t for t, _, _ in _ERRORS) as exc:
        kind, code = next((k, c) for t, k, c in _ERRORS if isinstance(exc, t))
        if isinstance(exc, DomainError):
            kind, detail = exc.kind, exc.detail
        else:
            kind, detail = kind or type(exc).__name__, str(exc)
        print(json.dumps({"ok": False, "error": {"kind": kind, "detail": detail}}))
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
