"""Time whole qlattice CLI processes, best of 9, on one or more trees.

    python3 tools/cli_times.py [--src path/to/src]...

Each command runs in a fresh interpreter, so a time holds start-up,
imports and the work itself.  The commands are ``len`` of a one-letter
word on free2, whose time is start-up alone, ``norm-curve`` on the five
presets, ``relcheck`` on b3 and b4, the lattice commands ``nf`` and
``lub`` on b3 and b4 with fixed 12-letter words, ``ball`` on b3 to
degree 15 and on b4 to degree 10, ``nf`` on b3 of s^20000 and of the
fraction t s^20000 / s^20000, ``nf`` on b4 of u s^5000, and ``nf`` on a
12-letter word in an E8
context that the script writes to a temporary file, so loading a context
of the largest tested rank is timed.  Those balls pass the degrees of the
Artin factors' cone tables (13 and 8), so forming their elements takes
the greedy path with a canonical tail past the table; the two long b3
words take it with no reversal, dividing off first letters (canonical_word)
and a common right divisor (_strip) one letter at a time, and u s^5000
takes it with a two-step reversal per letter.  A word argument over 40
characters is printed shortened.
``--src`` names a source directory put on PYTHONPATH (default: this
checkout's ``src``); give it once per tree, say an exported older
revision and this checkout, to compare them.  Each of the 9 rounds runs
every command once per tree, the trees in the given order in even rounds
and reversed in odd ones, so a slow spell on the machine spreads over all
commands and trees.  Every run has OPENBLAS_NUM_THREADS=1.  The output
lists the trees, then one row per command with one best-of-9 column per
tree, in the trees' order.
A command that exits nonzero stops the script.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 9  # runs per command; the best one is reported


def norm_curve(ctx, max_degree, labels):
    weights = json.dumps({label: 1 / len(labels) for label in labels})
    return ["norm-curve", "--ctx", ctx, "--max-degree", str(max_degree), "--weights", weights]


def artin_words(command, ctx, *words):
    return [command, "--ctx", ctx, *(json.dumps([["v", w]]) for w in words)]


COMMANDS = [
    ["len", "--ctx", "free2", json.dumps([["a", 1]])],  # start-up only
    norm_curve("free2", 7, "ab"),
    norm_curve("path3", 6, "abc"),
    norm_curve("square4", 5, "abcd"),
    norm_curve("b3", 8, "st"),
    norm_curve("b4", 7, "stu"),
    ["relcheck", "--ctx", "b3"],
    ["relcheck", "--ctx", "b4"],
    artin_words("nf", "b3", "tstsststtsts"),
    artin_words("lub", "b3", "tstsststtsts", "sttssttsttst"),
    artin_words("nf", "b4", "utstusuttsus"),
    artin_words("lub", "b4", "utstusuttsus", "tsuuststtuts"),
    ["ball", "--ctx", "b3", "--max-degree", "15"],
    ["ball", "--ctx", "b4", "--max-degree", "10"],
    artin_words("nf", "b3", "s" * 20000),
    artin_words("nf", "b3", {"num": "t" + "s" * 20000, "den": "s" * 20000}),
    artin_words("nf", "b4", "u" + "s" * 5000),
]


def e8_context():
    """E8 on one vertex: a path a-...-g with h joined to c, edges labelled 3."""
    gens = "abcdefgh"
    edges = [{s, t} for s, t in zip(gens, gens[1:7])] + [{"c", "h"}]
    m = [[1 if s == t else 3 if {s, t} in edges else 2 for t in gens] for s in gens]
    return {"vertices": [{"name": "v", "factor": {"artin": {"generators": list(gens), "m": m}}}],
            "edges": []}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="directory on PYTHONPATH, once per tree (default: this checkout's src)")
    args = parser.parse_args(argv)
    trees = [Path(src).resolve() for src in args.src or [ROOT / "src"]]
    envs = [dict(os.environ, PYTHONPATH=str(tree), OPENBLAS_NUM_THREADS="1") for tree in trees]
    with tempfile.TemporaryDirectory() as tmp:
        e8 = Path(tmp) / "e8.json"
        e8.write_text(json.dumps(e8_context()))
        commands = COMMANDS + [artin_words("nf", str(e8), "hcdbhgfecahd")]
        times = [[[] for _ in trees] for _ in commands]  # times[command][tree]
        for round_ in range(REPEAT):
            order = list(enumerate(envs))[::-1 if round_ % 2 else 1]
            for argv_, seen in zip(commands, times):
                for tree, env in order:
                    began = time.perf_counter()
                    subprocess.run([sys.executable, "-m", "qlattice.cli", *argv_], env=env,
                                   check=True, stdout=subprocess.DEVNULL)
                    seen[tree].append(time.perf_counter() - began)
    for i, tree in enumerate(trees, 1):
        print(f"tree {i}: {tree}")
    for argv_, seen in zip(commands, times):
        shown = (a if len(a) <= 40 else a[:37] + "..." for a in argv_[:5])
        print("  ".join(f"{min(runs):.3f} s" for runs in seen) + f"  {' '.join(shown)}")


if __name__ == "__main__":
    main()
