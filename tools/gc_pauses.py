"""Count the cyclic garbage collector's work in each round of the benchmark.

    python3 tools/gc_pauses.py [--src DIR] [--workload NAME]... [--seed 4401] [--rounds 12]

Runs each named workload of perfbench/ (all four by default) in this
process the way perfbench/run.py does: one set-up, then rounds of the
workload's batch through run.py's own ``run_round``, keeping the first
round's outputs for the whole run and each later round's until the next
round ends.  For every round it prints the collections in each
generation, their summed pause (from ``gc.callbacks``), the objects they
freed, and the collector-tracked objects that the round's outputs keep
alive, by type: found by walking ``gc.get_referents`` from the outputs,
past classes, modules and functions.  A last line sums the rounds.

``--src`` picks the qlattice source tree (default: this checkout's
``src``), so two trees can be compared under the same perfbench.  The
script runs under perfbench's pinned environment (it re-executes itself
with ``PYTHONHASHSEED=0`` and single-threaded BLAS) and writes nothing.
"""

import argparse
import gc
import os
import sys
import time
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


class Collections:
    """Per-generation collection counts, pause seconds and objects freed,
    recorded by a gc callback while ``active``."""

    def __init__(self):
        self.active = False
        self.reset()
        gc.callbacks.append(self.callback)

    def reset(self):
        self.counts, self.pause, self.freed, self._start = [0, 0, 0], 0.0, 0, None

    def callback(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause += time.perf_counter() - self._start
            self.counts[info["generation"]] += 1
            self.freed += info["collected"]
            self._start = None


def retained(outputs):
    """Counter of the type names of the tracked objects reachable from the
    items of outputs."""
    seen, kinds, stack = set(), Counter(), list(outputs)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, OPAQUE):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            kinds[type(obj).__name__] += 1
            stack.extend(gc.get_referents(obj))
    return kinds


def row(label, counts, pause, freed):
    return (f"  {label:>5}  gen0 {counts[0]:4d}  gen1 {counts[1]:3d}  gen2 {counts[2]:2d}  "
            f"pause {pause:6.3f} s  freed {freed:6,}")


def run_workload(name, seed, rounds):
    from run import run_round
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    collections = Collections()
    totals, total_pause, total_freed, first = [0, 0, 0], 0.0, 0, None
    print(f"{name} seed {seed}:")
    for k in range(1, rounds + 1):
        _, ops = workload.round()
        collections.reset()
        collections.active = True
        _, outputs, _ = run_round(ops, None)
        collections.active = False
        first = outputs if first is None else first
        kinds = retained(outputs)
        top = ", ".join(f"{kind} {n:,}" for kind, n in kinds.most_common(4))
        print(row(f"{k}", collections.counts, collections.pause, collections.freed)
              + f"  retained {sum(kinds.values()):7,} ({top})")
        totals = [t + c for t, c in zip(totals, collections.counts)]
        total_pause += collections.pause
        total_freed += collections.freed
    print(row("all", totals, total_pause, total_freed))
    gc.callbacks.remove(collections.callback)


def main(argv=None):
    sys.path.insert(0, str(PERFBENCH))
    from run import PINNED_ENV, WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--workload", action="append", dest="workloads", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=4401)
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.path.insert(1, str(args.src.resolve()))
    for name in args.workloads or WORKLOAD_NAMES:
        run_workload(name, args.seed, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
