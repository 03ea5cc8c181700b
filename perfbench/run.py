"""Run one qlattice benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload raag_queries --seed 1 --seconds 15 --trace 0

Run it from the root of a qlattice checkout: the library is imported
from the checkout's src/.  The run times the program's set-up, repeats
the workload's fixed batch of operations in rounds for --seconds (and at
least the workload's minimum number of rounds), checks the first round's
outputs against oracles and requires every later round to reproduce
them.  Times are rescaled to the reference speed of a calibration kernel
timed next to them (see measure.py).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A traced run also writes its spans to
perfbench/out/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from measure import Tracer, at_reference_speed, calibrate, install, percentile, tail_level

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("raag_queries", "braid_queries", "norm_curves", "covariance_scan")

#: Each run is a fresh process with these settings.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Set-ups per untraced run; setup_s adds the medians of the two kinds.
SETUP_REPEATS = 5

#: Operations run back to back between two calibrations, in seconds.
SEGMENT_S = 0.1

#: Times `import qlattice, qlattice.cli` in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from measure import at_reference_speed, calibrate\n"
    "before = calibrate()\n"
    "start = time.perf_counter()\n"
    "import qlattice, qlattice.cli\n"
    "took = time.perf_counter() - start\n"
    "print(at_reference_speed(took, before, calibrate()))\n"
)

#: Per-layer totals that are not span counts.
LAYER_COUNTERS = ("toeplitz.ball_elements", "toeplitz.op_nnz")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one qlattice benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment():
    """Re-execute this script under PINNED_ENV unless it already runs so."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])


def import_seconds(samples):
    """Median import time of qlattice and qlattice.cli in new interpreters."""
    times = []
    for _ in range(samples):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def setup_seconds(workload):
    before = calibrate()
    start = time.perf_counter()
    workload.setup()
    took = time.perf_counter() - start
    return at_reference_speed(took, before, calibrate())


def peak_rss_mb():
    """High-water resident set size of this process, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Failed:
    """The outcome of an operation that raised."""

    def __init__(self, error):
        self.error = error

    def __eq__(self, other):
        return isinstance(other, Failed) and other.error == self.error

    def __repr__(self):
        return f"Failed({self.error})"


def cache_entries(contexts):
    """Words held in the Artin shortlex caches of the given contexts."""
    return sum(
        len(getattr(graph.ops[v].monoid, "_canon", ()))
        for graph in contexts
        for v in graph.vertices
        if graph.ops[v].kind == "artin"
    )


def run_round(ops, tracer):
    """Run one batch; latencies at reference speed, outputs, speed scales.

    The operations run in segments of about SEGMENT_S, with a calibration
    before and after each; a segment's latencies are rescaled by the
    mean of the two.
    """
    latencies, outputs, scales, pending = [], [], [], []
    before = calibrate()
    mark = time.perf_counter()
    for k, (group, operation) in enumerate(ops):
        start = time.perf_counter()
        span = tracer.enter(tracer.intern("op:" + group)) if tracer is not None else None
        try:
            output = operation()
        except Exception as exc:  # a failing operation is counted, not fatal
            output = Failed(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            if span is not None:
                tracer.exit(span)
        pending.append(time.perf_counter() - start)
        outputs.append(output)
        if time.perf_counter() - mark >= SEGMENT_S or k == len(ops) - 1:
            after = calibrate()
            latencies += [at_reference_speed(t, before, after) for t in pending]
            scales.append(at_reference_speed(1.0, before, after))
            pending, before, mark = [], after, time.perf_counter()
    return latencies, outputs, scales


def run_rounds(workload, seconds, tracer):
    """Repeat the batch until `seconds` have passed and min_rounds are done."""
    rounds = []
    deadline = time.perf_counter() + seconds
    first = None
    while len(rounds) < workload.min_rounds or time.perf_counter() < deadline:
        contexts, ops = workload.round()
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        begin = time.perf_counter()
        latencies, outputs, scales = run_round(ops, tracer)
        record = {
            "wall": math.fsum(latencies),
            "latencies": latencies,
            "scale": statistics.median(scales),
            "caches": cache_entries(contexts),
        }
        if tracer is not None:
            tracer.active = False
            record["layers"] = tracer.self_times()
            record["counters"] = dict(tracer.counters)
        if first is None:
            first = outputs
            if tracer is not None:
                record["spans"] = tracer.dump(origin=begin)
        else:
            record["differs"] = [i for i, (a, b) in enumerate(zip(first, outputs)) if a != b]
        rounds.append(record)
    return first, rounds


def tally(workload, first, rounds):
    """(correct, attempted, failed) over all rounds.

    An operation fails when it raises, when a check rejects its output in
    the first round (so in every round: later rounds must reproduce the
    first), or when its output differs from the first round's.
    """
    problems = ["raised" if isinstance(out, Failed) else None for out in first]
    checked = workload.check([None if p else out for p, out in zip(problems, first)])
    wrong = 0
    for i, problem in enumerate(checked):
        if problems[i] is None and problem is not None:
            problems[i] = problem
            wrong += 1
            print(f"check failed at operation {i}: {problem}", file=sys.stderr)
    bad = {i for i, p in enumerate(problems) if p is not None}
    attempted = failed = 0
    for record in rounds:
        attempted += len(first)
        differs = set(record.get("differs", ()))
        failed += len(bad | differs)
        wrong += len(differs - bad)
    return wrong == 0, attempted, failed


def end_to_end(rounds, setup_s, rss_mb):
    """The five end-to-end metrics.

    An operation's latency is its median over the rounds, which repeat
    the same work: a burst of host noise too short for the calibration to
    see slows a few consecutive operations in one round only.
    """
    per_op = [statistics.median(t) for t in zip(*(r["latencies"] for r in rounds))]
    return {
        "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * percentile(per_op, 50), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * percentile(per_op, tail_level(len(per_op))), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _totals(groups):
    """{name: [calls, self_s]} summed over the span groups."""
    out = {}
    for group in groups.values():
        for name, (calls, self_s) in group.items():
            cell = out.setdefault(name, [0, 0.0])
            cell[0] += calls
            cell[1] += self_s
    return out


def per_layer(layer_names, setup, rounds, import_s):
    """One set-up plus the median round, per traced layer.

    Self times are rescaled by the calibration of the set-up or round.
    """
    setup_totals = _totals(setup["layers"])
    per_round = [(_totals(r["layers"]), r["scale"]) for r in rounds]
    metrics = {}
    for name in layer_names:
        calls, self_s = setup_totals.get(name, [0, 0.0])
        calls += statistics.median_low(t.get(name, [0, 0.0])[0] for t, _ in per_round)
        self_s = self_s * setup["scale"] + statistics.median(
            t.get(name, [0, 0.0])[1] * scale for t, scale in per_round
        )
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for counter in LAYER_COUNTERS:
        value = setup["counters"].get(counter, 0) + statistics.median_low(
            r["counters"].get(counter, 0) for r in rounds
        )
        metrics[counter] = {"value": value, "unit": "count"}
    metrics["factors.canon_cache_entries"] = {
        "value": statistics.median_low(r["caches"] for r in rounds), "unit": "count",
    }
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    return metrics


def traced_setup(workload, tracer):
    tracer.active = True
    before = calibrate()
    span = tracer.enter(tracer.intern("setup"))
    workload.setup()
    tracer.exit(span)
    scale = at_reference_speed(1.0, before, calibrate())
    tracer.active = False
    return {"layers": tracer.self_times(), "counters": dict(tracer.counters), "scale": scale}


def write_trace(args, rounds, setup):
    """Write the first round's spans and per-group self times to out/."""
    walls = [r["wall"] for r in rounds]
    median_round = rounds[walls.index(sorted(walls)[(len(walls) - 1) // 2])]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "traced_wall_s": statistics.median(walls),
        "setup": setup,
        "median_round": {"scale": median_round["scale"], "layers": median_round["layers"]},
        "first_round_spans": rounds[0]["spans"],
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print(f"trace written to {path.relative_to(ROOT)}; traced wall_s "
          f"{doc['traced_wall_s']:.4f}", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qlattice" / "__init__.py").is_file():
        print(f"no qlattice source tree at {SRC / 'qlattice'}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))

    import qlattice  # noqa: F401  (the set-up probes time this import afresh)
    import qlattice.cli  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    import_s = import_seconds(SETUP_REPEATS)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layer_names = install(tracer)
        setup = traced_setup(workload, tracer)
    else:
        setup_s = import_s + statistics.median(
            setup_seconds(workload) for _ in range(SETUP_REPEATS)
        )

    first, rounds = run_rounds(workload, args.seconds, tracer)
    rss_mb = peak_rss_mb()
    batch = len(first)
    start = time.perf_counter()
    correct, attempted, failed = tally(workload, first, rounds)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {batch} operations, "
        f"tail percentile p{tail_level(batch):g}; checks took "
        f"{time.perf_counter() - start:.1f} s; calibrated round walls "
        + " ".join(f"{r['wall']:.3f}" for r in rounds)
        + "; speed scales " + " ".join(f"{r['scale']:.2f}" for r in rounds),
        file=sys.stderr,
    )
    if args.trace:
        metrics = per_layer(layer_names, setup, rounds, import_s)
        write_trace(args, rounds, setup)
    else:
        metrics = end_to_end(rounds, setup_s, rss_mb)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
