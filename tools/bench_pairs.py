"""Compare a base revision with the working tree on the repository benchmark.

    python3 tools/bench_pairs.py --base-rev <rev> --seeds 201-210 --out BENCH_<n>.json

Exports the base revision (``git archive``) and the working tree (tracked
and untracked, non-ignored files) into fresh temporary directories, then,
for every seed and every workload named in BENCHMARK.json, runs the
benchmark command once in each, alternating which side runs first.  Each
run uses the benchmark's own run length.  Afterwards every workload gets
one traced run (``--trace 1``) per side on the first seed, for the
per-layer counts.

The output holds the machine facts, each side's line count over
``src/qlattice/*.py`` (``src_lines``), every run's metrics, each side's
median and quartiles, the number of pairs the change won (ties count for
neither side) and a verdict per metric: ``gain`` when the change wins at
least nine pairs in ten and the medians differ by more than the base's
interquartile range, ``regression`` when the change's median is worse by
more than the benchmark's bound, ``unresolved`` when either side's
spread exceeds the bound and the runs do not separate, else ``within
bound``.  The file is rewritten after every pair, so an interrupted
comparison keeps what it measured.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def export_base(rev, dest):
    with tempfile.TemporaryFile() as fh:
        fh.write(git("archive", "--format=tar", rev))
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest)


def export_working_tree(dest):
    files = git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():
            target = Path(dest) / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(src.read_bytes())


def src_lines(checkout):
    return sum(len(p.read_bytes().splitlines())
               for p in (checkout / "src" / "qlattice").glob("*.py"))


def run_once(command, checkout, workload, seed, seconds, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} failed in the {checkout.name} checkout:\n"
            f"{proc.stderr}"
        )
    doc = json.loads(lines[-1])
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
    }


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(spec, base_runs, change_runs):
    name, bound = spec["name"], spec["bound"]
    sign = 1 if spec["better"] == "lower" else -1
    base = [r["metrics"][name] for r in base_runs]
    change = [r["metrics"][name] for r in change_runs]
    b, c = quartiles(base), quartiles(change)
    wins = sum(sign * (y - x) < 0 for x, y in zip(base, change))
    gain = (
        wins >= 0.9 * len(base)
        and sign * (b["median"] - c["median"]) > b["q3"] - b["q1"]
    )
    worse = sign * (c["median"] - b["median"]) > bound * abs(b["median"])
    wide = any((s["q3"] - s["q1"]) > bound * abs(s["median"]) for s in (b, c))
    separated = max(sign * y for y in change) < min(sign * x for x in base)
    if gain:
        verdict = "gain"
    elif worse:
        verdict = "regression"
    elif wide and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": spec["unit"],
        "bound": bound,
        "base": {**b, "runs": base},
        "change": {**c, "runs": change},
        "change_wins": wins,
        "pairs": len(base),
        "median_change": (c["median"] - b["median"]) / b["median"],
        "verdict": verdict,
    }


def machine_facts():
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), "",
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base-rev", required=True)
    parser.add_argument("--seeds", required=True, help="an inclusive range, e.g. 201-210")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if c in ("python", "python3") else c
               for c in bench["command"]]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    out = {
        "base_rev": git("rev-parse", args.base_rev).decode().strip(),
        "change": "working tree on "
                  + git("rev-parse", "HEAD").decode().strip(),
        "machine": machine_facts(),
        "command": bench["command"] + ["--workload", "W", "--seed", "N",
                                       "--seconds", str(seconds), "--trace", "0|1"],
        "seeds": seeds,
        "order": "pair i runs the base first when i is even, the change first when odd",
        "workloads": {},
    }
    runs = {w: {"base": [], "change": []} for w in workloads}

    def write():
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export_base(args.base_rev, sides["base"])
        export_working_tree(sides["change"])
        out["src_lines"] = {side: src_lines(path) for side, path in sides.items()}
        write()
        for i, seed in enumerate(seeds):
            for workload in workloads:
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[workload][side].append(
                        run_once(command, sides[side], workload, seed, seconds, 0)
                    )
                base_runs, change_runs = runs[workload]["base"], runs[workload]["change"]
                out["workloads"][workload] = {
                    "attempted": {"base": [r["attempted"] for r in base_runs],
                                  "change": [r["attempted"] for r in change_runs]},
                    "failed": {"base": [r["failed"] for r in base_runs],
                               "change": [r["failed"] for r in change_runs]},
                    "correct": all(r["correct"] for r in base_runs + change_runs),
                    "metrics": {
                        spec["name"]: summarise(spec, base_runs, change_runs)
                        for spec in bench["end_to_end"]
                    },
                }
                write()
                print(f"seed {seed} {workload} done", file=sys.stderr, flush=True)
        for workload in workloads:
            out["workloads"][workload]["trace"] = {
                "seed": seeds[0],
                **{side: run_once(command, sides[side], workload, seeds[0],
                                  seconds, 1)["metrics"]
                   for side in ("base", "change")},
            }
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
