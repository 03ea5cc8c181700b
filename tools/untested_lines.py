"""List the lines of src/qlattice that the tier-1 tests never run.

    python3 tools/untested_lines.py [extra pytest arguments]

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` from
the repository root, with ``src`` first on the import path) in this process
under a ``sys.settrace``/``threading.settrace`` tracer that records lines
only in frames whose code lies under ``src/qlattice``.  The executable
lines of each module are those that ``co_lines()`` names in any of its code
objects.  Each one never run prints as ``file:line: source``, then the
count, with pytest's exit status, and under it the node id of each test
that failed in the traced run.  Only the standard library and pytest are
used.  Lines run only in a subprocess (the CLI tests that start
``python -m qlattice``) are not seen.

Tracing makes the suite several times slower, so a test with a wall-clock
bound may fail here alone.  The tests that failed (or failed to collect)
under the tracer are therefore run once more, untraced, in a subprocess,
and the node ids that fail again are listed too.  The script exits with
that rerun's status, or with the traced run's when nothing failed.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlattice"


def executable_lines(path):
    """The line numbers that some code object compiled from path runs."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class FailedTests:
    """A pytest plugin that keeps the node ids of the failed tests and of
    the modules that failed to collect, in order."""

    def __init__(self):
        self.ids = []

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def rerun_untraced(nodeids):
    """(exit status, node ids that failed) of one untraced pytest run of
    nodeids, in a subprocess with src first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", *nodeids],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, failed


def main():
    prefix = str(PACKAGE) + os.sep
    seen = set()

    def local(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    failed = FailedTests()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *sys.argv[1:]],
                             plugins=[failed])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in seen:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines unrun (pytest exit {int(status)})")
    for nodeid in failed.ids:
        print(f"failed under the tracer: {nodeid}")
    if not failed.ids:
        return int(status)
    status, again = rerun_untraced(failed.ids)
    for nodeid in again:
        print(f"failed again untraced: {nodeid}")
    print(f"untraced rerun of {len(failed.ids)}: pytest exit {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
