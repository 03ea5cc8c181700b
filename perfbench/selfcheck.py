"""Fast self-check of the benchmark's statistics and span arithmetic.

    python3 perfbench/selfcheck.py

Checks that the tail percentile leaves at least ten samples beyond it
(and that no higher candidate would), and that self times on nested and
recursive spans are the span durations minus their direct children.
Needs neither qlattice nor numpy; exits 1 on the first failure.
"""

from __future__ import annotations

import sys

from measure import TAIL_LEVELS, Tracer, _traced, percentile, tail_level


def expect(condition, message):
    if not condition:
        print(f"selfcheck FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_tail_level():
    expect(tail_level(40) == 75.0, "40 samples give p75")
    expect(tail_level(200) == 95.0, "200 samples give p95")
    expect(tail_level(800) == 98.0, "800 samples give p98")
    try:
        tail_level(39)
    except ValueError:
        pass
    else:
        expect(False, "39 samples must leave no tail percentile")
    for n in range(40, 2001):
        level = tail_level(n)
        values = list(range(n))
        cut = percentile(values, level)
        beyond = sum(v > cut for v in values)
        expect(beyond >= 10, f"p{level} of {n} samples has {beyond} beyond it")
        higher = [lv for lv in TAIL_LEVELS if lv > level]
        if higher:
            cut = percentile(values, min(higher))
            beyond = sum(v > cut for v in values)
            expect(beyond < 10, f"p{min(higher)} of {n} samples would also do")
    expect(percentile([3, 1, 2], 50) == 2, "median of 1, 2, 3")
    expect(percentile([5, 1, 4, 2, 3], 100) == 5, "p100 is the maximum")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def check_self_times():
    # root [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root, b, c, d = (tracer.intern(n) for n in ("op:x", "b", "c", "d"))
    i = tracer.enter(root)
    j = tracer.enter(b)
    tracer.exit(tracer.enter(c))
    tracer.exit(j)
    tracer.exit(tracer.enter(d))
    tracer.exit(i)
    got = tracer.self_times()
    want = {"op:x": {"op:x": [1, 3.0], "b": [1, 2.0], "c": [1, 1.0], "d": [1, 4.0]}}
    expect(got == want, f"nested self times {got} != {want}")
    expect(list(tracer.parent) == [-1, 0, 1, 0], f"parents {list(tracer.parent)}")

    # a recursive function: each level's self time excludes the level below
    tracer = Tracer(clock=FakeClock([0, 1, 2, 6, 8, 12, 20, 21]))
    tracer.active = True

    def depth(k):
        return 0 if k == 0 else 1 + traced(k - 1)

    traced = _traced(tracer, "rec", depth, measure=("levels", lambda r: r))
    expect(traced(3) == 3, "the wrapper returns the result")
    # spans: [0, 21], [1, 20], [2, 12], [6, 8]; group is the outermost
    got = tracer.self_times()
    want = {"rec": {"rec": [4, (21 - 19) + (19 - 10) + (10 - 2) + 2.0]}}
    expect(got == want, f"recursive self times {got} != {want}")
    expect(tracer.counters == {"levels": 0 + 1 + 2 + 3}, f"counters {tracer.counters}")

    # a raising call still closes its span, and inactive calls record nothing
    tracer = Tracer(clock=FakeClock([0, 1]))
    tracer.active = True

    def boom():
        raise KeyError("x")

    try:
        _traced(tracer, "boom", boom)()
    except KeyError:
        pass
    expect(len(tracer.name) == 1 and tracer.end[0] == 1 and not tracer._open,
           "a raising call closes its span")
    tracer.active = False
    _traced(tracer, "quiet", lambda: None)()
    expect(len(tracer.name) == 1, "an inactive tracer records no span")


if __name__ == "__main__":
    check_tail_level()
    check_self_times()
    print("selfcheck ok")
