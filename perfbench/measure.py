"""Speed calibration, percentiles, spans and self times for the benchmark.

The host's speed drifts: on the shared 2-core machine the benchmark was
built on, the same pure-Python loop runs in 13 ms for a while and in
18-20 ms for seconds or minutes at a stretch, with CPU time tracking
wall time.  The benchmark therefore times a fixed kernel next to the
program's work and reports times rescaled to the kernel's reference
speed (``at_reference_speed``).

The traced run wraps public qlattice functions and methods from outside
the library.  Each call made while the tracer is active becomes a span
(name, start, end, parent); spans live in flat arrays until the run
writes them out.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

#: Time of ``calibrate()`` on the reference machine when it runs fast.
CALIBRATION_S = 0.0045


def calibrate():
    """Time a fixed pure-Python kernel (dict and tuple work, ~5 ms)."""
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def at_reference_speed(seconds, *calibrations):
    """Seconds measured next to the given calibrate() times, rescaled to
    the speed at which calibrate() takes CALIBRATION_S."""
    return seconds * CALIBRATION_S * len(calibrations) / math.fsum(calibrations)


#: Candidate tail percentiles, highest first.
TAIL_LEVELS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)


def tail_level(samples):
    """The highest candidate percentile with at least ten samples beyond it."""
    for level in TAIL_LEVELS:
        if samples * (100.0 - level) / 100.0 >= 10:
            return level
    raise ValueError(f"{samples} samples leave no percentile with ten beyond it")


def percentile(values, level):
    """Nearest-rank percentile: the smallest value with level% of the
    values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """Records nested spans while active; clock is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        """Drop the recorded spans and counters and start a new batch."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters = {}
        self._open = []

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id):
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(math.nan)
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def exit(self, index):
        self.end[index] = self.clock()
        self._open.pop()

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_times(self):
        """{group: {name: [calls, self seconds]}} over the recorded spans.

        A span's group is the name of its root span.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        root = [0] * n
        out = {}
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            group = out.setdefault(self.names[self.name[root[i]]], {})
            cell = group.setdefault(self.names[self.name[i]], [0, 0.0])
            cell[0] += 1
            cell[1] += (self.end[i] - self.start[i]) - child[i]
        return out

    def dump(self, origin):
        """The recorded spans as JSON-ready columns, times from origin."""
        return {
            "name": [self.names[k] for k in self.name],
            "start": [round(t - origin, 7) for t in self.start],
            "end": [round(t - origin, 7) for t in self.end],
            "parent": list(self.parent),
        }


def _traced(tracer, name, fn, measure=None):
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.enter(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if measure is not None:
            tracer.count(measure[0], measure[1](result))
        return result

    return traced


def install(tracer):
    """Wrap the traced layers of qlattice; return the per-layer span names.

    Methods are wrapped on their class.  A module-level function is
    replaced at every qlattice module that binds it, since each import
    (qlattice.toeplitz.leq, qlattice.cli.rgcd, ...) is its own binding.
    """
    from qlattice import factors, graph, io, order, toeplitz

    methods = [
        ("factors.reverse_fraction", factors.ArtinMonoid, "reverse_fraction"),
        ("factors.canonical_word", factors.ArtinMonoid, "canonical_word"),
        ("factors.element", factors.ArtinOps, "element"),
        ("graph.reduce", graph.CommutationGraph, "reduce"),
        ("graph.multiply", graph.CommutationGraph, "multiply"),
        ("graph.initial_split", graph.CommutationGraph, "initial_split"),
    ]
    functions = [
        ("order.lub", order, "lub", None),
        ("order.lub_general", order, "lub_general", None),
        ("order.canonical_fraction", order, "canonical_fraction", None),
        ("order.rgcd", order, "rgcd", None),
        ("order.leq", order, "leq", None),
        ("toeplitz.enumerate_ball", toeplitz, "enumerate_ball",
         ("toeplitz.ball_elements", len)),
        ("toeplitz.toeplitz_op", toeplitz, "toeplitz_op",
         ("toeplitz.op_nnz", lambda op: int(op.matrix.nnz))),
        ("toeplitz.norm_estimate", toeplitz, "norm_estimate", None),
        ("toeplitz.norm_curve", toeplitz, "norm_curve", None),
        ("toeplitz.covariance_check", toeplitz, "covariance_check", None),
        ("io.parse_word", io, "parse_word", None),
    ]
    for name, cls, attr in methods:
        setattr(cls, attr, _traced(tracer, name, getattr(cls, attr)))
    modules = [
        m for key, m in sys.modules.items()
        if m is not None and (key == "qlattice" or key.startswith("qlattice."))
    ]
    for name, module, attr, measure in functions:
        original = getattr(module, attr)
        wrapper = _traced(tracer, name, original, measure)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    return [name for name, _, _ in methods] + [name for name, _, _, _ in functions]
