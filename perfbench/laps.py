"""Lap timestamps and the per-segment minimum over identical repeats.

The benchmark's host changes speed by up to 1.5x in phases of tens of
milliseconds, so one time over a run of seconds measures how long the host
stayed fast as much as it measures the program.  Instead, :func:`install`
makes every call into the library's traced functions (the functions
``tracing.py`` wraps) take a timestamp on entry and on exit.  The timestamps
cut a run into segments of micro- to milliseconds.  Every repeat of the same
set-up or workload run does identical work, so it is cut into the same
segments; :class:`SegmentMinimum` keeps each segment's shortest duration
over the repeats, and a time is the sum of those minima over its segments.
A segment is short enough that some repeat runs it in a fast phase, so the
sum is the time of the work at the host's fast speed, and a change that
makes any segment faster or slower moves it by that much.

Some stretches of tens of seconds have no fast phase at all.  So every
repeat also runs :func:`reference_work`, a fixed pure-Python load that no
change to the program touches, and times are scaled by how much longer than
:data:`REFERENCE_S` its own segment-minimum sum took: they read as seconds
at the host speed where the reference work takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Iterable, List, Optional, Tuple

import numpy


#: Segment-minimum seconds of :func:`reference_work` at this benchmark's
#: reference host speed: a 2-vCPU Xeon virtual machine in a fast phase,
#: Python 3.11.
REFERENCE_S = 0.0150

#: Segments of :func:`reference_work`.
REFERENCE_SEGMENTS = 200


def reference_work(laps: "Laps") -> None:
    """A fixed load of dictionary, tuple, list and sort work, in segments."""
    table = {}
    laps.mark()
    for _ in range(REFERENCE_SEGMENTS):
        items = []
        for i in range(300):
            key = (i * 7) % 97
            table[key] = table.get(key, 0) + i
            items.append((key, i))
        items.sort()
        laps.mark()


class Laps:
    """Timestamps (``perf_counter_ns``) of one repeat, in the order taken."""

    def __init__(self) -> None:
        self.stamps = array("q")

    def clear(self) -> None:
        del self.stamps[:]

    def mark(self) -> int:
        """Take a timestamp; return its index."""
        self.stamps.append(time.perf_counter_ns())
        return len(self.stamps) - 1

    def lapped(self, fn: Callable) -> Callable:
        """*fn* wrapped to take a timestamp on entry and on exit."""
        append = self.stamps.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def lapped(*args, **kwargs):
            append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                append(clock())

        return lapped


def install(laps: Laps) -> None:
    """Wrap every ``tracing.TRACE_POINTS`` function to take lap timestamps."""
    from tracing import TRACE_POINTS, _patch

    for module_name, path, _ in TRACE_POINTS:
        _patch(module_name, path, laps.lapped)


class SegmentMinimum:
    """Each segment's shortest duration over repeats of identical work.

    Repeats whose timestamp count differs from the first one's cannot be
    lined up segment by segment; :attr:`aligned` then turns false and the
    times mean nothing.
    """

    def __init__(self) -> None:
        self.best: Optional[numpy.ndarray] = None
        self.repeats = 0
        self.aligned = True

    def add(self, stamps: array) -> None:
        durations = numpy.diff(numpy.frombuffer(stamps, dtype=numpy.int64))
        if self.best is None:
            self.best = durations.copy()
        elif len(durations) != len(self.best):
            self.aligned = False
        else:
            numpy.minimum(self.best, durations, out=self.best)
        self.repeats += 1

    def seconds(self, spans: Optional[Iterable[Tuple[int, int]]] = None) -> float:
        """Summed minima between each (first, last) timestamp index pair.

        Without *spans*, the whole repeat: first timestamp to last.
        """
        if spans is None:
            return float(self.best.sum()) / 1e9
        return sum(float(self.best[first:last].sum()) for first, last in spans) / 1e9


def span_seconds(stamps: array, spans: List[Tuple[int, int]]) -> float:
    """Wall seconds between each (first, last) timestamp index pair, summed."""
    return sum(stamps[last] - stamps[first] for first, last in spans) / 1e9
