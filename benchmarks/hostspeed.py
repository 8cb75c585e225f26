"""Host speed probes, for times that do not drift with the shared host.

The benchmark runs on a few cores of a shared host that runs interpreted
Python at one of two speeds, about 2x apart, and switches between them
after anything from a few milliseconds to many minutes; a whole run can sit
in the slow state.  Process CPU time swings with wall time, so it is the
work per second that changes, not the share of the CPU the run gets.

A probe is a fixed piece of plain Python (dict and frozenset traffic, small
objects, integer arithmetic), independent of topolab, timed between the
benchmark's calls.  A time measured by the benchmark is reported at the
reference speed, at which a probe takes ``REFERENCE_S``: each stretch of it
is multiplied by ``REFERENCE_S`` over the median duration of the probes
around that stretch.  A change to topolab moves the time and not the
probes, so it shows in full; a slow phase of the host moves both.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

clock = time.perf_counter

REFERENCE_S = 0.0015  # a probe's duration at the reference speed
INTERVAL_S = 0.05  # least time between two probes taken between items
NEIGHBOURS = 2  # probes taken on each side of an interval, besides those inside it


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def reference_work() -> int:
    """The probe: the same plain-Python work on every call."""
    table: dict = {}
    total = 0
    for i in range(1500):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + 1
        pair = frozenset((i & 7, (i >> 3) & 7, i & 3))
        cell = _Cell(pair, len(pair))
        table[pair] = cell.weight
        total += (i * i) ^ (i >> 3) | cell.weight
    return total + len(table)


class HostSpeed:
    """A log of probes, and the time of an interval at the reference speed."""

    def __init__(self):
        self.starts: list[float] = []  # ascending; probes never overlap
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent probing
        self.last = float("-inf")

    def probe(self) -> None:
        """Time one probe, with the garbage collector off so that the
        program's heap does not slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            reference_work()
            end = clock()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.durations.append(end - start)
        self.spent += end - start
        self.last = end

    def maybe_probe(self) -> None:
        """Probe if ``INTERVAL_S`` has gone by since the last probe."""
        if clock() - self.last >= INTERVAL_S:
            self.probe()

    def reference_seconds(self, start: float, end: float) -> float:
        """The time [start, end] would take at the reference speed.

        The probes taken inside the interval are left out, and each stretch
        between them is scaled by the median of the nearest probes,
        ``NEIGHBOURS`` on either side of it, so a change of speed within the
        interval is followed.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        cuts = [start]
        for i in range(first, last):
            cuts += [self.starts[i], self.starts[i] + self.durations[i]]
        cuts.append(end)
        total = 0.0
        for i, (a, b) in enumerate(zip(cuts[::2], cuts[1::2])):
            nearby = self.durations[max(first + i - NEIGHBOURS, 0) : first + i + NEIGHBOURS]
            total += (b - a) * REFERENCE_S / statistics.median(nearby)
        return total
