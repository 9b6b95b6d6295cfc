"""Machine-speed gauge: scales measured times to a reference machine.

The benchmark runs on a shared host whose speed drifts by a third or
more over minutes, and by several percent from one second to the next,
as other tenants come and go; process CPU time drifts with it.  A run
therefore also times a fixed unit of pure-Python work, the reference,
in short probes interleaved with its timed operations, and reports each
operation's time scaled to a machine on which one probe takes
REFERENCE_S seconds:

    scaled time = measured time * REFERENCE_S / local probe time

where the local probe time is the median of the probes taken within
LOCAL_S seconds of the operation.  A change to certreal moves the
measured times and not the probes, so it shows in full in the scaled
figures, while a slow spell of the host moves both and cancels.  The
reference uses only builtins and nothing of certreal, so no change to
the package can move it.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

# nominal probe time: about the median on a 2-vCPU x86-64 guest with
# CPython 3.11, so that scaled figures read close to measured ones there
REFERENCE_S = 0.003

# probes run until they have taken this share of the timed work
PROBE_SHARE = 0.1

# an operation is scaled by the probes within this many seconds of its
# midpoint, or by the nearest MIN_LOCAL on each side when fewer are
LOCAL_S = 1.0
MIN_LOCAL = 4

_X = 3 ** 1300
_Y = 7 ** 1200


class _Node:
    """A node of a small expression tree, walked by method calls."""

    __slots__ = ("left", "right", "leaf")

    def __init__(self, left, right, leaf):
        self.left, self.right, self.leaf = left, right, leaf

    def value(self, k: int) -> int:
        if self.left is None:
            return (self.leaf << k) // 3
        a, b = self.left.value(k + 1), self.right.value(k + 1)
        return (a + b) >> 1 if self.leaf % 2 else (a * b) >> (k + 1)


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(None, None, i + 1)
    return _Node(_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1), i)


def reference() -> int:
    """The fixed unit of work, in the three kinds certreal's own code
    does: an interpreter loop of small-integer arithmetic, building and
    walking trees of small objects, and products of a few thousand
    bits."""
    s = 0
    for i in range(12000):
        s += i * i % 7
    for i in range(4):
        s ^= _tree(7, i).value(60)
    for i in range(90):
        s ^= (_X * _Y + i) >> (i + 1000)
    return s


class Gauge:
    """Probe samples taken alongside timed work, with their times."""

    def __init__(self, share: float = PROBE_SHARE):
        self.share = share
        self.stamps = []    # perf_counter() midpoint of each probe
        self.samples = []   # its duration in seconds
        self.spent = 0.0
        reference()  # warm-up, unrecorded

    def probe(self) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def keep_up(self, busy_s: float) -> None:
        """Probe until the probes have taken ``share`` of ``busy_s``,
        the timed work so far."""
        while self.spent < self.share * busy_s:
            self.probe()

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def local_s(self, at: float) -> float:
        """Median probe time around the perf_counter() instant ``at``."""
        lo = bisect.bisect_left(self.stamps, at - LOCAL_S)
        hi = bisect.bisect_right(self.stamps, at + LOCAL_S)
        mid = bisect.bisect(self.stamps, at)
        lo = max(0, min(lo, mid - MIN_LOCAL))
        hi = min(len(self.stamps), max(hi, mid + MIN_LOCAL))
        return statistics.median(self.samples[lo:hi])

    def scaled(self, times, stamps) -> list:
        """Each time (seconds, taken around the instant of the same
        index in ``stamps``) as it would read on the reference machine."""
        return [t * REFERENCE_S / self.local_s(at)
                for t, at in zip(times, stamps)]
