"""Host speed, measured by a fixed reference computation between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two over minutes, with no steal time to show for it: other
tenants contend for the same cores and caches.  Raw times therefore move with
the host, not with the program.  ``Reference`` times a fixed piece of pure
Python between operations, close to the kind of work oockit does (canonical
translates and difference sets of codewords), and scales each operation's
time by how slow the reference ran around it:

    scaled = seconds * REF_S / median(reference times within WINDOW_S of the run)

so every time reads as it would on a host where the reference takes
``REF_S``.  The reference is the benchmark's own code, so a change to oockit
cannot move it.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

REF_S = 0.002
WINDOW_S = 1.0
_M = 97
_rng = random.Random(0)
_CODEWORDS = [
    tuple(sorted({(_rng.randrange(3), _rng.randrange(_M)) for _ in range(3)}))
    for _ in range(300)
]


def reference_work() -> int:
    """The fixed computation: least translates and difference sets."""
    total = 0
    for cw in _CODEWORDS:
        least = min(tuple(sorted((r, (s - t) % _M) for r, s in cw)) for _, t in cw)
        diffs = {(x - y) % _M for _, x in cw for _, y in cw if x != y}
        total += least[0][1] + len(diffs)
    return total


class Reference:
    """Reference samples, in time order, and the scale they give a time span."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            reference_work()
            self.starts.append(t0)
            self.seconds.append(perf_counter() - t0)

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the median reference time within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return REF_S / statistics.median(near)
