"""The sandbox's speed, read off a fixed calibration loop.

The sandbox is shared, and other tenants slow every process in it down,
at every time scale: a reading of the loop below varies by about 30%
from one second to the next and by up to three times over minutes, and
the same `verify_all` call takes 3.3 s in a calm phase and up to 10 s in
a slow one.  No statistic over one run's samples removes a slow phase
that lasts as long as the run.  What does is timing a loop that okubo
cannot change beside the operations: an operation's latency times
``REFERENCE_S / loop time`` is its latency at the speed at which the loop
takes REFERENCE_S.

The loop mixes the kinds of work okubo's time goes to, because the slow
phases slow them down by different amounts: `Fraction` arithmetic on
small numbers, products of big integers, and reads scattered over a
buffer larger than the processor's caches.  A reading is the geometric
mean of the three parts' times, each the best of three runs.  Single
readings are noisy, so an operation is scaled by the median of the
readings taken within WINDOW_S of it.

run.py takes the readings in its own process, while the workload waits
for them (see worker.py), so that the loop's buffer does not count in
the workload's memory.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from fractions import Fraction

#: the reading the scaled figures refer to: about the loop's time on the
#: 2-vCPU sandbox the baseline was measured on, in its calm phases
REFERENCE_S = 0.0015
#: readings are taken between operations, at most this often
EVERY_S = 0.25
#: an operation is scaled by the readings taken this close to it
WINDOW_S = 0.5

_rng = random.Random(0)
_FRACTIONS = [(Fraction(_rng.randrange(1, 10 ** 6), _rng.randrange(1, 10 ** 6)),
               Fraction(_rng.randrange(1, 10 ** 6), _rng.randrange(1, 10 ** 6)))
              for _ in range(300)]
del _rng
_BIG = (3 ** 2000, 7 ** 1500)
_BUFFER_BYTES = 64 << 20
_buffer = None


def _fractions() -> None:
    for f, g in _FRACTIONS:
        f * g + f


def _big_ints() -> None:
    x, y = _BIG
    for i in range(40):
        x * y // (y + i)


def _scattered_reads() -> None:
    global _buffer
    if _buffer is None:
        # written, so that every page is really mapped
        _buffer = memoryview(bytearray(b"\1") * _BUFFER_BYTES).cast("Q")
    words = len(_buffer)
    total = 0
    for k in range(3000):
        total += _buffer[k * 2654435761 % words]


PARTS = (_fractions, _big_ints, _scattered_reads)


def _best_of_three(part) -> float:
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        part()
        best = min(best, time.perf_counter() - start)
    return best


def reading() -> float:
    """Seconds: the geometric mean of the parts' best-of-three times."""
    return math.exp(statistics.fmean(math.log(_best_of_three(part))
                                     for part in PARTS))


class Speedometer:
    """Readings taken between operations, with their times.

    ``read`` returns one reading; in a workload process it asks run.py.
    """

    def __init__(self, read=reading):
        self.read = read
        self.times = []
        self.readings = []

    def tick(self, force: bool = False) -> None:
        """Take a reading if the last one is EVERY_S old (or ``force``)."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= EVERY_S:
            value = self.read()
            self.times.append(now)
            self.readings.append(value)

    def scale(self, start: float, latency: float) -> float:
        """``latency`` of an operation begun at ``start``, at the
        reference speed: scaled by the median of the readings within
        WINDOW_S of the operation, or of the two nearest if there are
        none."""
        first = bisect.bisect_left(self.times, start - WINDOW_S)
        last = bisect.bisect_right(self.times, start + latency + WINDOW_S)
        if last - first < 2:
            at = bisect.bisect_left(self.times, start)
            first, last = max(at - 1, 0), at + 1
        loop = statistics.median(self.readings[first:last])
        return latency * REFERENCE_S / loop
