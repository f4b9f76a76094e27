"""The machine's speed, sampled while the benchmark times the program.

Imports nothing from ``repro``, so that a fresh interpreter can time the
program's own import with it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Seconds between two samples of the machine's speed while sampling.
SPEED_INTERVAL = 0.02
#: Seconds :func:`reference_loop` takes at the reference speed: its time on
#: an uncontended core of the 2-core VM the baseline was recorded on.
REFERENCE_S = 0.0003
#: Share of a span's slowest samples left out of its slowdown.
PREEMPTED_SHARE = 0.05


class _Slot:
    __slots__ = ("key", "table")

    def __init__(self, key: int) -> None:
        self.key = key
        self.table: dict = {}


def _accumulator():
    total = 0
    while True:
        total += yield total


def reference_loop() -> None:
    """A fixed slice of pure-Python work of the simulator's kinds (generator
    resumptions, small objects, dictionaries, a heap): about 0.3 ms."""
    heap: list = []
    accumulate = _accumulator()
    next(accumulate)
    for i in range(300):
        slot = _Slot(i)
        slot.table[i & 7] = accumulate.send(i)
        heapq.heappush(heap, ((i * 7919) % 1009, i))
    while heap:
        heapq.heappop(heap)


class MachineSpeed:
    """How fast this machine runs :func:`reference_loop` while cells run.

    On a shared host the same instructions take up to twice as long while a
    neighbour contends for the core, and that switches within seconds.  A
    timer signal runs the loop every :data:`SPEED_INTERVAL` seconds between
    :meth:`start` and :meth:`stop` (about 1.5% of the time), and each of
    them runs it once more.  A wall time divided by :meth:`slowdown` is the time
    the work would have taken at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> int:
        """Start sampling; returns the index of the first new sample."""
        first = len(self.samples)
        self._sample(None, None)  # so that even a short span has samples
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL, SPEED_INTERVAL)
        return first

    def stop(self) -> int:
        """Stop sampling; returns the index past the last sample taken."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)
        return len(self.samples)

    def slowdown(self, first: int, end: int) -> float:
        """Mean loop time of ``samples[first:end]`` over :data:`REFERENCE_S`.

        The slowest :data:`PREEMPTED_SHARE` of the samples are left out:
        they were preempted, not slowed by a neighbour, and the work around
        them did not pay it.
        """
        during = sorted(self.samples[first:end])
        kept = during[:max(1, int(len(during) * (1 - PREEMPTED_SHARE)))]
        return statistics.fmean(kept) / REFERENCE_S
