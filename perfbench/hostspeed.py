"""Host speed: a fixed pure-Python kernel timed between rounds.

The benchmark runs on shared hosts whose speed drifts by a third over a
minute or so (CPU time drifts with wall time, so process time does not
escape it), and which flip between fast and slow spells within
milliseconds.  Every set-up is preceded by one timing of :func:`kernel`,
and every round by timings that add up to a fixed share of the previous
round's time, so the timings cover the run evenly.  A run's *speed
factor* is the mean of those timings over :data:`REFERENCE_S`, the
kernel's time on the host the benchmark was tuned on: the mean, not the
median, because the rounds too pay for fast and slow spells in
proportion.  Dividing a run's times by the factor (and multiplying its
rates) reports them in *reference seconds*, so runs made while the host
was slower or faster read alike.  The kernel runs none of the program's
code, so a change to the program moves the normalized figures exactly
as it moves the raw ones.

The kernel has two halves, because neighbours on a shared host slow
interpreter work and memory-bound work by different amounts: a mix of
interpreter operations, and a walk through a 4 MiB ring that misses the
private caches on nearly every step.
"""

from __future__ import annotations

import functools
import gc
import heapq
from array import array
import statistics
import time
from typing import List

#: Seconds :func:`kernel` takes on the tuning host (2-vCPU Linux VM,
#: Python 3.11).  Only the ratio of two runs' figures matters; this
#: constant keeps normalized figures close to raw ones.
REFERENCE_S = 0.030

_RING_BITS = 20


@functools.cache
def _ring() -> array:
    """A single cycle through 2**20 slots: ``i -> (a*i + c) mod 2**20``
    has full period for odd ``c`` and ``a % 4 == 1``.  Built once, on
    first use, and only read."""
    mask = (1 << _RING_BITS) - 1
    return array("i", (((1_664_525 * i + 1_013_904_223) & mask)
                       for i in range(1 << _RING_BITS)))


class _Item:
    __slots__ = ("key", "cost")

    def __init__(self, key: int, cost: int):
        self.key = key
        self.cost = cost

    def order(self):
        return (self.cost, self.key)


def kernel(ring: array, n: int = 5000) -> int:
    """Interpreter work of the kinds the loop does: small objects, method
    calls, dicts, sets, a heap, sorting, string formatting, exceptions."""
    acc = 0
    heap = []
    for i in range(n):
        item = _Item(i, (i * 7919) % 1009)
        heap.append(item.order())
        record = {"id": i, "cost": item.cost, "name": str(i)}
        acc += record["cost"] + len(record["name"])
        if 3 in {i & 15, item.cost & 15}:
            acc += 1
        acc += len(f"{i}:{item.cost}")
        try:
            if i % 50 == 0:
                raise ValueError(i)
        except ValueError:
            acc -= 1
    heapq.heapify(heap)
    while heap:
        acc ^= heapq.heappop(heap)[1]
    acc += sum(sorted(x * 31 % 97 for x in range(n)))
    slot = 0
    for _ in range(12 * n):
        slot = ring[slot]
    return acc + slot


class HostSpeed:
    def __init__(self) -> None:
        self.samples: List[float] = []
        self._ring = _ring()

    def sample(self, seconds: float = 0.0) -> None:
        """Time the kernel once, then again until *seconds* of kernel time
        are spent.  The collector is off, so the heap of the program under
        test does not leak into the timings."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            spent = 0.0
            while True:
                started = time.perf_counter()
                kernel(self._ring)
                took = time.perf_counter() - started
                self.samples.append(took)
                spent += took
                if spent >= seconds:
                    break
        finally:
            if enabled:
                gc.enable()

    @property
    def factor(self) -> float:
        """Mean kernel time over its reference time (above 1: slower)."""
        return statistics.fmean(self.samples) / REFERENCE_S
