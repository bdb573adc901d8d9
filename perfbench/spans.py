"""In-memory span recording and the statistics the benchmark reports.

A span is one timed call into a layer: ``[name, start, end, parent,
execution_id]`` with ``parent`` the index of the enclosing span on the
same thread (``None`` at the top).  Spans are kept in memory while a
run measures and written out once it ends.

A layer's *self time* is the duration of its spans minus the part of
each span covered by its child spans, so nested and re-entrant calls
(a publish from inside a listener, a schedule pass inside an analysis
and inside a minimal-LP scan) are never counted twice.  A span whose
direct parent has the same name is a sub-call of that span, not a call
of its own.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, EID = range(5)

#: Percentiles considered for the tail of a timing, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class SpanRecorder:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, execution_id: Optional[int] = None) -> int:
        stack = self._stack()
        span = [name, 0.0, None, stack[-1] if stack else None, execution_id]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        span[START] = self.clock()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._stack().pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, eid in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "execution_id": eid}
                ))
                out.write("\n")


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    A span still open (a call that outlived the measured round) counts
    zero and covers nothing.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and span[END] is not None:
            children.setdefault(parent, []).append((span[START], span[END]))
    result = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        if end is None:
            result.append(0.0)
            continue
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def is_call(spans: Sequence[list], idx: int) -> bool:
    """False for a sub-call: a span directly inside a span of its own name."""
    parent = spans[idx][PARENT]
    return parent is None or spans[parent][NAME] != spans[idx][NAME]


def layer_summary(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` (sub-calls excluded) and ``self_s``."""
    out: Dict[str, Dict[str, float]] = {}
    for idx, own in enumerate(self_times(spans)):
        entry = out.setdefault(spans[idx][NAME], {"calls": 0, "self_s": 0.0})
        entry["self_s"] += own
        if is_call(spans, idx):
            entry["calls"] += 1
    return out


def count_within(spans: Sequence[list], name: str, ancestor: str) -> int:
    """Calls of *name* made (at any depth) inside a span named *ancestor*."""
    count = 0
    for idx, span in enumerate(spans):
        if span[NAME] != name or not is_call(spans, idx):
            continue
        parent = span[PARENT]
        while parent is not None:
            if spans[parent][NAME] == ancestor:
                count += 1
                break
            parent = spans[parent][PARENT]
    return count


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the *q*-th percentile among *n* samples."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]


#: Rounds with at least this many latencies get percentiles of their own.
ROUND_PERCENTILE_MIN = 20


def round_percentile(rounds: Sequence[Sequence[float]], q: float) -> float:
    """The *q*-th percentile of a run's latencies, grouped by round.

    When every round has :data:`ROUND_PERCENTILE_MIN` samples or more,
    this is the mean over rounds of each round's own percentile, so a
    burst of host stalls moves the figure by its share of the rounds
    rather than by where it pushes one pooled rank; a mean, because the
    host-speed factor it is divided by is a mean too (see
    ``hostspeed``).  Otherwise (one execution per round) it is the
    percentile of all samples pooled.
    """
    if all(len(r) >= ROUND_PERCENTILE_MIN for r in rounds):
        return statistics.fmean(percentile(r, q) for r in rounds)
    return percentile([x for r in rounds for x in r], q)


def tail_percentile(
    samples: Sequence[float], min_beyond: int = 10
) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least *min_beyond* samples above it.

    Returns ``(q, value)`` for the highest ``q`` of
    :data:`TAIL_PERCENTILES` whose nearest rank leaves *min_beyond* or
    more samples beyond it, or ``None`` when not even the median does.
    """
    n = len(samples)
    for q in TAIL_PERCENTILES:
        if n - rank(n, q) >= min_beyond:
            return q, percentile(samples, q)
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
