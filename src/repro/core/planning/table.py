"""PlanTable — skeleton plans compiled into flat array programs.

The dict-based passes in :mod:`repro.core.schedule` walk per-activity
``Activity`` dataclasses through Python dicts: every pass pays attribute
lookups, dict copies and (for limited-LP scans) a fresh
:class:`~repro.core.schedule.ScheduledActivity` per activity *per
candidate LP*.  At 842 activities one full analysis pass costs ~180 ms,
nearly all of it in the minimal-LP scan re-deriving that state per
candidate.

This module applies the flattening playbook (immutable compiled program
representations + small-degree inlining, after pycket's interpreter): a
projected :class:`~repro.core.adg.ADG` is **compiled once** into an
immutable-structure :class:`PlanTable` —

* activity ids are the array index (ADG construction guarantees dense,
  topologically ordered ids), so every "map" becomes index arithmetic;
* predecessor/successor adjacency is stored CSR-style (one flat index
  array plus per-node offsets) with the common ``<= 2``-degree case
  **inlined** into two parallel arrays (``pred0``/``pred1``), so hot
  loops touch no Python containers for the typical node;
* estimates, actual starts/ends and a pending/running/finished state
  byte live in parallel ``array('d')`` / ``array('b')`` columns that a
  live plan table (:mod:`repro.core.planning.live`) patches in place as
  actuals land and estimates move.

Every scheduler pass then runs as index arithmetic over these columns:

* :func:`compiled_critical_path` — the priority table, one reversed
  array sweep (plus a prebuilt heap-entry list shared by every LP);
* :func:`compiled_pin` / :func:`compiled_pin_delta` — pass 1, pinning
  actuals into plain ``array`` columns (the delta variant advances a
  previous base to a new *now* via C-speed array copies, touching only
  the changelog'd activities);
* :func:`compiled_best_effort` / :func:`compiled_schedule_pending` —
  the best-effort longest-path walk and the event-driven limited-LP
  frontier pass, emitting :class:`CompiledSchedule` results that
  materialize their ``entries`` dict lazily (a minimal-LP scan never
  pays for entries it only asks ``.wct`` of).

**Bit-for-bit contract**: every compiled pass performs the *same
floating-point operations in the same order* as its dict twin in
:mod:`repro.core.schedule`, so WCTs, minimal LPs, timelines and
materialized entries are identical — pinned by the compiled-vs-dict
property harness in ``tests/core/test_plan_engine.py``.  The
:class:`~repro.core.planning.engine.PlanEngine` keys every schedule by
the table's revision and falls back to the dict path whenever
compilation is unsound (``compiled=False``, or an ADG with non-dense
ids).
"""

from __future__ import annotations

import heapq
import operator
from array import array
from math import nan
from typing import Dict, Iterable, List, Optional, Tuple

from ...errors import SchedulingError
from ..adg import ADG
from ..schedule import (
    ScheduledActivity,
    concurrency_timeline,
    peak_concurrency,
)

try:  # optional accelerator; every user keeps a pure-stdlib fallback
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

#: Below this many activities the per-call numpy overhead exceeds the
#: vectorized win, so :meth:`CompiledSchedule.peak` takes the pure-Python
#: timeline path (measured crossover: ~25 activities).
_NP_PEAK_MIN = 24

__all__ = [
    "PlanTable",
    "CompiledPinnedBase",
    "CompiledSchedule",
    "compiled_critical_path",
    "compiled_pin",
    "compiled_pin_delta",
    "compiled_best_effort",
    "compiled_schedule_pending",
    "compiled_minimal_lp",
]

_EPS = 1e-9

#: state byte -> ScheduledActivity.status string (index = state)
_STATUS = ("pending", "running", "finished")

PENDING = 0
RUNNING = 1
FINISHED = 2


class PlanTable:
    """One projected ADG, flattened into struct-of-arrays form.

    Structure (names, roles, adjacency) is immutable once built; the
    time columns (``start``/``end``/``duration``/``state``) of a live
    plan table are patched in place (:func:`repro.core.planning.live.
    patch`).  Invalidation is the engine's job: schedules key on the
    owning plan's revision.
    """

    __slots__ = (
        "n",
        "names",
        "roles",
        "duration",
        "start",
        "end",
        "state",
        "npred",
        "pred0",
        "pred1",
        "pred_ptr",
        "pred_ext",
        "nsucc",
        "succ0",
        "succ1",
        "succ_ptr",
        "succ_ext",
    )

    @classmethod
    def compile(cls, adg: ADG) -> Optional["PlanTable"]:
        """Flatten *adg*, or ``None`` when its ids are not dense.

        :class:`~repro.core.adg.ADG` construction always produces dense
        ``0..n-1`` ids in topological order; the ``None`` branch is a
        guard for hypothetical foreign graphs, and means "use the dict
        path".
        """
        acts = adg.activities
        n = len(acts)
        for i, act in enumerate(acts):
            if act.id != i:
                return None

        table = cls()
        table.n = n
        table.names = [a.name for a in acts]
        table.roles = [a.role for a in acts]
        table.duration = array("d", (a.duration for a in acts))
        table.start = array(
            "d", (nan if a.start is None else a.start for a in acts)
        )
        table.end = array("d", (nan if a.end is None else a.end for a in acts))
        table.state = array(
            "b",
            (
                FINISHED if a.end is not None else
                RUNNING if a.start is not None else PENDING
                for a in acts
            ),
        )

        succs: List[List[int]] = [[] for _ in range(n)]
        npred = array("q", bytes(8 * n))
        pred0 = array("q", (-1 for _ in range(n))) if n else array("q")
        pred1 = array("q", (-1 for _ in range(n))) if n else array("q")
        pred_ptr = array("q", bytes(8 * (n + 1)))
        pred_ext = array("q")
        off = 0
        for i, act in enumerate(acts):
            preds = act.preds
            c = len(preds)
            npred[i] = c
            pred_ptr[i] = off
            if c >= 1:
                pred0[i] = preds[0]
            if c >= 2:
                pred1[i] = preds[1]
            if c > 2:
                pred_ext.extend(preds)
                off += c
            for p in preds:
                succs[p].append(i)
        pred_ptr[n] = off

        nsucc = array("q", bytes(8 * n))
        succ0 = array("q", (-1 for _ in range(n))) if n else array("q")
        succ1 = array("q", (-1 for _ in range(n))) if n else array("q")
        succ_ptr = array("q", bytes(8 * (n + 1)))
        succ_ext = array("q")
        off = 0
        for i, ss in enumerate(succs):
            c = len(ss)
            nsucc[i] = c
            succ_ptr[i] = off
            if c >= 1:
                succ0[i] = ss[0]
            if c >= 2:
                succ1[i] = ss[1]
            if c > 2:
                succ_ext.extend(ss)
                off += c
        succ_ptr[n] = off

        table.npred = npred
        table.pred0 = pred0
        table.pred1 = pred1
        table.pred_ptr = pred_ptr
        table.pred_ext = pred_ext
        table.nsucc = nsucc
        table.succ0 = succ0
        table.succ1 = succ1
        table.succ_ptr = succ_ptr
        table.succ_ext = succ_ext
        return table

    def to_adg(self) -> ADG:
        """The table as an :class:`~repro.core.adg.ADG` — the inverse of
        :meth:`compile`, for rendering and inspection (never on the
        planning hot path)."""
        adg = ADG()
        start = self.start
        end = self.end
        for i in range(self.n):
            s = start[i]
            e = end[i]
            adg.add(
                self.names[i],
                self.duration[i],
                self.preds_of(i),
                start=None if s != s else s,
                end=None if e != e else e,
                role=self.roles[i],
            )
        return adg

    def preds_of(self, i: int) -> Tuple[int, ...]:
        """Predecessor ids of *i* (test/debug helper, not the hot path)."""
        c = self.npred[i]
        if c == 0:
            return ()
        if c == 1:
            return (self.pred0[i],)
        if c == 2:
            return (self.pred0[i], self.pred1[i])
        return tuple(self.pred_ext[self.pred_ptr[i]:self.pred_ptr[i + 1]])

    def succs_of(self, i: int) -> Tuple[int, ...]:
        """Successor ids of *i* (test/debug helper, not the hot path)."""
        c = self.nsucc[i]
        if c == 0:
            return ()
        if c == 1:
            return (self.succ0[i],)
        if c == 2:
            return (self.succ0[i], self.succ1[i])
        return tuple(self.succ_ext[self.succ_ptr[i]:self.succ_ptr[i + 1]])


class CompiledPinnedBase:
    """Array twin of :class:`~repro.core.schedule.PinnedPlanBase`.

    Immutable once built (schedule passes copy the columns they mutate);
    ``state`` is a snapshot so cached bases and results stay frozen when
    the table is later patched in place.
    """

    __slots__ = (
        "now",
        "ends",
        "pp",
        "state",
        "busy",
        "ready_items",
        "to_schedule",
        "_work",
    )

    def __init__(self, now, ends, pp, state, busy, ready_items, to_schedule):
        self.now = now
        self.ends = ends  # array('d'): pinned end per activity (pending: 0.0)
        self.pp = pp  # array('q'): unpinned-pred count, -1 for pinned
        self.state = state  # array('b') snapshot at pin time
        self.busy = busy  # heapified worker-release times (running only)
        self.ready_items = ready_items  # [(ready_time, aid)] frontier
        self.to_schedule = to_schedule
        self._work = None

    def pending_work(self, table: "PlanTable") -> float:
        """Worker-occupying work ``W`` still to schedule (memoized).

        The sum of the pending durations longer than the scheduling
        epsilon — zero-length activities never hold a worker.  With
        ``lp`` workers no schedule from this base ends before ``now + W
        / lp``: the work bound the minimal-LP scan and
        :meth:`~repro.core.planning.engine.PlanEngine.meets` prune with.
        *table* must be the table this base was pinned from, at the
        same revision.
        """
        work = self._work
        if work is None:
            duration = table.duration
            pp = self.pp
            work = self._work = sum(
                d
                for i in range(table.n)
                if pp[i] != -1 and (d := duration[i]) > _EPS
            )
        return work


class CompiledSchedule:
    """Array-backed :class:`~repro.core.schedule.ScheduleResult` twin.

    Exposes the same public surface (``wct`` / ``remaining`` /
    ``timeline`` / ``peak`` / ``entries`` / ``start_of`` / ``end_of``)
    over parallel start/end columns; the ``entries`` dict of
    :class:`~repro.core.schedule.ScheduledActivity` is materialized
    lazily and cached, so consumers that only read ``.wct`` (the whole
    minimal-LP scan) never allocate per-activity objects.  Timelines and
    peaks memoize per ``from_time``, like the dict result.
    """

    __slots__ = (
        "strategy",
        "now",
        "lp",
        "_starts",
        "_ends",
        "_state",
        "_names",
        "_wct",
        "_entries",
        "_timelines",
        "_peaks",
    )

    def __init__(self, strategy, now, lp, starts, ends, state, names):
        self.strategy = strategy
        self.now = now
        self.lp = lp
        self._starts = starts
        self._ends = ends
        self._state = state
        self._names = names
        self._wct = None
        self._entries = None
        self._timelines = {}
        self._peaks = {}

    @property
    def wct(self) -> float:
        """Absolute end time of the last activity (the estimated WCT)."""
        if self._wct is None:
            self._wct = max(self._ends, default=self.now)
        return self._wct

    def remaining(self) -> float:
        """Estimated seconds from *now* until completion."""
        return max(0.0, self.wct - self.now)

    @property
    def entries(self) -> Dict[int, ScheduledActivity]:
        """Materialized per-activity entries (built once, cached)."""
        if self._entries is None:
            starts = self._starts
            ends = self._ends
            state = self._state
            names = self._names
            self._entries = {
                i: ScheduledActivity(
                    i, names[i], starts[i], ends[i], _STATUS[state[i]]
                )
                for i in range(len(names))
            }
        return self._entries

    def timeline(self, from_time: Optional[float] = None) -> List[Tuple[float, int]]:
        """Step function ``(time, concurrent activities)`` — Figure 2."""
        cached = self._timelines.get(from_time)
        if cached is None:
            floor = from_time if from_time is not None else -float("inf")
            intervals = [
                (s, e) for s, e in zip(self._starts, self._ends) if e > floor
            ]
            cached = concurrency_timeline(intervals, from_time=from_time)
            self._timelines[from_time] = cached
        return cached

    def peak(self, from_time: Optional[float] = None) -> int:
        """Maximum concurrency (optionally only from *from_time* onwards).

        When the step function itself was never asked for and the
        schedule has at least ``_NP_PEAK_MIN`` activities, the peak is
        computed directly from the start/end columns with numpy (same
        filtering, grouping and crop rules as :func:`~repro.core.
        schedule.concurrency_timeline` — the value is identical); small
        schedules and memoized timelines take the timeline path.
        """
        cached = self._peaks.get(from_time)
        if cached is None:
            if (
                _np is not None
                and len(self._starts) >= _NP_PEAK_MIN
                and from_time not in self._timelines
            ):
                cached = _np_peak(self._starts, self._ends, from_time)
            else:
                cached = peak_concurrency(self.timeline(from_time))
            self._peaks[from_time] = cached
        return cached

    def start_of(self, aid: int) -> float:
        return self._starts[aid]

    def end_of(self, aid: int) -> float:
        return self._ends[aid]


def _np_peak(starts: array, ends: array, from_time: Optional[float]) -> int:
    """Peak concurrency straight from the schedule columns (numpy).

    Reproduces ``peak_concurrency(concurrency_timeline(intervals,
    from_time))`` over ``CompiledSchedule.timeline``'s interval filter
    exactly: zero-length intervals (``end - start <= _EPS``) contribute
    nothing, deltas aggregate per *distinct* time before a level is
    recorded (the cumulative sum at each time-group's end — order inside
    a group cannot matter), and the crop keeps levels at ``t >=
    from_time`` plus the entry level when the first kept time lies
    strictly after *from_time*.  Levels are exact small-integer sums, so
    the value is bit-identical to the dict computation.
    """
    s = _np.frombuffer(starts, dtype=_np.float64)
    e = _np.frombuffer(ends, dtype=_np.float64)
    keep = e - s > _EPS
    if from_time is not None:
        keep &= e > from_time
    s = s[keep]
    e = e[keep]
    if not s.size:
        return 0
    t = _np.concatenate((s, e))
    d = _np.concatenate(
        (_np.ones(s.size, dtype=_np.int64), _np.full(e.size, -1, dtype=_np.int64))
    )
    order = _np.argsort(t)
    t = t[order]
    levels = _np.cumsum(d[order])
    group_end = _np.empty(t.size, dtype=bool)
    group_end[:-1] = t[1:] != t[:-1]
    group_end[-1] = True
    t = t[group_end]
    levels = levels[group_end]
    if from_time is None:
        return int(levels.max())
    at = int(_np.searchsorted(t, from_time, side="left"))
    level_at = int(levels[at - 1]) if at else 0
    if at == t.size:
        return level_at  # the crop degenerates to [(from_time, level_at)]
    best = int(levels[at:].max())
    if t[at] > from_time and level_at > best:
        best = level_at
    return best


# ---------------------------------------------------------------------------
# compiled passes


def compiled_critical_path(table: PlanTable) -> Tuple[array, list]:
    """Remaining dependency-chain length per activity, plus priority heap
    entries.

    Returns ``(cp, prio)``: the float column (twin of
    :func:`~repro.core.schedule.remaining_critical_path`) and a prebuilt
    list of ``(-cp, aid)`` heap entries — the entries are LP-independent,
    so one allocation seeds every frontier pass of a minimal-LP scan.
    """
    n = table.n
    cp = array("d", bytes(8 * n))
    duration = table.duration
    state = table.state
    nsucc = table.nsucc
    succ0 = table.succ0
    succ1 = table.succ1
    succ_ptr = table.succ_ptr
    succ_ext = table.succ_ext
    for i in range(n - 1, -1, -1):
        c = nsucc[i]
        best = 0.0
        if c:
            best = cp[succ0[i]]
            if c >= 2:
                if c == 2:
                    v = cp[succ1[i]]
                    if v > best:
                        best = v
                else:
                    for s in succ_ext[succ_ptr[i]:succ_ptr[i + 1]]:
                        v = cp[s]
                        if v > best:
                            best = v
        if state[i] != FINISHED:
            best += duration[i]
        cp[i] = best
    # zip(map(neg, ...)) builds the (-cp, aid) entries at C speed; float
    # negation is exact, so the entries equal the comprehension's bit for
    # bit.
    prio = list(zip(map(operator.neg, cp), range(n)))
    return cp, prio


def compiled_pin(table: PlanTable, now: float) -> CompiledPinnedBase:
    """Pin finished and running activities — array twin of
    :func:`~repro.core.schedule.pin_actuals`."""
    n = table.n
    state = array("b", table.state)  # snapshot: tables refresh in place
    start = table.start
    end = table.end
    duration = table.duration
    npred = table.npred
    pred0 = table.pred0
    pred1 = table.pred1
    pred_ptr = table.pred_ptr
    pred_ext = table.pred_ext

    ends = array("d", bytes(8 * n))
    pp = array("q", bytes(8 * n))
    busy: List[float] = []
    ready_items: List[Tuple[float, int]] = []
    to_schedule = 0
    for i in range(n):
        s = state[i]
        if s == FINISHED:
            ends[i] = end[i]
            pp[i] = -1
        elif s == RUNNING:
            e = start[i] + duration[i]
            if e < now:
                e = now
            ends[i] = e
            pp[i] = -1
            busy.append(e)
        else:
            to_schedule += 1
            c = npred[i]
            cnt = 0
            if c:
                if c == 1:
                    cnt = 1 if state[pred0[i]] == PENDING else 0
                elif c == 2:
                    cnt = (1 if state[pred0[i]] == PENDING else 0) + (
                        1 if state[pred1[i]] == PENDING else 0
                    )
                else:
                    for p in pred_ext[pred_ptr[i]:pred_ptr[i + 1]]:
                        if state[p] == PENDING:
                            cnt += 1
            pp[i] = cnt
            if cnt == 0:
                r = now
                if c:
                    if c == 1:
                        e = ends[pred0[i]]
                        if e > r:
                            r = e
                    elif c == 2:
                        e = ends[pred0[i]]
                        if e > r:
                            r = e
                        e = ends[pred1[i]]
                        if e > r:
                            r = e
                    else:
                        for p in pred_ext[pred_ptr[i]:pred_ptr[i + 1]]:
                            e = ends[p]
                            if e > r:
                                r = e
                ready_items.append((r, i))
    heapq.heapify(busy)
    return CompiledPinnedBase(now, ends, pp, state, busy, ready_items, to_schedule)


def compiled_pin_delta(
    table: PlanTable,
    now: float,
    prev: CompiledPinnedBase,
    touched: Iterable[int],
) -> CompiledPinnedBase:
    """Advance *prev* to *now* touching only what changed — array twin of
    :func:`~repro.core.schedule.pin_actuals_delta`.

    The per-activity columns copy at C speed; only the delta-touched
    activities, the running re-clamp and the frontier re-derivation do
    Python-level work.  The result equals :func:`compiled_pin` bit for
    bit, given that the table changed since *prev* only in the *touched*
    rows (which a live plan table's patch reports).
    """
    n = table.n
    touched = set(touched)
    state = array("b", table.state)  # post-refresh truth == prev + touches
    start = table.start
    end = table.end
    duration = table.duration

    ends = array("d", prev.ends)
    pp = array("q", prev.pp)
    to_schedule = prev.to_schedule
    newly_pinned: List[int] = []
    for aid in sorted(touched):
        s = state[aid]
        if s == PENDING:
            continue  # still pending: counts and (estimate) duration unchanged
        if pp[aid] != -1:
            pp[aid] = -1
            to_schedule -= 1
            newly_pinned.append(aid)
        if s == FINISHED:
            ends[aid] = end[aid]
        else:
            e = start[aid] + duration[aid]
            if e < now:
                e = now
            ends[aid] = e

    nsucc = table.nsucc
    succ0 = table.succ0
    succ1 = table.succ1
    succ_ptr = table.succ_ptr
    succ_ext = table.succ_ext
    for aid in newly_pinned:
        c = nsucc[aid]
        if c:
            if c == 1:
                s0 = succ0[aid]
                if pp[s0] >= 0:
                    pp[s0] -= 1
            elif c == 2:
                for s0 in (succ0[aid], succ1[aid]):
                    if pp[s0] >= 0:
                        pp[s0] -= 1
            else:
                for s0 in succ_ext[succ_ptr[aid]:succ_ptr[aid + 1]]:
                    if pp[s0] >= 0:
                        pp[s0] -= 1

    # Untouched running activities re-clamp to the new now; the busy heap
    # is rebuilt from every still-running end (touched or not).
    busy: List[float] = []
    for i in range(n):
        if state[i] == RUNNING:
            if i not in touched:
                e = start[i] + duration[i]
                if e < now:
                    e = now
                ends[i] = e
            busy.append(ends[i])
    heapq.heapify(busy)

    npred = table.npred
    pred0 = table.pred0
    pred1 = table.pred1
    pred_ptr = table.pred_ptr
    pred_ext = table.pred_ext
    ready_items: List[Tuple[float, int]] = []
    for i in range(n):
        if pp[i] == 0:
            r = now
            c = npred[i]
            if c:
                if c == 1:
                    e = ends[pred0[i]]
                    if e > r:
                        r = e
                elif c == 2:
                    e = ends[pred0[i]]
                    if e > r:
                        r = e
                    e = ends[pred1[i]]
                    if e > r:
                        r = e
                else:
                    for p in pred_ext[pred_ptr[i]:pred_ptr[i + 1]]:
                        e = ends[p]
                        if e > r:
                            r = e
            ready_items.append((r, i))
    return CompiledPinnedBase(now, ends, pp, state, busy, ready_items, to_schedule)


def compiled_best_effort(table: PlanTable, now: float) -> CompiledSchedule:
    """Infinite-LP schedule — array twin of
    :func:`~repro.core.schedule.best_effort_schedule`."""
    n = table.n
    state = array("b", table.state)
    start = table.start
    end = table.end
    duration = table.duration
    npred = table.npred
    pred0 = table.pred0
    pred1 = table.pred1
    pred_ptr = table.pred_ptr
    pred_ext = table.pred_ext

    starts = array("d", bytes(8 * n))
    ends = array("d", bytes(8 * n))
    for i in range(n):
        s = state[i]
        if s == FINISHED:
            starts[i] = start[i]
            ends[i] = end[i]
        elif s == RUNNING:
            starts[i] = start[i]
            e = start[i] + duration[i]
            ends[i] = e if e >= now else now
        else:
            r = now
            c = npred[i]
            if c:
                if c == 1:
                    e = ends[pred0[i]]
                    if e > r:
                        r = e
                elif c == 2:
                    e = ends[pred0[i]]
                    if e > r:
                        r = e
                    e = ends[pred1[i]]
                    if e > r:
                        r = e
                else:
                    for p in pred_ext[pred_ptr[i]:pred_ptr[i + 1]]:
                        e = ends[p]
                        if e > r:
                            r = e
            starts[i] = r
            ends[i] = r + duration[i]
    return CompiledSchedule(
        "best-effort", now, None, starts, ends, state, table.names
    )


def compiled_schedule_pending(
    table: PlanTable,
    now: float,
    lp: int,
    base: CompiledPinnedBase,
    prio: list,
) -> CompiledSchedule:
    """Event-driven limited-LP pass 2 — array twin of
    :func:`~repro.core.schedule.schedule_pending` at ``critical-path``
    priority.

    *base* and *prio* are never mutated: the columns copy, the heaps are
    rebuilt, and *prio*'s prebuilt ``(-cp, aid)`` entries are shared by
    reference — one pinning pass plus one priority table seeds every LP
    of a scan.  Invariant exploited over the dict twin: stale busy
    entries are dropped eagerly, so the active-worker count is
    ``len(busy)`` instead of a per-iteration scan.
    """
    if lp < 1:
        raise SchedulingError(f"lp must be >= 1, got {lp}")

    starts = array("d", table.start)
    ends = array("d", base.ends)
    pp = array("q", base.pp)
    busy = list(base.busy)
    waiting = list(base.ready_items)
    heapq.heapify(waiting)
    to_schedule = base.to_schedule

    duration = table.duration
    nsucc = table.nsucc
    succ0 = table.succ0
    succ1 = table.succ1
    succ_ptr = table.succ_ptr
    succ_ext = table.succ_ext
    npred = table.npred
    pred0 = table.pred0
    pred1 = table.pred1
    pred_ptr = table.pred_ptr
    pred_ext = table.pred_ext
    heappush = heapq.heappush
    heappop = heapq.heappop

    ready: List[Tuple[float, int]] = []
    cursor = now
    scheduled = 0
    # Eagerly drop already-released workers: afterwards every busy entry
    # is > cursor + EPS, so len(busy) is the dict twin's `active` count.
    limit = cursor + _EPS
    while busy and busy[0] <= limit:
        heappop(busy)

    while scheduled < to_schedule:
        while waiting and waiting[0][0] <= limit:
            aid = heappop(waiting)[1]
            heappush(ready, prio[aid])
        if ready and len(busy) < lp:
            aid = heappop(ready)[1]
            d = duration[aid]
            e = cursor + d
            starts[aid] = cursor
            ends[aid] = e
            if d > _EPS:
                heappush(busy, e)
            scheduled += 1
            c = nsucc[aid]
            if c:
                if c == 1:
                    release = (succ0[aid],)
                elif c == 2:
                    release = (succ0[aid], succ1[aid])
                else:
                    release = succ_ext[succ_ptr[aid]:succ_ptr[aid + 1]]
                for s in release:
                    cnt = pp[s]
                    if cnt > 0:
                        cnt -= 1
                        pp[s] = cnt
                        if cnt == 0:
                            # max predecessor end, clamped to the cursor
                            # (_ready_time inlined over hoisted columns —
                            # this runs once per scheduled activity per
                            # scanned LP).
                            r = cursor
                            pc = npred[s]
                            if pc:
                                if pc == 1:
                                    pe = ends[pred0[s]]
                                    if pe > r:
                                        r = pe
                                elif pc == 2:
                                    pe = ends[pred0[s]]
                                    if pe > r:
                                        r = pe
                                    pe = ends[pred1[s]]
                                    if pe > r:
                                        r = pe
                                else:
                                    o = pred_ptr[s]
                                    for p in pred_ext[o:o + pc]:
                                        pe = ends[p]
                                        if pe > r:
                                            r = pe
                            heappush(waiting, (r, s))
            continue
        # Advance the cursor to the next event: a worker freeing up or a
        # waiting activity becoming ready.
        if ready and busy:
            cand = busy[0]
            if waiting and waiting[0][0] < cand:
                cand = waiting[0][0]
        elif waiting:
            cand = waiting[0][0]
        else:
            raise SchedulingError(
                "list scheduler stalled: no ready work and no future events "
                f"({to_schedule - scheduled} activities unscheduled)"
            )
        if cand > cursor:
            cursor = cand
        limit = cursor + _EPS
        while busy and busy[0] <= limit:
            heappop(busy)
    return CompiledSchedule(
        "limited-lp", now, lp, starts, ends, base.state, table.names
    )


def _ready_time(table: PlanTable, s: int, ends: array, cursor: float) -> float:
    """Max of *s*'s predecessor ends, clamped to *cursor*."""
    r = cursor
    c = table.npred[s]
    if c:
        if c == 1:
            e = ends[table.pred0[s]]
            if e > r:
                r = e
        elif c == 2:
            e = ends[table.pred0[s]]
            if e > r:
                r = e
            e = ends[table.pred1[s]]
            if e > r:
                r = e
        else:
            for p in table.pred_ext[table.pred_ptr[s]:table.pred_ptr[s + 1]]:
                e = ends[p]
                if e > r:
                    r = e
    return r


def compiled_minimal_lp(
    table: PlanTable,
    now: float,
    deadline: float,
    max_lp: Optional[int] = None,
    start_lp: int = 1,
    base: Optional[CompiledPinnedBase] = None,
    prio: Optional[list] = None,
    peak: Optional[int] = None,
) -> Optional[Tuple[int, CompiledSchedule]]:
    """Smallest LP whose greedy schedule meets *deadline* — array twin of
    :func:`~repro.core.schedule.minimal_lp_greedy`.

    One compiled table (plus one pinned base and one priority list,
    computed here when not passed in) is shared across every candidate
    LP, so each scanned LP pays only its frontier pass — and most
    candidates don't even pay that: with *lp* workers the pending
    worker-occupying work ``W`` cannot complete before ``now + W / lp``
    (a pending activity longer than the scheduling epsilon only starts
    while a worker is free and then occupies it until its end), so any
    candidate whose work bound already misses the deadline is rejected
    without running its schedule.  The bound is a true lower bound on
    the greedy schedule's WCT, so the returned answer — first feasible
    LP, its schedule, or ``None`` — is identical to the unpruned scan.
    """
    if peak is None:
        # A caller that already ran the best-effort pass (every analysis
        # recipe does) passes its peak in and skips this duplicate pass.
        peak = compiled_best_effort(table, now).peak(from_time=now)
    upper = max(peak, 1)
    if max_lp is not None:
        upper = min(upper, max_lp)
    if base is None:
        base = compiled_pin(table, now)
    if prio is None:
        _cp, prio = compiled_critical_path(table)
    pending_work = base.pending_work(table)
    for lp in range(max(1, start_lp), upper + 1):
        if now + pending_work / lp > deadline + _EPS:
            continue  # work bound: no lp-worker greedy schedule can fit
        schedule = compiled_schedule_pending(table, now, lp, base, prio)
        if schedule.wct <= deadline + _EPS:
            return lp, schedule
    return None
