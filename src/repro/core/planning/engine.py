"""The incremental planning engine — one seam under analyzer, admission
and arbiter.

Before this layer existed, planning was smeared across four call sites:
the analyzer drove :mod:`repro.core.schedule` from scratch on every
analysis point, admission re-projected skeletons on every held-queue
pass, and the arbiter's minimal-LP scans re-ran full list schedules (and
an extra best-effort pass inside :func:`~repro.core.schedule.
minimal_lp_greedy`) per execution per rebalance.  :class:`PlanEngine`
owns all of it behind explicit invalidation:

* **live projections** are one :class:`~repro.core.planning.live.
  LivePlan` table per execution and root set, patched in place: span
  landings, machines created into slots the table already holds, and
  ``t(m)``-only estimate changes rewrite rows; anything that can move
  the table's shape rebuilds it straight from the tracking machines,
  with no ``Activity`` or ADG on the way (:meth:`PlanEngine.
  projection`).  An execution that produced no events and no estimate
  change since the last analysis gets the same table back;
* **structural projections** (pre-start analysis, admission gates) are
  compiled straight to tables and memoized *across engines* by
  ``(structural fingerprint, estimate values)``, so same-shape
  submissions share one table without any walk (:meth:`PlanEngine.
  structural_plan`);
* **schedules** are cached on ``(table revision, lp, now)``: the pinned
  actuals and the critical-path priority list are computed once per
  ``(revision, now)`` / per revision and shared by every LP of a
  minimal-LP scan, and the pinned base advances across nows by
  re-pinning only the rows a patch touched (``count_pin_patch``);
* **bounds before passes** — the pending work ``W`` of a pinned base
  bounds every limited-LP schedule from below (``now + W / lp``), and
  the best-effort WCT bounds them all, so :meth:`PlanEngine.minimal_lp`
  and :meth:`PlanEngine.meets` skip the passes those bounds already
  decide;
* **admission arithmetic** schedules structural tables at ``start=0.0``,
  which is *now*-independent — held-queue re-evaluations hit the cache
  until an estimate actually changes;
* **quantized-now buckets** — with ``PlanCache(now_quantum=q)`` live
  schedules are computed and keyed at the bucket floor, so real-clock
  rebalances inside one bucket share plans at a decision skew bounded
  by ``q`` (off by default; exact timestamps preserve decisions bit
  for bit).

Every answer is bit-for-bit equal to a from-scratch
:mod:`repro.core.schedule` recompute over a fresh machine walk at the
same arguments, which the plan-engine property tests pin — quantized
mode excepted, whose skew bound is tested separately.

``compiled=False`` keeps the older dict path for comparison: projected
ADGs cached per ``(machine revision, estimator version)``, patched from
their span sources when the machine changelog certifies a span-only
window, and delta re-pinned.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, List, Optional, Tuple

from ...skeletons.base import Skeleton
from ..adg import ADG
from ..estimator import EstimatorRegistry
from ..projection import project_skeleton
from ..schedule import (
    PinnedPlanBase,
    ScheduleResult,
    best_effort_schedule,
    pin_actuals,
    pin_actuals_delta,
    remaining_critical_path,
    schedule_pending,
)
from ..statemachines import MachineRegistry
from ..statemachines.base import refresh_from_sources
from .cache import PlanCache
from .compile import (
    CompiledProjection,
    compile_structural,
    structural_fingerprint,
    structural_values_key,
)
from .live import LivePlan, build, patch
from .table import (
    CompiledPinnedBase,
    PlanTable,
    compiled_best_effort,
    compiled_critical_path,
    compiled_pin,
    compiled_schedule_pending,
)

__all__ = ["PlanEngine"]

_EPS = 1e-9

_engine_ids = itertools.count(1)
_plan_ids = itertools.count(1)

#: Root sets whose live plan an engine keeps (the stalest goes first).
_LIVE_PLANS = 4


class PlanEngine:
    """Cached schedule/LP/WCT computation for one execution (see module
    docs).

    Parameters
    ----------
    machines:
        The execution's tracking-machine registry (live projections key
        on its :attr:`~repro.core.statemachines.MachineRegistry.rev`).
    estimators:
        The execution's estimator registry (every cache key embeds its
        :attr:`~repro.core.estimator.EstimatorRegistry.version`).
    skeleton:
        Optional program structure, enabling the structural projection
        used by pre-start analysis and the admission gates.
    cache:
        The backing :class:`~repro.core.planning.cache.PlanCache`.  May
        be shared across engines (the service shares one service-wide);
        every key is namespaced by this engine's id.  ``None`` creates a
        private cache.
    patching:
        Patch the previous live projection in place when the machine
        changelog allows it (``count_projection_patch``) instead of
        rebuilding it, and advance pinned bases by delta re-pin
        (``count_pin_patch``).  Patched answers are bit-for-bit equal to
        full rebuilds — pinned by the plan-engine property harness — so
        this flag exists for benchmarking the delta pipeline against the
        plain cached baseline, not for safety.
    compiled:
        Plan over :class:`~repro.core.planning.table.PlanTable` flat
        arrays (default).  Live projections are one patched
        :class:`~repro.core.planning.live.LivePlan` per root set (a
        rebuild counts one ``count_projection_pass`` and one
        ``count_table_compile``; a patch that wrote rows one
        ``count_table_patch``), and best-effort / pinning /
        critical-path / limited-LP passes run as index arithmetic over
        the table, sharing one pinned base and one priority list across
        every LP of a minimal-LP scan.  Answers are bit-for-bit equal to
        the dict path — pinned by the compiled-vs-dict property harness
        — and ``compiled=False`` restores the dict path outright.
    """

    def __init__(
        self,
        machines: MachineRegistry,
        estimators: EstimatorRegistry,
        skeleton: Optional[Skeleton] = None,
        cache: Optional[PlanCache] = None,
        patching: bool = True,
        compiled: bool = True,
    ):
        self.machines = machines
        self.estimators = estimators
        self.skeleton = skeleton
        self.cache = cache if cache is not None else PlanCache()
        self.patching = patching
        self.compiled = compiled
        self._uid = next(_engine_ids)
        # id(adg) -> (weakref, version token) for ADGs this engine built;
        # lets plan calls key correctly on any ADG they are handed back.
        self._known: Dict[int, Tuple[weakref.ref, Tuple]] = {}
        # roots_key -> the live plan table of that root set (compiled).
        self._live: Dict[Tuple, LivePlan] = {}
        # Dict path: roots_key -> (machines rev, estimator version, adg,
        # adg rev at build/patch), the patch candidate for the next
        # projection; and id(adg) -> (weakref, adg rev, pinned base) for
        # delta re-pinning across rebalances.
        self._live_prev: Dict[Tuple, Tuple[int, int, ADG, int]] = {}
        self._pin_prev: Dict[int, Tuple[weakref.ref, int, PinnedPlanBase]] = {}
        # id(adg) -> (weakref, adg rev, table): an ADG handed to a
        # compiled engine, flattened once per revision.
        self._tables: Dict[int, Tuple[weakref.ref, int, PlanTable]] = {}
        # Lazy identity of the skeleton's structure (stable for the
        # engine's lifetime) and the estimate values the structural memo
        # keys on, re-derived only when the estimator version moves.
        self._struct_fp: Optional[str] = None
        self._struct_vkey: Optional[Tuple[int, Tuple]] = None
        self._lock = threading.RLock()

    # -- token bookkeeping --------------------------------------------------------

    def _remember(self, adg: ADG, token: Tuple) -> ADG:
        with self._lock:
            if len(self._known) > 64:
                self._known = {
                    key: entry
                    for key, entry in self._known.items()
                    if entry[0]() is not None
                }
            self._known[id(adg)] = (weakref.ref(adg), token)
        return adg

    def _token_of(self, adg: ADG) -> Optional[Tuple]:
        """The version token of an ADG this engine built, else ``None``
        (plans over foreign ADGs are computed but never cached).

        The ADG's own revision counter is folded in live, so mutating a
        projected ADG (``add``/``touch``) retires every plan derived
        from the old revision — the stale entries become LRU garbage.
        A :class:`CompiledProjection` carries its own engine-independent
        token (shape fingerprint + estimate values, revision frozen at
        0), so schedules derived from a shared structural plan are
        shared across engines too.
        """
        if type(adg) is CompiledProjection:
            return adg.token + (0,)
        if type(adg) is LivePlan:
            return adg.token + (adg.rev,)
        with self._lock:
            entry = self._known.get(id(adg))
        if entry is not None and entry[0]() is adg:
            return entry[1] + (adg.rev,)
        return None

    # -- projections ---------------------------------------------------------------

    def projection(self, now: float, roots: Optional[List] = None):
        """The live execution's projection (cached per revision).

        Projection reads machine state and estimates only — *now* is
        threaded through for interface compatibility but does not shape
        the result — so an execution with no new events and no estimate
        change gets the same projection back across rebalances.

        Compiled engines answer with the root set's
        :class:`~repro.core.planning.live.LivePlan`, patched in place
        when the changelog certifies the window
        (:func:`~repro.core.planning.live.patch`) and rebuilt straight
        from the machines otherwise.  ``compiled=False`` engines answer
        with an ADG: when the machine changelog (:meth:`~repro.core.
        statemachines.MachineRegistry.delta_since`) certifies that
        everything since the previous projection was span-only and the
        estimator version is unchanged, the previous ADG is refreshed in
        place from its span sources (:func:`~repro.core.statemachines.
        base.refresh_from_sources`) instead of re-walking every machine.
        """
        roots_key = (
            None if roots is None else tuple(m.index for m in roots)
        )
        # The machine lock makes (rev, projection) consistent under
        # concurrent worker-thread publishes.
        with self.machines.lock:
            if self.compiled:
                return self._live_plan(roots_key, roots)
            rev = self.machines.rev
            est_version = self.estimators.version
            token = (self._uid, "live", rev, est_version, roots_key)
            key = ("proj", token)
            adg = self._cached_projection(key)
            if adg is None:
                adg = self._patch_projection(roots_key, rev, est_version)
                if adg is None:
                    adg, _terminals = self.machines.project_roots(now, roots)
                    self.cache.count_projection_pass()
                self.cache.put(key, (adg, adg.rev))
                self._remember(adg, token)
                with self._lock:
                    self._live_prev[roots_key] = (rev, est_version, adg, adg.rev)
                    while len(self._live_prev) > _LIVE_PLANS:
                        # Evict the stalest candidate (root sets that are
                        # gone never patch again); keeping the map tiny
                        # also lets the changelog compact close behind
                        # the live frontier.
                        stalest = min(
                            self._live_prev, key=lambda k: self._live_prev[k][0]
                        )
                        del self._live_prev[stalest]
                    oldest = min(r for r, _v, _a, _ar in self._live_prev.values())
                self.machines.compact_changelog(oldest)
            return adg

    def _live_plan(self, roots_key: Tuple, roots: Optional[List]) -> LivePlan:
        """The root set's live plan, brought up to date (lock held)."""
        plan = self._live.get(roots_key)
        if (
            plan is not None
            and plan.machines_rev == self.machines.rev
            and plan.est_version == self.estimators.version
        ):
            return plan
        rev = plan.rev if plan is not None else None
        if plan is not None and self.patching and patch(
            plan, self.machines, self.estimators
        ):
            self.cache.count_projection_patch()
            if plan.rev != rev:
                self.cache.count_table_patch()
        else:
            targets = roots if roots is not None else self.machines.unfinished_roots()
            plan = build(
                self.machines,
                self.estimators,
                targets,
                roots_key,
                (self._uid, "live", next(_plan_ids)),
            )
            self.cache.count_projection_pass()
            self.cache.count_table_compile()
            live = self._live
            live[roots_key] = plan
            while len(live) > _LIVE_PLANS:
                # Root sets that are gone never patch again; a tiny map
                # also lets the changelog compact behind the live plans.
                del live[min(live, key=lambda k: live[k].machines_rev)]
        self.machines.compact_changelog(
            min(p.machines_rev for p in self._live.values())
        )
        return plan

    def _patch_projection(
        self, roots_key: Tuple, rev: int, est_version: int
    ) -> Optional[ADG]:
        """Patch the previous projection for *roots_key*, or ``None``.

        ``None`` means "no sound patch exists — do the full walk": no
        previous projection, changed estimates, a structural delta, a
        compacted changelog window, or a previous ADG some caller mutated
        behind the engine's back.
        """
        if not self.patching:
            return None
        with self._lock:
            prev = self._live_prev.get(roots_key)
        if prev is None:
            return None
        prev_rev, prev_est_version, adg, adg_rev = prev
        if prev_est_version != est_version or adg.rev != adg_rev:
            return None
        delta = self.machines.delta_since(prev_rev)
        if delta is None or delta.structural:
            return None
        if not delta.empty:
            # Something span-touched: re-read every span source.  A
            # window of pure no-ops (fan-out markers bump the revision
            # but touch nothing) skips even that — the old graph already
            # *is* what a fresh walk would build.
            refresh_from_sources(adg)
        self.cache.count_projection_patch()
        return adg

    def _cached_projection(self, key: Tuple) -> Optional[ADG]:
        """A cached projection, unless it was mutated since it was built.

        Entries store the ADG's revision at build time; a caller that
        mutated a served graph in place (``add``/``touch``) gets it
        rebuilt instead of poisoning every later analysis — matching the
        pre-engine behaviour, where each analysis projected fresh.
        """
        cached = self.cache.get(key)
        if cached is None:
            return None
        adg, rev_at_build = cached
        return adg if adg.rev == rev_at_build else None

    def structural_projection(self) -> Optional[ADG]:
        """The skeleton's structural ADG (cached per estimator version).

        ``None`` without a skeleton or while its estimates are cold.
        """
        if self.skeleton is None or not self.estimators.ready_for(self.skeleton):
            return None
        token = (self._uid, "struct", self.estimators.version)
        key = ("proj", token)
        adg = self._cached_projection(key)
        if adg is None:
            adg = ADG()
            project_skeleton(self.skeleton, adg, [], self.estimators)
            self.cache.count_projection_pass()
            self.cache.put(key, (adg, adg.rev))
            self._remember(adg, token)
        return adg

    def structural_plan(self) -> Optional[CompiledProjection]:
        """The skeleton's structural projection, compiled straight to a
        table and memoized *across engines* by program shape.

        The :class:`~repro.core.planning.compile.ProjectionCompiler`
        walks the skeleton structure once and emits the PlanTable
        columns directly — no ``Activity`` objects, no intermediate ADG
        — and the result is cached in the (shared) :class:`PlanCache`
        under ``(structural fingerprint, estimate values)``.  Identical
        program shapes at identical estimates — multi-tenant
        same-workload submissions, admission gates, held-queue
        re-promotions — therefore share one compiled table *and*, since
        the plan's token is engine-independent, every schedule derived
        from it (``count_struct_memo_hit`` / ``count_struct_compile``).

        ``None`` with compilation off, without a skeleton, or while its
        estimates are cold — callers fall back to
        :meth:`structural_projection`.
        """
        if (
            not self.compiled
            or self.skeleton is None
            or not self.estimators.ready_for(self.skeleton)
        ):
            return None
        fp = self._struct_fp
        if fp is None:
            fp = self._struct_fp = structural_fingerprint(self.skeleton)
        version = self.estimators.version
        cached_vkey = self._struct_vkey
        if cached_vkey is not None and cached_vkey[0] == version:
            vkey = cached_vkey[1]
        else:
            vkey = structural_values_key(self.skeleton, self.estimators)
            self._struct_vkey = (version, vkey)
        key = ("cproj", fp, vkey)
        plan = self.cache.get(key)
        if plan is not None:
            self.cache.count_struct_memo_hit()
            return plan
        plan = compile_structural(
            self.skeleton, self.estimators, token=("cstruct", fp, vkey)
        )
        self.cache.count_struct_compile()
        return self.cache.put(key, plan)

    # -- compiled plan tables --------------------------------------------------------

    def _table_for(self, adg) -> Optional[PlanTable]:
        """The flat array form of *adg*.

        ``None`` routes the caller to the dict path: compilation is off,
        or the ADG's ids are not dense (impossible for graphs built
        through the public API, guarded anyway).  Live plans and
        structural plans *are* tables; an ADG handed in (a foreign
        graph, :meth:`structural_projection`) is flattened once per
        revision (``count_table_compile``).
        """
        if not self.compiled:
            return None
        if type(adg) is LivePlan or type(adg) is CompiledProjection:
            return adg.table
        with self._lock:
            entry = self._tables.get(id(adg))
        if entry is not None and entry[0]() is adg and entry[1] == adg.rev:
            return entry[2]
        table = PlanTable.compile(adg)
        if table is None:
            return None
        self.cache.count_table_compile()
        with self._lock:
            if len(self._tables) > 64:
                self._tables = {
                    k: e for k, e in self._tables.items() if e[0]() is not None
                }
            self._tables[id(adg)] = (weakref.ref(adg), adg.rev, table)
        return table

    def _critical_path_compiled(self, adg: ADG, table: PlanTable) -> Tuple:
        """``(cp array, prio heap entries)`` for *table*, cached per rev."""
        token = self._token_of(adg)
        key = ("ccp", token) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        pair = compiled_critical_path(table)
        if key is not None:
            self.cache.put(key, pair)
        return pair

    def _pinned_compiled(
        self, adg, now: float, table: PlanTable
    ) -> CompiledPinnedBase:
        """The compiled pinned base for (adg, now), cached per token.

        Structural plans short-circuit: an all-pending immutable table
        pins by pure array copies (:meth:`CompiledProjection.
        pinned_fresh`).  A live plan advances its previous base over the
        rows patched since (:meth:`~repro.core.planning.live.LivePlan.
        pinned`, ``count_pin_patch``); an ADG pins in full.
        """
        if type(adg) is CompiledProjection:
            key = ("cpin", adg.token + (0,), now)
            cached = self.cache.get(key)
            if cached is not None:
                return cached
            return self.cache.put(key, adg.pinned_fresh(now))
        token = self._token_of(adg)
        key = ("cpin", token, now) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        if type(adg) is LivePlan and self.patching:
            with self._lock:
                base, delta = adg.pinned(now)
            if delta:
                self.cache.count_pin_patch()
        else:
            base = compiled_pin(table, now)
        if key is not None:
            self.cache.put(key, base)
        return base

    # -- cached schedule primitives -------------------------------------------------

    def best_effort(self, adg: ADG, now: float) -> ScheduleResult:
        """Best-effort (infinite LP) schedule, cached per (rev, now).

        Under the cache's quantized-now mode, *now* is floored to its
        bucket first — rebalances within one bucket share the schedule.
        With compilation on, the result is a :class:`~repro.core.
        planning.table.CompiledSchedule` (same public surface, lazy
        entries) computed over the flat table.
        """
        now = self.cache.quantize(now)
        token = self._token_of(adg)
        table = self._table_for(adg)
        if table is not None:
            key = ("cbe", token, now) if token is not None else None
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    return cached
            result = compiled_best_effort(table, now)
            self.cache.count_schedule_pass()
            if key is not None:
                self.cache.put(key, result)
            return result
        key = ("be", token, now) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        result = best_effort_schedule(adg, now)
        self.cache.count_schedule_pass()
        if key is not None:
            self.cache.put(key, result)
        return result

    def _critical_path(self, adg: ADG) -> Dict[int, float]:
        token = self._token_of(adg)
        key = ("cp", token) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        table = remaining_critical_path(adg)
        if key is not None:
            self.cache.put(key, table)
        return table

    def _pinned(self, adg: ADG, now: float) -> PinnedPlanBase:
        """The pinned-actuals base for (adg, now), patched when possible.

        Cache misses first try the **delta re-pin**: if this engine holds
        a previous base for the same ADG object and the ADG changelog
        (fed by the projection patch) lists only in-place time updates
        since, :func:`~repro.core.schedule.pin_actuals_delta` advances
        the old base to the new *now* touching only what changed —
        equal, bit for bit, to a full :func:`~repro.core.schedule.
        pin_actuals` pass.
        """
        token = self._token_of(adg)
        key = ("pin", token, now) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        base = self._patch_pinned(adg, now) if token is not None else None
        if base is None:
            base = pin_actuals(adg, now)
        if key is not None:
            self.cache.put(key, base)
            with self._lock:
                self._pin_prev[id(adg)] = (weakref.ref(adg), adg.rev, base)
                if len(self._pin_prev) > 64:
                    self._pin_prev = {
                        k: entry
                        for k, entry in self._pin_prev.items()
                        if entry[0]() is not None
                    }
            adg.compact_changelog(adg.rev if self.patching else 0)
        return base

    def _patch_pinned(self, adg: ADG, now: float) -> Optional[PinnedPlanBase]:
        if not self.patching:
            return None
        with self._lock:
            entry = self._pin_prev.get(id(adg))
        if entry is None or entry[0]() is not adg:
            return None
        _ref, prev_rev, prev_base = entry
        delta = adg.delta_since(prev_rev)
        if delta is None or delta.structural:
            return None
        base = pin_actuals_delta(adg, now, prev_base, delta.touched)
        self.cache.count_pin_patch()
        return base

    def limited(self, adg: ADG, now: float, lp: int) -> ScheduleResult:
        """Limited-LP list schedule, cached per (rev, now, lp).

        On a miss only the pending frontier is re-scheduled: the pinned
        actuals and the critical-path table come from their own caches,
        shared across every LP of a scan.  Under the quantized-now mode,
        *now* is floored to its bucket first.  With compilation on, the
        frontier pass runs over the flat table's arrays.
        """
        now = self.cache.quantize(now)
        token = self._token_of(adg)
        table = self._table_for(adg)
        if table is not None:
            key = ("clim", token, now, lp) if token is not None else None
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    return cached
            _cp, prio = self._critical_path_compiled(adg, table)
            result = compiled_schedule_pending(
                table, now, lp, self._pinned_compiled(adg, now, table), prio
            )
            self.cache.count_schedule_pass()
            if key is not None:
                self.cache.put(key, result)
            return result
        key = ("lim", token, now, lp) if token is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        result = schedule_pending(
            adg,
            now,
            lp,
            "critical-path",
            self._pinned(adg, now),
            self._critical_path(adg),
        )
        self.cache.count_schedule_pass()
        if key is not None:
            self.cache.put(key, result)
        return result

    # -- derived quantities -----------------------------------------------------------

    def optimal_lp(self, adg: ADG, now: float) -> int:
        """Peak future concurrency of the best-effort schedule."""
        now = self.cache.quantize(now)
        return self.best_effort(adg, now).peak(from_time=now)

    def wct_at(self, adg: ADG, now: float, lp: int) -> float:
        """Projected WCT under *lp* workers."""
        return self.limited(adg, now, lp).wct

    def _pending_work(self, adg, now: float) -> Optional[float]:
        """The work bound's ``W`` at (adg, now); ``None`` on the dict path."""
        table = self._table_for(adg)
        if table is None:
            return None
        return self._pinned_compiled(adg, now, table).pending_work(table)

    def meets(self, adg, now: float, lp: int, deadline: float) -> bool:
        """True when the *lp*-worker schedule meets *deadline*.

        Equal to ``wct_at(adg, now, lp) <= deadline + eps``, but the
        limited-LP pass runs only when the work bound ``now + W / lp``
        (a true lower bound on that schedule's WCT, see
        :func:`~repro.core.planning.table.compiled_minimal_lp`) does not
        already miss.
        """
        now = self.cache.quantize(now)
        work = self._pending_work(adg, now)
        if work is not None and now + work / lp > deadline + _EPS:
            return False
        return self.limited(adg, now, lp).wct <= deadline + _EPS

    def minimal_lp(
        self,
        adg: ADG,
        now: float,
        deadline: float,
        cap: Optional[int] = None,
        start_lp: int = 1,
    ) -> Optional[int]:
        """Smallest LP whose greedy schedule meets *deadline*, or ``None``.

        Same linear scan (and same answers) as :func:`~repro.core.
        schedule.minimal_lp_greedy`, but the best-effort upper bound and
        every limited schedule come from the cache, and each scanned LP
        re-schedules only the pending frontier.  No limited schedule
        ends before the best-effort one, so a best-effort miss answers
        ``None`` without scanning; each candidate's pass is skipped when
        ``max(best-effort WCT, now + W / lp)`` already misses.  Under the
        quantized-now mode the scan runs at the bucket floor (the
        deadline itself is never quantized), so the answer can skew by
        at most the bucket width's worth of elapsed progress.
        """
        now = self.cache.quantize(now)
        token = self._token_of(adg)
        key = (
            ("mlp", token, now, deadline, cap, start_lp)
            if token is not None
            else None
        )
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached[0]
        answer: Optional[int] = None
        best = self.best_effort(adg, now)
        best_wct = best.wct
        if best_wct <= deadline + _EPS:
            upper = max(best.peak(from_time=now), 1)
            if cap is not None:
                upper = min(upper, cap)
            work = self._pending_work(adg, now)
            for lp in range(max(1, start_lp), upper + 1):
                if (
                    work is not None
                    and max(best_wct, now + work / lp) > deadline + _EPS
                ):
                    continue
                if self.limited(adg, now, lp).wct <= deadline + _EPS:
                    answer = lp
                    break
        if key is not None:
            self.cache.put(key, (answer,))
        return answer

    # -- structural (admission) arithmetic ---------------------------------------------

    def structural_wct(self, lp: int, start: float = 0.0) -> Optional[float]:
        """Projected WCT of a fresh run under *lp* workers (cached).

        Scheduled at ``start=0.0`` by default — the admission gates'
        frame of reference — which makes the answer independent of the
        clock: held-queue re-evaluations hit the cache until an estimate
        changes.  ``None`` while the estimates are cold.
        """
        adg = self.structural_plan()
        if adg is None:
            adg = self.structural_projection()
        if adg is None:
            return None
        return self.limited(adg, start, lp).wct

    def structural_minimal_lp(
        self, goal_seconds: float, cap: Optional[int] = None
    ) -> Optional[int]:
        """Smallest LP meeting *goal_seconds* on an idle machine.

        The admission-time quantity the backfill reservation pins for a
        held queue head.  ``None`` while cold or when no LP up to *cap*
        meets the goal.
        """
        adg = self.structural_plan()
        if adg is None:
            adg = self.structural_projection()
        if adg is None:
            return None
        return self.minimal_lp(adg, 0.0, goal_seconds, cap=cap)
