"""Per-execution Monitor + Analyze — the front half of the MAPE loop.

The paper's :class:`~repro.core.controller.AutonomicController` fuses all
four MAPE stages for a single execution: it monitors the event stream,
analyzes the projected ADG, plans an LP change and executes it with
``platform.set_parallelism``.  On a shared multi-tenant platform that
fusion breaks down — N controllers would fight over one global knob.

This module factors the *per-execution* half into a reusable component:

* :class:`ExecutionAnalyzer` — a listener that **monitors** one (or all)
  execution's events through a private
  :class:`~repro.core.statemachines.MachineRegistry` + estimator registry,
  and on demand **analyzes**: projects the live ADG and derives the
  paper's quantities (best-effort WCT, optimal LP, WCT under a given LP);
* :class:`AnalysisReport` — one analysis outcome, carrying the projected
  plan so *planners* (the controller's local policies, or the service's
  global LP arbiter) can evaluate hypothetical allocations without
  re-projecting.

Analysis runs only when something changed.  A report derives entirely
from the machine state, the estimates, *now*, the current LP and the
root set, so :meth:`ExecutionAnalyzer.analyze` memoizes its previous
report on ``(machines.rev, estimators.version, now, current_lp, root
indices)``: the arbiter's rebalances re-ask every live execution, and an
execution that saw no event and no estimate change since the previous
ask at the same *now* gets the same report object back for one tuple
compare.  The report in turn memoizes :meth:`AnalysisReport.minimal_lp`
on ``(cap, start_lp, plan.rev)``, so repeated scans are dict hits.

Actuation — who calls ``set_parallelism`` and with what — stays with the
caller: the single-tenant controller applies its increase/halving policies
directly, while :class:`~repro.service.arbiter.LPArbiter` pools the
reports of all live executions and splits the platform's workers by
deadline urgency.

Scoping: pass ``execution_id`` to bind the analyzer to one execution on a
shared bus (its machines and estimators then never see another tenant's
events); leave it ``None`` for the classic whole-platform behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import StateMachineError
from ..events.batch import ANALYSIS_POINT_WHERE
from ..events.bus import Listener
from ..events.types import Event, When
from ..skeletons.base import Skeleton
from .adg import ADG
from .estimator import EstimatorRegistry
from .planning import PlanCache, PlanEngine
from .qos import QoS
from .schedule import (
    limited_lp_schedule,
    minimal_lp_greedy,
)
from .statemachines import UNSUPPORTED_KINDS, MachineRegistry

__all__ = ["AnalysisReport", "ExecutionAnalyzer", "ANALYSIS_WHERE", "is_analysis_point"]

#: AFTER events that trigger an analysis (muscle completions change the
#: ADG materially; BEFORE events and control markers do not).  Aliases
#: the single definition in :mod:`repro.events.batch`, which the event
#: layer's batch summaries use too.
ANALYSIS_WHERE = ANALYSIS_POINT_WHERE

_EPS = 1e-9


def is_analysis_point(event: Event) -> bool:
    """True when *event* is one of the paper's analysis points."""
    return event.when is When.AFTER and event.where in ANALYSIS_WHERE


@dataclass
class AnalysisReport:
    """One Monitor/Analyze outcome for one (set of) execution(s).

    Carries the projected plan so planners can evaluate hypothetical LP
    allocations (:meth:`wct_at`, :meth:`meets`, :meth:`minimal_lp`)
    without paying the projection again.  ``plan`` is what the engine
    plans over: the execution's live plan table, a structural table
    before the first event, or an ADG on the dict path.  :attr:`adg`
    renders it as an ADG on demand (viz, inspection); planning never
    needs that.

    Reports are consumed within the arbitration/controller pass that
    requested them, and a repeat analysis with an unchanged key hands
    the same object out again (see :meth:`ExecutionAnalyzer.analyze`).
    A *held-over* report's ``plan`` may advance underneath it — a later
    analysis patches the live table in place instead of building a
    fresh one — so a stale report re-queried after newer events answers
    from the newer actuals (its cached plans were already retired by the
    revision bump).  The scalar fields (``wct_best_effort``,
    ``optimal_lp``, ...) stay those of the analysis that built the
    report; :meth:`minimal_lp` memoizes its answers on ``(cap,
    start_lp, plan.rev)``, so a patched plan misses the memo and is
    scanned afresh.
    """

    time: float
    execution_id: Optional[int]
    deadline: Optional[float]
    current_lp: Optional[int]
    wct_best_effort: float
    wct_current_lp: Optional[float]
    optimal_lp: int
    plan: Any
    #: The planning engine that built this report; when set, hypothetical
    #: evaluations (:meth:`wct_at`, :meth:`minimal_lp`) pull cached plans
    #: instead of re-running schedules from scratch.
    engine: Optional[PlanEngine] = field(default=None, repr=False, compare=False)
    #: :meth:`minimal_lp` answers by ``(cap, start_lp, plan.rev)``.
    _minimal_lps: Dict[Tuple, Optional[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def adg(self) -> ADG:
        """The plan as an ADG (built on demand for table-backed plans)."""
        plan = self.plan
        return plan if isinstance(plan, ADG) else plan.to_adg()

    @property
    def remaining_best_effort(self) -> float:
        """Seconds of wall-clock left under infinite parallelism."""
        return max(0.0, self.wct_best_effort - self.time)

    @property
    def slack(self) -> Optional[float]:
        """Deadline minus best-effort WCT (negative = goal at risk)."""
        if self.deadline is None:
            return None
        return self.deadline - self.wct_best_effort

    @property
    def goal_at_risk(self) -> bool:
        """True when not even infinite parallelism meets the deadline."""
        return self.deadline is not None and self.wct_best_effort > self.deadline

    def wct_at(self, lp: int) -> float:
        """Projected WCT under a hypothetical level of parallelism."""
        if self.engine is not None:
            return self.engine.wct_at(self.plan, self.time, lp)
        return limited_lp_schedule(self.adg, self.time, lp).wct

    def meets(self, lp: int) -> bool:
        """True when *lp* workers meet the deadline (``False`` without
        one); the engine skips the schedule when the work bound
        already misses."""
        if self.deadline is None:
            return False
        if self.engine is not None:
            return self.engine.meets(self.plan, self.time, lp, self.deadline)
        return self.wct_at(lp) <= self.deadline + _EPS

    def minimal_lp(
        self, cap: Optional[int] = None, start_lp: int = 1
    ) -> Optional[int]:
        """Smallest LP (``>= start_lp``, ``<= cap``) meeting the deadline.

        ``None`` when the report has no deadline or no LP up to *cap*
        meets it (the greedy bracket of the paper's NP-complete problem).
        """
        if self.deadline is None:
            return None
        key = (cap, start_lp, self.plan.rev)
        memo = self._minimal_lps
        if key in memo:
            return memo[key]
        if self.engine is not None:
            answer = self.engine.minimal_lp(
                self.plan, self.time, self.deadline, cap=cap, start_lp=start_lp
            )
        else:
            found = minimal_lp_greedy(
                self.adg, self.time, self.deadline, max_lp=cap, start_lp=start_lp
            )
            answer = found[0] if found is not None else None
        memo[key] = answer
        return answer


class ExecutionAnalyzer(Listener):
    """Monitor + Analyze for one execution (or a whole platform).

    Parameters
    ----------
    qos:
        The execution's goal(s); the deadline in reports derives from its
        WCT goal and the observed execution start.  May be ``None`` for a
        best-effort tenant (reports then carry ``deadline=None``).
    execution_id:
        When given, :meth:`accepts` filters the shared bus down to this
        execution's events — the scoping that keeps tenants' estimators
        and live state from cross-contaminating.
    skeleton:
        Optional: validate up front that the program contains only
        patterns the autonomic layer supports.  Also enables the
        *structural* pre-start analysis: with warm estimates (the paper's
        scenario-2 initialization) an execution that has not produced a
        single event yet can still be analyzed by projecting the skeleton
        structure itself, so a global planner can grant it its real
        worker need at admission instead of a cold-start floor.
    rho / estimators / extensions:
        As in :class:`~repro.core.controller.AutonomicController`.
    plan_cache:
        Backing store for the analyzer's :class:`~repro.core.planning.
        PlanEngine` (``self.plan``).  The service shares one cache across
        every live execution and the admission path; stand-alone
        analyzers get a private one.
    plan_patching:
        Enable the engine's delta pipeline (patch the live plan table
        and pinned base in place when the machine changelog allows it) —
        on by default; off rebuilds the table on every change, which the
        delta-path benchmark uses as its baseline.
    plan_compiled:
        Run the engine's scheduling passes over compiled
        :class:`~repro.core.planning.table.PlanTable` flat arrays — on by
        default; off restores the dict-based passes bit for bit (see
        :class:`~repro.core.planning.PlanEngine`).
    """

    def __init__(
        self,
        qos: Optional[QoS] = None,
        execution_id: Optional[int] = None,
        skeleton: Optional[Skeleton] = None,
        rho: float = 0.5,
        estimators: Optional[EstimatorRegistry] = None,
        extensions: bool = False,
        plan_cache: Optional[PlanCache] = None,
        plan_patching: bool = True,
        plan_compiled: bool = True,
    ):
        self.qos = qos
        self.execution_id = execution_id
        self.skeleton = skeleton
        self.estimators = estimators or EstimatorRegistry(rho=rho)
        self.machines = MachineRegistry(self.estimators, extensions=extensions)
        self.plan = PlanEngine(
            self.machines,
            self.estimators,
            skeleton=skeleton,
            cache=plan_cache,
            patching=plan_patching,
            compiled=plan_compiled,
        )
        self.exec_start: Dict[int, float] = {}  # root index -> start time
        # (key, report) of the previous analyze() call (see analyze).
        self._last: Optional[Tuple[Tuple, Optional[AnalysisReport]]] = None
        if skeleton is not None:
            self.validate(skeleton)

    # -- setup -----------------------------------------------------------------

    def validate(self, skeleton: Skeleton) -> None:
        """Reject programs containing paper-unsupported patterns."""
        if self.machines.extensions:
            return
        for node in skeleton.walk():
            if node.kind in UNSUPPORTED_KINDS:
                raise StateMachineError(
                    f"skeleton contains {node.kind!r}, unsupported by the "
                    f"autonomic layer (paper §4); pass extensions=True to opt in"
                )

    def initialize_estimates(self, skeleton: Skeleton, snapshot: Dict[str, Any]) -> None:
        """Warm-start ``t(m)`` / ``|m|`` from a previous run's snapshot."""
        from .persistence import restore_estimates

        restore_estimates(skeleton, self.estimators, snapshot)

    # -- Monitor (Listener API) -------------------------------------------------

    def accepts(self, event: Event) -> bool:
        return self.execution_id is None or event.execution_id == self.execution_id

    def on_event(self, event: Event) -> Any:
        self.observe(event)
        return event.value

    def on_batch(self, events) -> None:
        """Consume one event batch — a single machine-registry lock.

        The batch-aware monitor half of the delta pipeline: the bus
        filters the batch down to accepted events (this analyzer's
        execution), the registry consumes them under one lock
        acquisition, and the per-root start bookkeeping runs inline.
        """
        for event in events:
            if event.parent_index is None and event.index not in self.exec_start:
                self.exec_start[event.index] = event.timestamp
        self.machines.on_batch(events)

    def observe(self, event: Event) -> None:
        """Feed one event into the tracking machines."""
        if event.parent_index is None and event.index not in self.exec_start:
            self.exec_start[event.index] = event.timestamp
        self.machines.on_event(event)

    # -- Analyze ---------------------------------------------------------------

    def unfinished_roots(self) -> List:
        return self.machines.unfinished_roots()

    @property
    def finished(self) -> bool:
        """True once every observed root execution completed."""
        return bool(self.machines.roots) and not self.machines.unfinished_roots()

    def ready(self, roots: Optional[List] = None) -> bool:
        """True when an analysis is possible: live roots whose needed
        estimates are all available (the paper's cold-start gate)."""
        roots = roots if roots is not None else self.unfinished_roots()
        if not roots:
            return False
        return all(self.estimators.ready_for(m.skel) for m in roots)

    def deadline(self, roots: Optional[List] = None) -> Optional[float]:
        """Earliest absolute planning deadline across live roots."""
        if self.qos is None or self.qos.wct is None:
            return None
        roots = roots if roots is not None else self.unfinished_roots()
        if not roots:
            return None
        return min(
            self.qos.wct.deadline(self.exec_start.get(m.index, 0.0)) for m in roots
        )

    def analyze(
        self,
        now: float,
        current_lp: Optional[int] = None,
        roots: Optional[List] = None,
    ) -> Optional[AnalysisReport]:
        """Project the live execution(s) and derive the paper's quantities.

        Returns ``None`` when nothing is running or a needed estimate is
        still missing (first-run cold start waits for the first merge, as
        in the paper's scenario 1).  A warm-started execution that has
        not emitted any event yet (tasks queued, no worker reached them)
        is analyzed *structurally* instead — scenario 2's initialization,
        extended to the pre-start window.

        A repeat is free: when the machine revision, the estimator
        version, *now*, *current_lp* and the root set all equal the
        previous call's, that call's report object (or ``None``) is
        returned as is.
        """
        roots_key = None if roots is None else tuple(m.index for m in roots)
        # Everything an analysis reads moves one of these: events bump
        # the machine revision (and land exec_start before doing so),
        # estimate changes bump the version.  Reading the key under the
        # machine lock keeps it consistent with concurrent publishers;
        # the analysis itself runs outside the lock, so a report built
        # while events land reflects state at least as new as its key.
        with self.machines.lock:
            key = (
                self.machines.rev,
                self.estimators.version,
                now,
                current_lp,
                roots_key,
            )
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        report = self._analyze(now, current_lp, roots)
        self._last = (key, report)
        return report

    def _analyze(
        self,
        now: float,
        current_lp: Optional[int],
        roots: Optional[List],
    ) -> Optional[AnalysisReport]:
        roots = roots if roots is not None else self.unfinished_roots()
        if not roots and not self.machines.roots:
            return self._structural_report(now, current_lp)
        if not self.ready(roots):
            return None
        plan = self.plan.projection(now, roots)
        if len(plan) == 0:
            return None
        return self._report(now, current_lp, plan, self.deadline(roots))

    def _structural_report(
        self, now: float, current_lp: Optional[int]
    ) -> Optional[AnalysisReport]:
        """Pre-start analysis from the skeleton structure alone.

        Requires the skeleton and warm estimates for every muscle;
        otherwise the pre-start window stays a cold start (``None``).
        The deadline assumes the execution starts *now* — optimistic by
        at most the (tiny) submit-to-first-task latency.
        """
        plan = self.plan.structural_plan()
        if plan is None:
            plan = self.plan.structural_projection()
        if plan is None or len(plan) == 0:
            return None
        deadline = None
        if self.qos is not None and self.qos.wct is not None:
            deadline = self.qos.wct.deadline(now)
        return self._report(now, current_lp, plan, deadline)

    def _report(
        self,
        now: float,
        current_lp: Optional[int],
        plan: Any,
        deadline: Optional[float],
    ) -> AnalysisReport:
        """Derive the paper's quantities from (cached) schedules of *plan*."""
        best = self.plan.best_effort(plan, now)
        return AnalysisReport(
            time=now,
            execution_id=self.execution_id,
            deadline=deadline,
            current_lp=current_lp,
            wct_best_effort=best.wct,
            wct_current_lp=(
                self.plan.wct_at(plan, now, current_lp)
                if current_lp is not None
                else None
            ),
            optimal_lp=best.peak(from_time=now),
            plan=plan,
            engine=self.plan,
        )
