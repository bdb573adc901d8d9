"""The autonomic controller — the paper's self-configuration /
self-optimization loop.

A MAPE loop over the event stream of a running skeleton:

* **Monitor** — the :class:`~repro.core.statemachines.MachineRegistry`
  consumes every event, updating estimators and the live execution state;
* **Analyze** — on analysis points (AFTER events of muscles), once every
  muscle has at least one observation (or the estimators were
  warm-initialized), project the ADG and compute (a) the best-effort WCT
  and optimal LP, (b) the WCT achievable under the current LP;
* **Plan** — compare against the QoS deadline: if the current LP misses
  it, pick a higher LP (policy below); if half the current LP would still
  meet it, halve (the paper: "first checks if the goal could be targeted
  using half of threads, if it can, it decreases the number of threads to
  the half" — which is why Skandium "does not reduce the LP as fast as it
  increases it");
* **Execute** — apply the new LP to the platform, live.

Monitor and Analyze live in :class:`~repro.core.analysis.ExecutionAnalyzer`
(one per execution, reusable on a shared multi-tenant platform where the
service's :class:`~repro.service.arbiter.LPArbiter` owns actuation); this
class adds the single-tenant Plan + Execute policies on top.

Increase policies:

* ``"minimal"`` (default) — the smallest LP whose greedy limited-LP
  schedule meets the deadline (the paper's worked example: at WCT 70 with
  goal 100, limited-LP(2) = 115 misses, so "Skandium will autonomically
  increase LP to 3" — and 3 is exactly the smallest LP meeting 100 there).
  Falls back to the optimal LP (best-effort peak) when no LP meets the
  deadline.
* ``"optimal"`` — jump straight to the optimal LP whenever the current LP
  misses the deadline (more aggressive; used by the ablation bench).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import QoSError
from ..events.bus import Listener
from ..events.types import Event
from ..runtime.platform import Platform
from ..skeletons.base import Skeleton
from .analysis import AnalysisReport, ExecutionAnalyzer, is_analysis_point
from .estimator import EstimatorRegistry
from .qos import QoS

__all__ = ["Decision", "AutonomicController"]

_EPS = 1e-9


@dataclass
class Decision:
    """One analysis outcome, for observability and the benches."""

    time: float
    trigger: str
    lp_before: int
    lp_after: int
    wct_best_effort: float
    wct_current_lp: float
    optimal_lp: int
    deadline: float
    action: str  # "increase" | "decrease" | "hold" | "unreachable"
    reason: str = ""

    @property
    def changed(self) -> bool:
        return self.lp_after != self.lp_before


class AutonomicController(Listener):
    """Self-configuring / self-optimizing LP controller (see module docs).

    Parameters
    ----------
    platform:
        The platform whose parallelism is tuned.  The controller registers
        itself on the platform's event bus.
    skeleton:
        Optional: validate up front that the program contains only
        patterns the autonomic layer supports.
    qos:
        The goal(s): a WCT goal and/or a maximum LP.
    rho:
        Weight of the latest observation in the history estimators
        (paper default 0.5).
    increase_policy:
        ``"minimal"`` or ``"optimal"`` (see module docstring).
    decrease_policy:
        ``"halving"`` (paper) or ``"none"`` (never shrink — ablation).
    extensions:
        Allow If/Fork tracking (off by default, as in the paper).
    min_analysis_interval:
        Throttle: skip analyses closer than this many (platform clock)
        seconds to the previous one.  0 analyzes on every analysis point.
    execution_id:
        When given, the controller only monitors that execution's events
        (scoped operation on a shared bus); default observes everything
        on the platform, as the paper's single-tenant Skandium did.
    """

    def __init__(
        self,
        platform: Platform,
        skeleton: Optional[Skeleton] = None,
        qos: Optional[QoS] = None,
        rho: float = 0.5,
        increase_policy: str = "minimal",
        decrease_policy: str = "halving",
        extensions: bool = False,
        min_analysis_interval: float = 0.0,
        estimators: Optional[EstimatorRegistry] = None,
        execution_id: Optional[int] = None,
    ):
        if qos is None:
            raise QoSError("AutonomicController needs a QoS specification")
        if increase_policy not in ("minimal", "optimal"):
            raise QoSError(f"unknown increase policy {increase_policy!r}")
        if decrease_policy not in ("halving", "none"):
            raise QoSError(f"unknown decrease policy {decrease_policy!r}")
        self.platform = platform
        self.qos = qos
        self.analyzer = ExecutionAnalyzer(
            qos=qos,
            execution_id=execution_id,
            skeleton=skeleton,
            rho=rho,
            estimators=estimators,
            extensions=extensions,
        )
        self.increase_policy = increase_policy
        self.decrease_policy = decrease_policy
        self.min_analysis_interval = min_analysis_interval
        self.decisions: List[Decision] = []
        self._last_analysis: Optional[float] = None
        self._lock = threading.RLock()
        self._attached = False
        # Effective LP ceiling: intersect the QoS max with the platform max.
        self._max_lp = self._effective_max_lp()
        self.attach()

    # -- delegation to the per-execution analyzer --------------------------------

    @property
    def estimators(self) -> EstimatorRegistry:
        return self.analyzer.estimators

    @property
    def machines(self):
        return self.analyzer.machines

    def validate(self, skeleton: Skeleton) -> None:
        """Reject programs containing paper-unsupported patterns."""
        self.analyzer.validate(skeleton)

    def initialize_estimates(self, skeleton: Skeleton, snapshot: Dict[str, Any]) -> None:
        """Warm-start ``t(m)`` / ``|m|`` from a previous run's snapshot.

        See :mod:`repro.core.persistence` for producing snapshots.  With
        warm estimates the first analysis can react before every muscle
        has run once — the paper's scenario 2, where the LP rises right
        after the first (I/O-bound) split instead of after the first
        merge.
        """
        self.analyzer.initialize_estimates(skeleton, snapshot)

    # -- setup -----------------------------------------------------------------

    def _effective_max_lp(self) -> Optional[int]:
        caps = [
            c
            for c in (self.qos.max_threads, self.platform.max_parallelism)
            if c is not None
        ]
        return min(caps) if caps else None

    def attach(self) -> None:
        """Register on the platform's bus (idempotent)."""
        if not self._attached:
            self.platform.add_listener(self)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.platform.bus.remove_listener(self)
            self._attached = False

    # -- Listener API ----------------------------------------------------------------

    def accepts(self, event: Event) -> bool:
        return self.analyzer.accepts(event)

    def on_event(self, event: Event) -> Any:
        # Monitor: the analyzer's machine registry sees every event first.
        self.analyzer.observe(event)
        # Analyze on muscle-completion analysis points.
        if is_analysis_point(event):
            self._maybe_analyze(trigger=event.label)
        return event.value

    # -- analysis ----------------------------------------------------------------------

    def _maybe_analyze(self, trigger: str) -> None:
        if self.qos.wct is None:
            return  # nothing to plan for; max LP is enforced by clamping
        now = self.platform.now()
        with self._lock:
            if (
                self._last_analysis is not None
                and self.min_analysis_interval > 0
                and now - self._last_analysis < self.min_analysis_interval
            ):
                return
            report = self.analyzer.analyze(
                now, current_lp=self.platform.get_parallelism()
            )
            if report is None:
                return
            self._last_analysis = now
            self._plan_and_execute(report, trigger)

    def _plan_and_execute(self, report: AnalysisReport, trigger: str) -> None:
        """Plan against the deadline and apply the LP change (if any)."""
        deadline = report.deadline
        current_lp = report.current_lp
        lp_after = current_lp
        action = "hold"
        reason = ""
        if report.wct_current_lp > deadline + _EPS:
            # The current LP misses the goal: self-optimize upward.
            target = self._pick_increase(report)
            if target > current_lp:
                lp_after = self.platform.set_parallelism(target)
                action = "increase"
                reason = (
                    f"limited-LP({current_lp}) WCT {report.wct_current_lp:.3f} "
                    f"misses deadline {deadline:.3f}"
                )
            else:
                action = "unreachable"
                reason = (
                    f"no LP <= {self._max_lp or 'inf'} meets deadline "
                    f"{deadline:.3f}; best effort {report.wct_best_effort:.3f}"
                )
        elif self.decrease_policy == "halving" and current_lp > 1:
            # Goal is safe: can we do it with half the threads?
            half = current_lp // 2
            if report.meets(half):
                half_wct = report.wct_at(half)
                lp_after = self.platform.set_parallelism(half)
                action = "decrease"
                reason = (
                    f"limited-LP({half}) WCT {half_wct:.3f} still "
                    f"meets deadline {deadline:.3f}"
                )
        self.decisions.append(
            Decision(
                time=report.time,
                trigger=trigger,
                lp_before=current_lp,
                lp_after=lp_after,
                wct_best_effort=report.wct_best_effort,
                wct_current_lp=report.wct_current_lp,
                optimal_lp=report.optimal_lp,
                deadline=deadline,
                action=action,
                reason=reason,
            )
        )

    def _pick_increase(self, report: AnalysisReport) -> int:
        cap = self._max_lp
        ceiling = report.optimal_lp if cap is None else min(report.optimal_lp, cap)
        current_lp = report.current_lp
        if self.increase_policy == "optimal":
            return max(current_lp, ceiling)
        found = report.minimal_lp(cap=cap, start_lp=current_lp + 1)
        if found is not None:
            return found
        # Nothing meets the deadline: allocate the best-effort peak (the
        # closest we can get), clamped by the cap.
        return max(current_lp, ceiling)

    # -- reporting -----------------------------------------------------------------------

    def changed_decisions(self) -> List[Decision]:
        """Only the decisions that actually changed the LP."""
        return [d for d in self.decisions if d.changed]

    def first_increase(self) -> Optional[Decision]:
        for d in self.decisions:
            if d.action == "increase" and d.changed:
                return d
        return None

    def summary(self) -> Dict[str, Any]:
        """Compact run summary used by the bench harness."""
        increases = [d for d in self.decisions if d.action == "increase" and d.changed]
        decreases = [d for d in self.decisions if d.action == "decrease" and d.changed]
        return {
            "analyses": len(self.decisions),
            "increases": len(increases),
            "decreases": len(decreases),
            "first_increase_time": increases[0].time if increases else None,
            "max_lp_set": max((d.lp_after for d in self.decisions), default=None),
        }
