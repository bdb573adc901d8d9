"""Per-layer tracing from outside the program.

:class:`LayerProbe` wraps public methods of the library's classes with
span-recording shims while a traced round runs and restores them
afterwards; nothing under ``src/`` changes.  Each layer's span name,
the methods it covers and the counters read at its boundary:

=====================  ====================================================
``events``             ``EventBus.publish`` / ``publish_batch`` (a
                       one-event batch delegates to ``publish``: one call)
``core.monitor``       ``ExecutionAnalyzer.on_event`` / ``on_batch`` /
                       ``observe``
``core.estimator``     ``EstimatorRegistry.ready_for``
``core.analysis``      ``ExecutionAnalyzer.analyze``
``core.planning.*``    ``PlanEngine.projection`` / ``structural_plan``
                       (projection), ``best_effort`` / ``limited`` /
                       ``wct_at`` (schedule), ``minimal_lp``
``core.controller``    ``AutonomicController.on_event``
``service.admission``  ``AdmissionController.evaluate``
``service.arbiter``    ``LPArbiter.rebalance``
``runtime``            concrete platform ``submit`` / ``set_parallelism``
=====================  ====================================================
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from typing import Any, Callable, List, Optional

from repro import (
    AdmissionController,
    AutonomicController,
    DistributedPlatform,
    EstimatorRegistry,
    EventBus,
    ExecutionAnalyzer,
    LPArbiter,
    ProcessPoolPlatform,
    SimulatedPlatform,
)
from repro.core.planning import PlanEngine

from .programs import TimedBlock
from .spans import SpanRecorder

_MISSING = object()


class LayerProbe:
    """Installs span shims on the library's classes and aggregates them."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self.counts: Counter = Counter()
        #: Per task that reached a real worker: (submitted, started,
        #: after, muscle body seconds or None), on the platform clock.
        self.tasks: List[tuple] = []
        self._analyzers: "weakref.WeakKeyDictionary[Any, list]" = (
            weakref.WeakKeyDictionary()
        )
        self._patches: List[tuple] = []
        # Shims run on worker-facing threads too (collector, io loop).
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Forget spans and counters (the installed shims stay)."""
        self.recorder = SpanRecorder()
        self.counts = Counter()
        self.tasks = []
        self._analyzers = weakref.WeakKeyDictionary()

    def install(self) -> None:
        if self._patches:
            return
        p = self._patch
        p(EventBus, "publish", "events")
        p(EventBus, "publish_batch", "events")
        for attr in ("on_event", "on_batch", "observe"):
            p(ExecutionAnalyzer, attr, "core.monitor", before=self._dirty,
              eid=_analyzer_eid)
        p(EstimatorRegistry, "ready_for", "core.estimator.ready_for")
        p(ExecutionAnalyzer, "analyze", "core.analysis", before=self._analysis,
          eid=_analyzer_eid)
        p(PlanEngine, "projection", "core.planning.projection")
        p(PlanEngine, "structural_plan", "core.planning.projection")
        for attr in ("best_effort", "limited", "wct_at"):
            p(PlanEngine, attr, "core.planning.schedule")
        p(PlanEngine, "minimal_lp", "core.planning.minimal_lp",
          before=_passes_before, after=self._passes_after)
        p(AutonomicController, "on_event", "core.controller")
        p(AdmissionController, "evaluate", "service.admission",
          after=self._count_admission)
        p(LPArbiter, "rebalance", "service.arbiter", after=self._count_rebalance)
        for cls in (SimulatedPlatform, ProcessPoolPlatform, DistributedPlatform):
            p(cls, "submit", "runtime.submit", before=self._task_submitted,
              eid=_task_eid)
            p(cls, "set_parallelism", "runtime.set_parallelism")

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._patches = []

    def _patch(
        self,
        cls: type,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        eid: Optional[Callable] = None,
    ) -> None:
        original = cls.__dict__.get(attr, _MISSING)
        fn = getattr(cls, attr)

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            # A call still running when reset() swaps the recorder ends
            # on the recorder it began on.
            recorder = self.recorder
            idx = recorder.begin(name, eid(args) if eid is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(idx)
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        setattr(cls, attr, traced)
        self._patches.append((cls, attr, original))

    # -- counters read at the layer boundaries --------------------------------

    def _add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def _dirty(self, args) -> None:
        with self._lock:
            state = self._analyzers.get(args[0])
            if state is not None:
                state[0] = True

    def _analysis(self, args) -> None:
        """Clean analysis: one with no monitor call since the previous one."""
        analyzer = args[0]
        with self._lock:
            state = self._analyzers.get(analyzer)
            if state is None:
                self._analyzers[analyzer] = [False]
            elif not state[0]:
                self.counts["core.analysis.clean"] += 1
            else:
                state[0] = False

    def _passes_after(self, args, _result, before: int) -> None:
        self._add("core.planning.minimal_lp_passes",
                  args[0].cache.stats.schedule_passes - before)

    def _count_admission(self, _args, decision, _token) -> None:
        self._add("service.admission.held", int(decision.held))
        self._add("service.admission.rejected", int(decision.rejected))

    def _count_rebalance(self, _args, outcome, _token) -> None:
        self._add("service.arbiter.applied", int(outcome is not None))

    def _task_submitted(self, args) -> None:
        platform, task = args[0], args[1]
        if isinstance(platform, SimulatedPlatform):
            return  # virtual time: the latency splits are host-only
        submitted = platform.now()
        emit_after = task.emit_after
        tasks = self.tasks

        def timed_emit_after(result, worker):
            body = result.body_s if isinstance(result, TimedBlock) else None
            tasks.append((submitted, task.started_at, platform.now(), body))
            return emit_after(result, worker)

        task.emit_after = timed_emit_after


def _analyzer_eid(args) -> Optional[int]:
    return args[0].execution_id


def _task_eid(args) -> Optional[int]:
    return args[1].execution.id


def _passes_before(args) -> int:
    return args[0].cache.stats.schedule_passes
