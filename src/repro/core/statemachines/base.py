"""Base class of the per-skeleton tracking state machines.

The paper tracks skeleton executions with one state machine per skeleton
type (Figure 3 for Seq, Figure 4 for Map), driven purely by events, with
two responsibilities:

1. update the history estimators ``t(m)`` and ``|m|`` whenever a muscle's
   BEFORE/AFTER pair or a split's cardinality is observed;
2. maintain the live Activity Dependency Graph of the running execution.

This implementation keeps (2) as a *projection*: each machine records the
actual timestamps it has seen and can, on demand, append its activities to
an :class:`~repro.core.adg.ADG` — actual times for the past, estimates for
the future (delegating unexplored structure to
:func:`repro.core.projection.project_skeleton`).  Rebuilding on demand
keeps machines simple and makes the ADG trivially consistent with the
event history.  Each machine also emits the same rows straight into a
live plan table (:meth:`TrackingMachine.emit`, see
:mod:`repro.core.planning.live`), which the planning layer patches
between analyses instead of re-projecting.
"""

from __future__ import annotations

from typing import List, Optional

from ...errors import StateMachineError
from ...events.types import Event, When, Where
from ...skeletons.base import Skeleton
from ..adg import ADG
from ..estimator import EstimatorRegistry

__all__ = ["TrackingMachine", "MuscleSpan", "refresh_from_sources"]


def refresh_from_sources(adg: ADG) -> int:
    """Re-apply every span source of *adg*; returns how many changed.

    This is the projection **patch**: for each activity built from a
    :class:`MuscleSpan` (via :meth:`MuscleSpan.add_to`), re-derive
    ``(start, end, duration)`` from the span's *current* state under the
    exact rules ``add_to`` used at build time.  Given an unchanged
    structure and unchanged estimates — which the caller must have
    verified through the machine-registry changelog and the estimator
    version stamp — the patched graph is bit-for-bit the graph a full
    re-walk would build.  Activities without a source (unexplored future
    structure projected straight from estimates) are untouched by
    construction: their times derive from estimates alone.
    """
    changed = 0
    for aid, (span, est_duration) in adg.span_sources().items():
        if span.finished:
            start, end, duration = span.start, span.end, span.end - span.start
        elif span.started:
            start, end, duration = span.start, None, est_duration
        else:
            start, end, duration = None, None, est_duration
        if adg.update_activity(aid, start, end, duration):
            changed += 1
    return changed


class MuscleSpan:
    """Actual start/end record of one muscle execution.

    ``result`` stores condition outcomes; ``card`` stores split
    cardinalities.
    """

    __slots__ = ("start", "end", "result", "card")

    def __init__(self, start: Optional[float] = None):
        self.start = start
        self.end: Optional[float] = None
        self.result: Optional[bool] = None
        self.card: Optional[int] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def started(self) -> bool:
        return self.start is not None

    def close(self, event) -> None:
        """Finish the span at *event*'s timestamp.

        When the AFTER event carries a ``started_at`` extra — a platform
        shipped the worker-observed body start back after the fact (the
        process pool stamps BEFORE events at chunk handoff) — the span's
        start is corrected to it, clamped inside ``[start, end]``, so the
        estimators measure the muscle itself rather than queue residence.
        """
        self.end = event.timestamp
        started_at = event.extra.get("started_at")
        if started_at is not None and self.start is not None:
            self.start = min(self.end, max(self.start, float(started_at)))

    def add_to(
        self,
        adg: ADG,
        name: str,
        est_duration: float,
        preds: List[int],
        role: str,
    ) -> int:
        """Append this span to *adg* (actual when known, estimate else).

        The span is attached to the activity as its *source*
        (:meth:`~repro.core.adg.ADG.attach_source`): when a later event
        lands more actual time on this span, the planning layer re-reads
        it to patch the projected activity in place instead of
        re-walking the machines (see :func:`refresh_from_sources`).
        """
        if self.finished:
            aid = adg.add(
                name, self.end - self.start, preds,
                start=self.start, end=self.end, role=role,
            )
        elif self.started:
            aid = adg.add(
                name, est_duration, preds, start=self.start, role=role
            )
        else:
            aid = adg.add(name, est_duration, preds, role=role)
        adg.attach_source(aid, self, est_duration)
        return aid


class TrackingMachine:
    """One machine instance per skeleton-instance execution (one index)."""

    __slots__ = (
        "skel",
        "index",
        "parent_index",
        "estimators",
        "children",
        "parent",
        "started_at",
        "finished_at",
        "depth",
    )

    kind: str = "?"

    def __init__(
        self,
        skel: Skeleton,
        index: int,
        parent_index: Optional[int],
        estimators: EstimatorRegistry,
    ):
        self.skel = skel
        self.index = index
        self.parent_index = parent_index
        self.estimators = estimators
        self.children: List["TrackingMachine"] = []
        self.parent: Optional["TrackingMachine"] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: recursion depth for d&c node machines (0 elsewhere)
        self.depth: int = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    def attach_child(self, child: "TrackingMachine", event: Event) -> None:
        """A nested skeleton instance produced its first event."""
        child.parent = self
        self.children.append(child)
        self.on_child_attached(child, event)

    def on_child_attached(self, child: "TrackingMachine", event: Event) -> None:
        """Hook for subclasses (default: nothing)."""

    # -- event handling ----------------------------------------------------------

    def on_event(self, event: Event) -> None:
        """Route *event* to the ``handle_<when>_<where>`` method."""
        if self.started_at is None:
            self.started_at = event.timestamp
        handler = getattr(
            self,
            f"handle_{event.when.name.lower()}_{event.where.name.lower()}",
            None,
        )
        if handler is not None:
            handler(event)
        if event.when is When.AFTER and event.where is Where.SKELETON:
            self.finished_at = event.timestamp

    # -- projection ----------------------------------------------------------------

    def project(
        self,
        adg: ADG,
        preds: List[int],
        now: float,
    ) -> List[int]:
        """Append this instance's activities to *adg*; return terminals."""
        raise NotImplementedError

    def emit(self, c, preds: List[int]) -> List[int]:
        """Twin of :meth:`project` into a live plan table.

        *c* is a :class:`~repro.core.planning.live.LiveCompiler`; each
        ``span`` / ``estimate`` / ``structure`` / ``machine`` call
        appends exactly the rows the matching ``add_to`` / ``ADG.add``
        / ``project_skeleton`` / child ``project`` call adds, so the
        table equals ``PlanTable.compile`` of :meth:`project`'s graph.
        Child positions the projection fills from the skeleton go
        through ``slot`` / ``slots``: a machine created into one later
        binds to those rows instead of reshaping the table.
        """
        raise NotImplementedError

    def fresh_shape(self) -> bool:
        """True when :meth:`emit` lays out exactly the rows of the
        structural projection of :attr:`skel` (times aside).

        That is what lets a machine created into a structural slot of
        its parent patch the live table in place.  The default is the
        safe answer for kinds not proven.
        """
        return False

    # -- helpers --------------------------------------------------------------------

    def _observe_span(self, muscle, span: MuscleSpan) -> None:
        """Fold a completed span's duration into the estimators."""
        if span.start is None or span.end is None:
            raise StateMachineError(
                f"{self.kind} machine observed an incomplete span for "
                f"{muscle.name!r}"
            )
        self.estimators.observe_time(muscle, span.end - span.start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(index={self.index}, "
            f"children={len(self.children)}, finished={self.finished})"
        )
