"""Machine registry: routes events to tracking machines, builds live ADGs.

The registry is an event-bus listener.  For every event it looks up the
machine of the event's instance index, creating it on first sight (and
attaching it to its parent machine via the event's ``parent_index``), then
lets the machine consume the event.  Root machines — skeleton executions
submitted at top level — are what the autonomic controller projects and
schedules.

Thread safety: a single re-entrant lock guards machine creation, event
consumption and projection, so the controller can analyze a consistent
snapshot while worker threads keep publishing events.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from ...errors import StateMachineError
from ...events.bus import Listener
from ...events.types import Event, When, Where
from ..adg import ADG
from ..delta import ChangeDelta
from ..estimator import EstimatorRegistry
from .base import TrackingMachine
from .composite import FarmMachine, PipeMachine
from .conditional import IfMachine
from .dac import DacMachine
from .fork import ForkMachine
from .loops import ForMachine, WhileMachine
from .seq import SeqMachine
from .smap import MapMachine

__all__ = ["MachineRegistry", "MACHINE_TYPES", "UNSUPPORTED_KINDS"]

MACHINE_TYPES: Dict[str, Type[TrackingMachine]] = {
    "seq": SeqMachine,
    "farm": FarmMachine,
    "pipe": PipeMachine,
    "while": WhileMachine,
    "for": ForMachine,
    "map": MapMachine,
    "fork": ForkMachine,
    "if": IfMachine,
    "dac": DacMachine,
}

#: Kinds the paper's autonomic layer does not support ("the support for
#: those types of skeletons are under construction"); tracking them
#: requires the ``extensions`` opt-in.
UNSUPPORTED_KINDS = frozenset({"if", "fork"})


# Changelog categories of a consumed event (see _classify), ordered so
# that ``>= _DONE`` is exactly what the ADG patch path treats as
# structural.
_NOOP, _SPAN, _DONE, _SPLIT, _SHAPE = range(5)

#: Kinds whose split AFTER can land without reshaping a projection when
#: the observed cardinality equals the child count already laid out.
_SPLIT_KINDS = frozenset({"map", "fork", "dac"})


def _classify(machine: TrackingMachine, event: Event) -> int:
    """What *event* may change in a projection of this execution.

    * ``_NOOP`` — nothing: control markers carry the parent's index and
      no machine has a NESTED handler;
    * ``_SPAN`` — actual times land on a span that was already
      projected: BEFORE events (bar a While's condition, whose spans are
      *appended* per evaluation), a merge's AFTER, a nested Seq's
      completion;
    * ``_DONE`` — a nested non-Seq machine finished: only its
      ``finished`` flag moves, which no projection reads except While's;
    * ``_SPLIT`` — a split AFTER of a Map/Fork/D&C: a span landing plus
      an observed cardinality, which keeps the shape when it equals the
      child count the projection already used;
    * ``_SHAPE`` — anything else: condition outcomes, a While's new
      condition span, a finishing root.
    """
    where = event.where
    if where is Where.NESTED:
        return _NOOP
    if event.when is When.BEFORE:
        if machine.kind == "while" and where is Where.CONDITION:
            return _SHAPE
        return _SPAN
    if where is Where.MERGE:
        return _SPAN  # closes a fixed span; the machine finishes later
    if where is Where.SKELETON and machine.parent_index is not None:
        if machine.kind == "seq":
            return _SPAN
        return _SHAPE if machine.kind == "while" else _DONE
    if where is Where.SPLIT and machine.kind in _SPLIT_KINDS:
        return _SPLIT
    return _SHAPE


def _since(log: Dict[int, int], rev: int, sort: bool = False) -> Tuple[int, ...]:
    """Keys of *log* stamped after *rev* (insertion or sorted order)."""
    keys = [i for i, r in log.items() if r > rev]
    return tuple(sorted(keys) if sort else keys)


class MachineRegistry(Listener):
    """Event listener that maintains one tracking machine per instance."""

    def __init__(self, estimators: EstimatorRegistry, extensions: bool = False):
        self.estimators = estimators
        self.extensions = extensions
        self.lock = threading.RLock()
        self._machines: Dict[int, TrackingMachine] = {}
        self.roots: List[TrackingMachine] = []
        self._rev = 0
        # Changelog (see delta_since): revision of the last *structural*
        # event, plus the last span-only touch revision per machine —
        # inherently coalesced to one entry per machine, so memory stays
        # O(machines) for arbitrarily long executions.
        self._structural_rev = 0
        self._span_touched: Dict[int, int] = {}
        self._floor_rev = 0
        # The live plan table's finer view of the same window: the last
        # event that may reshape a projection in a way no patch covers,
        # plus machine creations (in order) and split-cardinality
        # landings, which the table checks against the shape it holds.
        self._shape_rev = 0
        self._created: Dict[int, int] = {}
        self._split_landed: Dict[int, int] = {}

    @property
    def rev(self) -> int:
        """Monotonic revision counter, bumped on every consumed event.

        Projections derive entirely from machine state + estimates, so
        the planning layer reuses a projected ADG for as long as
        ``(rev, estimators.version)`` is unchanged — i.e. until another
        event of this execution lands.  :meth:`delta_since` additionally
        says *what* a window of revisions changed, which is what lets the
        planning layer patch a previous projection instead of re-walking.
        """
        return self._rev

    # -- Listener API ------------------------------------------------------

    def on_event(self, event: Event) -> Any:
        with self.lock:
            self._consume_locked(event)
        return event.value

    def on_batch(self, events: Sequence[Event]) -> None:
        """Consume a whole event batch under one lock acquisition.

        The batched hot path of :meth:`~repro.events.bus.EventBus.
        publish_batch`: identical per-event semantics (same handlers, one
        revision bump per event), minus N-1 lock round-trips.
        """
        with self.lock:
            for event in events:
                self._consume_locked(event)

    def _consume_locked(self, event: Event) -> None:
        machine = self._machines.get(event.index)
        created = machine is None
        if created:
            machine = self._create(event)
        machine.on_event(event)
        self._rev += 1
        rev = self._rev
        kind = _classify(machine, event)
        if kind == _SHAPE:
            self._shape_rev = rev
        elif kind == _SPLIT:
            self._split_landed[event.index] = rev
        if created:
            self._created[event.index] = rev
        if created or kind >= _DONE:
            self._structural_rev = rev
        if kind == _SPAN or kind == _SPLIT or created:
            self._span_touched[event.index] = rev

    # -- changelog ------------------------------------------------------------

    def delta_since(self, rev: int, live: bool = False) -> Optional[ChangeDelta]:
        """What changed after revision *rev*, or ``None`` when unknown.

        ``None`` (window older than the compaction floor, or *rev* from
        the future) and ``structural=True`` both mean "re-walk";
        ``structural=False`` lists the machine indices whose spans gained
        actual times — exactly the activities a projection patch must
        refresh.

        ``live=True`` answers for the live plan table, which can patch
        more: machine creations and split-cardinality landings come back
        as ``created`` / ``splits`` instead of setting ``structural``,
        and so does the completion of a nested machine other than a
        While (nothing projects its ``finished`` flag).
        """
        with self.lock:
            if rev < self._floor_rev or rev > self._rev:
                return None
            if live:
                if self._shape_rev > rev:
                    return ChangeDelta(rev, self._rev, True)
                return ChangeDelta(
                    rev,
                    self._rev,
                    False,
                    _since(self._span_touched, rev, sort=True),
                    _since(self._created, rev),
                    _since(self._split_landed, rev),
                )
            structural = self._structural_rev > rev
            touched = () if structural else _since(
                self._span_touched, rev, sort=True
            )
            return ChangeDelta(rev, self._rev, structural, touched)

    def compact_changelog(self, before_rev: int) -> None:
        """Drop changelog detail at or below *before_rev*.

        Callers (the planning engine) pass the oldest revision any live
        plan could still ask ``delta_since`` about; everything older is
        unreachable and freed.  Keeps the log bounded by the number of
        machines *recently* touched rather than ever touched.
        """
        with self.lock:
            if before_rev <= self._floor_rev:
                return
            floor = self._floor_rev = min(before_rev, self._rev)
            self._span_touched = {
                i: r for i, r in self._span_touched.items() if r > floor
            }
            self._created = {i: r for i, r in self._created.items() if r > floor}
            self._split_landed = {
                i: r for i, r in self._split_landed.items() if r > floor
            }

    def changelog_size(self) -> int:
        """Number of per-machine changelog entries currently retained."""
        with self.lock:
            return len(self._span_touched)

    # -- machine management ---------------------------------------------------

    def _create(self, event: Event) -> TrackingMachine:
        kind = event.kind
        cls = MACHINE_TYPES.get(kind)
        if cls is None:
            raise StateMachineError(f"no tracking machine for kind {kind!r}")
        if kind in UNSUPPORTED_KINDS and not self.extensions:
            raise StateMachineError(
                f"the autonomic layer does not support {kind!r} skeletons "
                f"(as in the paper); pass extensions=True to opt in"
            )
        machine = cls(event.skeleton, event.index, event.parent_index, self.estimators)
        self._machines[event.index] = machine
        parent = (
            self._machines.get(event.parent_index)
            if event.parent_index is not None
            else None
        )
        if parent is not None:
            parent.attach_child(machine, event)
        else:
            self.roots.append(machine)
        return machine

    def machine(self, index: int) -> Optional[TrackingMachine]:
        with self.lock:
            return self._machines.get(index)

    def __len__(self) -> int:
        with self.lock:
            return len(self._machines)

    # -- projection ----------------------------------------------------------------

    def unfinished_roots(self) -> List[TrackingMachine]:
        with self.lock:
            return [m for m in self.roots if not m.finished]

    def project_roots(
        self, now: float, roots: Optional[List[TrackingMachine]] = None
    ) -> Tuple[ADG, List[int]]:
        """Build one merged ADG of the given roots (default: unfinished).

        Returns ``(adg, terminal ids)``.  Concurrent top-level executions
        (e.g. values streaming through a farm) share the worker pool, so
        the controller schedules their union.
        """
        with self.lock:
            targets = roots if roots is not None else self.unfinished_roots()
            adg = ADG()
            terminals: List[int] = []
            for machine in targets:
                terminals.extend(machine.project(adg, [], now))
            return adg, terminals

    def reset(self) -> None:
        """Forget all machines (estimators are kept — they are the history)."""
        with self.lock:
            self._machines.clear()
            self.roots.clear()
            self._span_touched.clear()
            self._created.clear()
            self._split_landed.clear()
            self._rev += 1
            self._structural_rev = self._shape_rev = self._rev
