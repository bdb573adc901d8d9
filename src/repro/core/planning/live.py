"""Live plan tables — one per execution and root set, patched in place.

Every analysis point of the MAPE loop plans over the live projection of
the running execution.  Projecting means walking every tracking machine,
and scheduling needs the result as a :class:`~repro.core.planning.table.
PlanTable`.  Between two analyses the shape of that table almost never
moves: a muscle starts or ends, a child machine appears where the
projection already held its estimate, ``t(m)`` is re-estimated.  So the
engine keeps one :class:`LivePlan` per execution and root set and
patches it; it recompiles only when the shape can change.

**Build.** :class:`LiveCompiler` walks the machines straight into table
columns — no ``Activity``, no ADG.  Each machine emits its own rows
(:meth:`~repro.core.statemachines.base.TrackingMachine.emit`), unstarted
subtrees are stamped from the structural templates of
:class:`~repro.core.planning.compile.ProjectionCompiler`, and every
machine records a :class:`_Slice`: the rows of its spans, the base row
of each child slot it filled from the skeleton structure, and the child
count it laid out under a split.

**Patch** (:func:`patch`).  The machine changelog
(``MachineRegistry.delta_since(rev, live=True)``) certifies a window as
patchable when it holds only these changes:

1. *span landings* — the rows of the touched machines' spans get their
   start, end, duration and state rewritten;
2. *slot fills* — a machine is created into a child slot its parent
   projected from the skeleton.  A machine whose
   :meth:`~repro.core.statemachines.base.TrackingMachine.fresh_shape`
   holds lays out the same rows as that structure, so it only binds
   its spans to the slot's rows;
3. *time-only estimate changes* — every unfinished row's duration is
   restamped from its muscle's current ``t(m)``.  Programs containing
   ``If`` rebuild instead: their branch choice reads ``t(m)``.

A split AFTER whose cardinality equals the child count the table laid
out is a span landing.  Anything else — a changed cardinality estimate
(:attr:`~repro.core.estimator.EstimatorRegistry.card_version`), a
condition outcome, a finished root, a creation into no slot — rebuilds.

The patched table equals a fresh build bit for bit, which the
live-table property harness in ``tests/core/test_plan_engine.py``
checks at every analysis point against ``PlanTable.compile`` of the
machine walk.
"""

from __future__ import annotations

from array import array
from math import nan
from typing import Dict, List, Optional, Set, Tuple

from ...skeletons.conditional import If
from ..adg import ADG
from ..estimator import EstimatorRegistry
from .compile import EXT, ProjectionCompiler
from .table import (
    FINISHED,
    PENDING,
    RUNNING,
    CompiledPinnedBase,
    PlanTable,
    compiled_pin,
    compiled_pin_delta,
)

__all__ = ["LiveCompiler", "LivePlan", "build", "patch"]


class _Slice:
    """Where one tracking machine's rows live in a live table."""

    __slots__ = ("spans", "slots", "card")

    def __init__(self):
        #: (row, span, muscle) of every span the machine projected
        self.spans: List[Tuple] = []
        #: child position -> base row of a structural child slot
        self.slots: Dict[int, int] = {}
        #: children laid out under an observed-or-estimated split
        self.card: Optional[int] = None

    def shift(self, by: int) -> None:
        self.spans = [(row + by, span, m) for row, span, m in self.spans]
        self.slots = {pos: base + by for pos, base in self.slots.items()}


class LiveCompiler(ProjectionCompiler):
    """A :class:`ProjectionCompiler` that also walks tracking machines.

    Machines call back into :meth:`span`, :meth:`estimate`,
    :meth:`structure`, :meth:`slot` / :meth:`slots` and :meth:`machine`
    from their ``emit`` methods, case for case where ``project`` calls
    ``MuscleSpan.add_to``, ``ADG.add``, ``project_skeleton`` and the
    children's ``project``.
    """

    __slots__ = ("slices", "_cur")

    def __init__(self, est: EstimatorRegistry, _templates: Optional[Dict] = None):
        super().__init__(est, _templates)
        self.slices: Dict[int, _Slice] = {}
        self._cur: Optional[_Slice] = None

    def machine(self, m, preds: List[int]) -> List[int]:
        """Emit machine *m* and record its slice."""
        rec = _Slice()
        outer, self._cur = self._cur, rec
        terminals = m.emit(self, preds)
        self._cur = outer
        self.slices[m.index] = rec
        return terminals

    def span(self, span, muscle, preds: List[int], role: str) -> int:
        """One span's row — twin of ``MuscleSpan.add_to``."""
        if span.end is not None:
            dur = span.end - span.start
        else:
            dur = self.est.t(muscle)
        row = self.add(muscle, dur, preds, role)
        self._cur.spans.append((row, span, muscle))
        return row

    def estimate(self, muscle, preds: List[int], role: str) -> int:
        """One estimate-only row of *muscle*."""
        return self.add(muscle, self.est.t(muscle), preds, role)

    def structure(self, skel, preds: List[int]) -> List[int]:
        """Unstarted structure — twin of ``project_skeleton``."""
        return self._emit(skel, preds)

    def slot(self, pos: int, skel, preds: List[int]) -> List[int]:
        """Child slot *pos* of the current machine, emitted from *skel*."""
        self._cur.slots[pos] = len(self.names)
        return self._emit(skel, preds)

    def slots(self, first: int, skel, pred: int, k: int) -> List[int]:
        """Child slots ``first .. first+k-1``, all depending on *pred*
        (stamped from one template; a single slot emits directly, as a
        single-use template would only add copy overhead)."""
        if k <= 1:
            return self.slot(first, skel, [pred]) if k == 1 else []
        tmpl = self._template(skel)
        base = len(self.names)
        terminals = self.stamp_many(tmpl, pred, k)
        slots = self._cur.slots
        for j in range(k):
            slots[first + j] = base + j * tmpl.n
        return terminals

    def card(self, n: int) -> None:
        """The current machine lays out *n* children under its split."""
        self._cur.card = n

    def dac_nodes(self, skel, pred: int, remaining: int, k: int) -> List[int]:
        """*k* unstarted d&c nodes under *pred*, *remaining* levels deep
        (each: condition, then the future below it)."""
        if k <= 0:
            return []
        if k == 1 and remaining < 2:
            return self._emit_dac(skel, [pred], remaining)
        return self.stamp_many(self._dac_template(skel, remaining), pred, k)

    def dac_future(self, skel, preds: List[int], remaining: int) -> List[int]:
        """The unexplored subtree below an emitted d&c condition — twin
        of ``statemachines.dac._project_future``."""
        if remaining <= 0:
            return self._emit(skel.subskel, preds)
        split = self.estimate(skel.split, preds, "split")
        terminals = self.dac_nodes(
            skel, split, remaining - 1, self.est.card_int(skel.split)
        )
        return [self.estimate(skel.merge, terminals, "merge")]

    def finish(self) -> PlanTable:
        """Seal the columns, writing every span's actual times."""
        table = self.finalize()
        start = table.start
        end = table.end
        state = table.state
        for rec in self.slices.values():
            for row, span, _muscle in rec.spans:
                s = span.start
                if s is not None:
                    start[row] = s
                    e = span.end
                    if e is None:
                        state[row] = RUNNING
                    else:
                        end[row] = e
                        state[row] = FINISHED
        return table


class LivePlan:
    """One execution's live plan table, patched in place (module docs).

    Duck-types the slice of the :class:`~repro.core.adg.ADG` surface the
    planning engine touches — ``rev`` and ``len`` — so every compiled
    schedule pass accepts it.  ``rev`` bumps on every patch that wrote
    a row, which retires every cached plan keyed on the old table.  A
    rebuild makes a new object, so a held-over report keeps the table
    it was computed from.
    """

    __slots__ = (
        "table",
        "token",
        "rev",
        "roots_key",
        "slices",
        "templates",
        "has_if",
        "machines_rev",
        "est_version",
        "card_version",
        "_muscle_ids",
        "_muscles",
        "_dirty",
        "_pin",
        "__weakref__",
    )

    def __len__(self) -> int:
        return self.table.n

    def to_adg(self) -> ADG:
        """The table as a fresh :class:`~repro.core.adg.ADG` — for
        rendering and inspection only."""
        return self.table.to_adg()

    def pinned(self, now: float) -> Tuple[CompiledPinnedBase, bool]:
        """The pinned base at *now*, and whether a delta re-pin made it.

        The previous base is advanced over the rows patched since it was
        pinned (:func:`~repro.core.planning.table.compiled_pin_delta`);
        after a rebuild or a duration restamp every row counts as
        touched and the pin runs in full.
        """
        prev = self._pin
        dirty = self._dirty
        if prev is None or dirty is None:
            base = compiled_pin(self.table, now)
        else:
            base = compiled_pin_delta(self.table, now, prev, dirty)
        self._pin = base
        self._dirty = set()
        return base, prev is not None and dirty is not None


def build(
    machines,
    est: EstimatorRegistry,
    roots: List,
    roots_key: Optional[Tuple],
    token: Tuple,
) -> LivePlan:
    """Compile *roots* straight from their machines into a new plan.

    *roots_key* names the root set: the indices of a fixed set, or
    ``None`` for "every unfinished root", whose plan a new root joins.
    """
    compiler = LiveCompiler(est)
    for root in roots:
        compiler.machine(root, [])
    plan = LivePlan()
    plan.table = compiler.finish()
    plan.token = token
    plan.rev = 0
    plan.roots_key = roots_key
    plan.slices = compiler.slices
    plan.templates = compiler._templates
    plan.has_if = any(
        isinstance(node, If) for root in roots for node in root.skel.walk()
    )
    plan.machines_rev = machines.rev
    plan.est_version = est.version
    plan.card_version = est.card_version
    muscles = compiler.muscles
    plan._muscle_ids = list(map(id, muscles))
    plan._muscles = {id(m): m for m in muscles}
    plan._dirty = None
    plan._pin = None
    return plan


def patch(plan: LivePlan, machines, est: EstimatorRegistry) -> bool:
    """Bring *plan* up to date in place; ``False`` means "rebuild".

    Runs under ``machines.lock``.  Every check that can fail runs before
    the table is written, so a refused window leaves the table as it
    was.
    """
    version = est.version
    if est.card_version != plan.card_version:
        return False
    if version != plan.est_version and plan.has_if:
        return False
    delta = machines.delta_since(plan.machines_rev, live=True)
    if delta is None or delta.structural:
        return False
    slices = plan.slices
    for idx in delta.splits:
        rec = slices.get(idx)
        if rec is not None and rec.card is not None:
            card = machines.machine(idx).split_span.card
            if card is not None and card != rec.card:
                return False
    for idx in delta.created:
        if idx not in slices and not _bind(plan, machines.machine(idx), est):
            return False

    table = plan.table
    rows: Set[int] = set()
    for idx in delta.touched:
        rec = slices.get(idx)
        if rec is not None:
            for row, span, muscle in rec.spans:
                _land(table, est, row, span, muscle)
                rows.add(row)
    restamped = version != plan.est_version and _restamp(plan, est)
    if rows or restamped:
        plan.rev += 1
        if restamped:
            plan._dirty = None
        elif plan._dirty is not None:
            plan._dirty |= rows
    plan.machines_rev = delta.to_rev
    plan.est_version = version
    return True


def _bind(plan: LivePlan, m, est: EstimatorRegistry) -> bool:
    """Account for freshly created machine *m*; ``False`` means rebuild.

    A machine outside the table (a root the plan's fixed root set does
    not hold, a child of a machine the table does not project) changes
    nothing.  A machine created into a structural slot of its parent
    fills it when :meth:`fresh_shape` proves it lays out the slot's
    rows: it emits into a throwaway compiler at the slot's relative
    offsets, and only its slice bookkeeping is kept (the rows already
    hold the structure; its spans land with the window's other touched
    machines).  Anything else — a new root of the "every unfinished
    root" plan, a creation into no slot, a machine not provably fresh —
    rebuilds.
    """
    parent = m.parent
    if parent is None:
        return plan.roots_key is not None
    prec = plan.slices.get(parent.index)
    if prec is None:
        return True
    pos = parent.children.index(m)
    base = prec.slots.get(pos)
    if base is None or not m.fresh_shape():
        return False
    sub = LiveCompiler(est, plan.templates)
    sub.machine(m, [EXT])
    del prec.slots[pos]
    for idx, rec in sub.slices.items():
        rec.shift(base)
        plan.slices[idx] = rec
    return True


def _land(table: PlanTable, est: EstimatorRegistry, row: int, span, muscle) -> None:
    """Rewrite one span's row from the span's current times."""
    s = span.start
    e = span.end
    if e is not None:
        table.start[row] = s
        table.end[row] = e
        table.duration[row] = e - s
        table.state[row] = FINISHED
        return
    table.start[row] = nan if s is None else s
    table.end[row] = nan
    table.duration[row] = est.t(muscle)
    table.state[row] = PENDING if s is None else RUNNING


def _restamp(plan: LivePlan, est: EstimatorRegistry) -> bool:
    """Re-read ``t(m)`` into every unfinished row; True when any moved."""
    table = plan.table
    values = {key: est.t(m) for key, m in plan._muscles.items()}
    fresh = array("d", map(values.__getitem__, plan._muscle_ids))
    old = table.duration
    for i, s in enumerate(table.state):
        if s == FINISHED:
            fresh[i] = old[i]
    if fresh == old:
        return False
    table.duration = fresh
    return True
