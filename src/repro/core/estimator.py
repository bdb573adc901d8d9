"""History-based estimation of muscle costs — ``t(m)`` and ``|m|``.

The paper's base formula (Section 4)::

    newEstimatedVal = ρ × lastActualVal + (1 − ρ) × previousEstimatedVal

with ρ ∈ [0, 1] weighting recent observations against history (default 0.5:
"the estimated time is the average between the length of the previous
execution, and the previous estimation").  ρ = 1 tracks only the last
measurement; ρ = 0 never moves away from the first value.

Two quantities are estimated per muscle:

* ``t(m)`` — execution time, defined for every muscle flavour;
* ``|m|`` — cardinality, defined only for Split muscles (number of
  sub-problems produced) and Condition muscles (number of ``True``
  results over a While execution, or the recursion depth of a D&C).

The estimation "implies that the system has to wait until all muscles have
been executed at least once" — unless the estimators are *initialized*
from a previous run (the paper's scenario 2), which
:mod:`repro.core.persistence` implements.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Tuple

from ..errors import EstimateNotReadyError, QoSError
from ..skeletons.base import Skeleton
from ..skeletons.dac import DivideAndConquer
from ..skeletons.fork import Fork
from ..skeletons.loops import While
from ..skeletons.muscles import Muscle
from ..skeletons.smap import Map

__all__ = ["HistoryEstimator", "EstimatorRegistry"]


class HistoryEstimator:
    """One exponentially-weighted history estimate (the paper's formula)."""

    __slots__ = ("rho", "_value", "observations", "last_actual", "initialized")

    def __init__(self, rho: float = 0.5, initial: Optional[float] = None):
        if not 0.0 <= rho <= 1.0:
            raise QoSError(f"rho must be within [0, 1], got {rho}")
        self.rho = rho
        self._value: Optional[float] = None
        self.observations = 0
        self.last_actual: Optional[float] = None
        self.initialized = False
        if initial is not None:
            self.initialize(initial)

    # -- production -----------------------------------------------------------

    def initialize(self, value: float) -> None:
        """Warm-start the estimate (e.g. from a previous run's snapshot)."""
        self._value = float(value)
        self.initialized = True

    def update(self, actual: float) -> float:
        """Fold one observation into the estimate; returns the new value.

        The very first observation (with no warm start) *becomes* the
        estimate — there is no previous estimation to blend with.
        """
        actual = float(actual)
        self.last_actual = actual
        self.observations += 1
        if self._value is None:
            self._value = actual
        else:
            self._value = self.rho * actual + (1.0 - self.rho) * self._value
        return self._value

    # -- consumption -----------------------------------------------------------

    @property
    def ready(self) -> bool:
        """True when the estimate is usable (observed once or initialized)."""
        return self._value is not None

    @property
    def value(self) -> float:
        if self._value is None:
            raise EstimateNotReadyError("estimator has no observation yet")
        return self._value

    def peek(self, default: Optional[float] = None) -> Optional[float]:
        """The estimate, or *default* when not ready."""
        return self._value if self._value is not None else default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HistoryEstimator(rho={self.rho}, value={self._value}, "
            f"n={self.observations}, init={self.initialized})"
        )


class EstimatorRegistry:
    """Per-muscle estimators of ``t(m)`` and ``|m|`` for a program.

    The registry is keyed by muscle identity (:attr:`Muscle.uid`), so two
    structurally identical ``Split`` muscles used at different nesting
    levels — such as the paper's file-level and chunk-level splits, whose
    costs differ by 7× — are estimated independently.

    ``factory``, when given, replaces the paper's
    :class:`HistoryEstimator` with an alternative estimation algorithm
    (see :mod:`repro.core.estimators_ext`); it must produce objects with
    the same ``update / initialize / ready / value / peek`` interface.
    """

    def __init__(self, rho: float = 0.5, factory=None):
        if not 0.0 <= rho <= 1.0:
            raise QoSError(f"rho must be within [0, 1], got {rho}")
        self.rho = rho
        self._factory = factory
        self._time: Dict[int, HistoryEstimator] = {}
        self._card: Dict[int, HistoryEstimator] = {}
        self._version = 0
        self._card_version = 0
        self._lock = threading.Lock()
        # skeleton -> ((estimator table, muscle uid), ...) not yet seen
        # ready; () once the skeleton is ready (see ready_for).
        self._pending: Dict[Skeleton, Tuple[Tuple[Dict, int], ...]] = {}

    @property
    def version(self) -> int:
        """Monotonic stamp, bumped whenever any estimate changes value.

        Structural projections and schedules derive entirely from the
        estimates (plus observed actuals), so the planning layer keys its
        caches on this stamp: a changed ``t(m)`` or ``|m|`` invalidates
        every plan computed from the old values.

        *Value* change is literal: an observation that leaves the
        smoothed estimate bit-identical (a steady workload whose ``t(m)``
        has converged) does **not** bump the stamp.  That keeps plans —
        and, since the delta pipeline, patched projections — valid across
        event storms that carry no new information, while any actual
        drift still invalidates everything derived from the old values.
        """
        return self._version

    @property
    def card_version(self) -> int:
        """Stamp bumped only when a *cardinality* estimate changes value.

        Cardinalities (``|m|``) decide how many activities a projection
        holds and how they connect; times (``t(m)``) only weight them.
        A live plan table whose :attr:`card_version` is unchanged keeps
        its shape across a :attr:`version` bump and restamps durations
        in place instead of recompiling.
        """
        return self._card_version

    def _bump_if_changed(
        self, before: Optional[float], after: float, card: bool = False
    ) -> None:
        if before is None or before != after:
            with self._lock:
                self._version += 1
                if card:
                    self._card_version += 1

    def _new_estimator(self) -> HistoryEstimator:
        if self._factory is not None:
            return self._factory()
        return HistoryEstimator(self.rho)

    # -- access -----------------------------------------------------------------

    def time_estimator(self, muscle: Muscle) -> HistoryEstimator:
        """The ``t(m)`` estimator of *muscle* (created on first access)."""
        with self._lock:
            est = self._time.get(muscle.uid)
            if est is None:
                est = self._new_estimator()
                self._time[muscle.uid] = est
            return est

    def card_estimator(self, muscle: Muscle) -> HistoryEstimator:
        """The ``|m|`` estimator of *muscle* (created on first access)."""
        with self._lock:
            est = self._card.get(muscle.uid)
            if est is None:
                est = self._new_estimator()
                self._card[muscle.uid] = est
            return est

    # -- observation --------------------------------------------------------------

    def observe_time(self, muscle: Muscle, duration: float) -> float:
        """Record one measured execution time of *muscle*."""
        if duration < 0:
            raise ValueError(f"negative duration {duration} for {muscle.name!r}")
        est = self.time_estimator(muscle)
        before = est.peek()
        value = est.update(duration)
        self._bump_if_changed(before, value)
        return value

    def observe_card(self, muscle: Muscle, cardinality: float) -> float:
        """Record one measured cardinality of *muscle*."""
        if cardinality < 0:
            raise ValueError(f"negative cardinality {cardinality} for {muscle.name!r}")
        est = self.card_estimator(muscle)
        before = est.peek()
        value = est.update(cardinality)
        self._bump_if_changed(before, value, card=True)
        return value

    def initialize_time(self, muscle: Muscle, value: float) -> None:
        """Warm-start the ``t(m)`` estimate of *muscle* (version-stamped)."""
        est = self.time_estimator(muscle)
        before = est.peek()
        est.initialize(value)
        self._bump_if_changed(before, est.peek())

    def initialize_card(self, muscle: Muscle, value: float) -> None:
        """Warm-start the ``|m|`` estimate of *muscle* (version-stamped)."""
        est = self.card_estimator(muscle)
        before = est.peek()
        est.initialize(value)
        self._bump_if_changed(before, est.peek(), card=True)

    # -- queries -----------------------------------------------------------------

    def t(self, muscle: Muscle) -> float:
        """Current ``t(m)`` estimate; raises when not ready."""
        return self.time_estimator(muscle).value

    def card(self, muscle: Muscle) -> float:
        """Current ``|m|`` estimate; raises when not ready."""
        return self.card_estimator(muscle).value

    def card_int(self, muscle: Muscle) -> int:
        """``|m|`` rounded to a usable positive integer (ceil, min 1).

        Projections need whole sub-problem counts / iteration counts; the
        underlying estimate is a float blend of past observations.
        """
        return max(1, math.ceil(self.card(muscle) - 1e-9))

    def card_int_zero(self, muscle: Muscle) -> int:
        """``|m|`` rounded like :meth:`card_int` but allowing zero.

        While iteration counts and D&C recursion depths may legitimately
        be zero (a loop whose condition is false immediately; a D&C whose
        root is already a leaf).
        """
        return max(0, math.ceil(self.card(muscle) - 1e-9))

    def has_time(self, muscle: Muscle) -> bool:
        with self._lock:
            est = self._time.get(muscle.uid)
        return est is not None and est.ready

    def has_card(self, muscle: Muscle) -> bool:
        with self._lock:
            est = self._card.get(muscle.uid)
        return est is not None and est.ready

    # -- readiness ----------------------------------------------------------------

    @staticmethod
    def required_cards(skel: Skeleton) -> Tuple[Muscle, ...]:
        """Muscles whose cardinality the projection of *skel* depends on.

        Split muscles of Map/Fork/D&C (fan-out) and Condition muscles of
        While (iteration count) and D&C (recursion depth).  ``For`` has a
        static trip count; ``If`` conditions need no cardinality.  The
        skeleton tree is immutable, so the walk runs once per node.
        """
        cards = skel._card_memo
        if cards is None:
            out = []
            for node in skel.walk():
                if isinstance(node, (Map, Fork)):
                    out.append(node.split)
                elif isinstance(node, While):
                    out.append(node.condition)
                elif isinstance(node, DivideAndConquer):
                    out.append(node.condition)
                    out.append(node.split)
            cards = skel._card_memo = tuple(out)
        return cards

    def ready_for(self, skel: Skeleton) -> bool:
        """True when every estimate needed to project *skel* is available.

        This is the paper's "wait until all muscles have been executed at
        least once" gate: the first ADG analysis of a cold run can only
        happen once every muscle has an observation (scenario 1's first
        analysis at ≈7.6 s, right after the first merge).

        Readiness only ever moves from false to true, so the registry
        remembers, per skeleton, the needs not yet seen ready and
        re-checks only those: a ready skeleton costs one dict lookup, a
        cold one resumes at its first missing estimate.  Estimators
        initialized directly (``time_estimator(m).initialize(v)``, which
        does not bump :attr:`version`) are still picked up.
        """
        pending = self._pending.get(skel)
        if pending is None:
            pending = tuple((self._time, m.uid) for m in skel.muscles()) + tuple(
                (self._card, m.uid) for m in self.required_cards(skel)
            )
        elif not pending:
            return True
        for i, (table, uid) in enumerate(pending):
            est = table.get(uid)
            if est is None or not est.ready:
                self._pending[skel] = pending[i:]
                return False
        self._pending[skel] = ()
        return True

    def missing_for(self, skel: Skeleton) -> list:
        """Human-readable list of the estimates still missing for *skel*."""
        missing = []
        for muscle in skel.muscles():
            if not self.has_time(muscle):
                missing.append(f"t({muscle.name})")
        for muscle in self.required_cards(skel):
            if not self.has_card(muscle):
                missing.append(f"|{muscle.name}|")
        return missing
