"""Structured change descriptions — what a revision bump actually touched.

The planning layer keys its caches on monotonic revision counters
(:attr:`~repro.core.adg.ADG.rev`,
:attr:`~repro.core.statemachines.MachineRegistry.rev`).  A bumped counter
says *that* something changed; a :class:`ChangeDelta` says *what*, which
is what turns cache invalidation into cache *patching*:

* the :class:`~repro.core.statemachines.MachineRegistry` classifies every
  consumed event as **structural** (new machine, split cardinality,
  condition outcome, a finished root — anything that can reshape the
  projected ADG) or **span-only** (an actual start/end landing on an
  already-projected activity) and answers ``delta_since(rev)`` with the
  machines touched since *rev*;
* the :class:`~repro.core.adg.ADG` does the same for in-place activity
  updates (``update_activity``) versus structural growth (``add``).

A delta whose :attr:`structural` flag is ``False`` licenses the
:class:`~repro.core.planning.PlanEngine` to patch the previous projection
and pinned schedule base in place instead of re-walking; a structural
delta — or an unknown window, which ``delta_since`` reports as ``None``
— forces the classic full walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ChangeDelta"]


@dataclass(frozen=True, slots=True)
class ChangeDelta:
    """What changed between two revisions of a tracked structure.

    Attributes
    ----------
    from_rev / to_rev:
        The half-open revision window ``(from_rev, to_rev]`` the delta
        describes.
    structural:
        ``True`` when anything inside the window may have changed the
        *shape* of a projection (activities added or removed, fan-out or
        iteration counts discovered, roots finished).  Patching is only
        sound when this is ``False``.
    touched:
        Identifiers whose recorded times changed in place within the
        window — machine instance indices for a registry delta, activity
        ids for an ADG delta.  Sorted, duplicate-free.
    created / splits:
        Live-table windows only (``MachineRegistry.delta_since(rev,
        live=True)``): machines created in the window, in creation
        order, and machines whose split cardinality landed.  Neither
        sets ``structural``; the live table decides whether each fits
        the shape it already holds.
    """

    from_rev: int
    to_rev: int
    structural: bool
    touched: Tuple[int, ...] = ()
    created: Tuple[int, ...] = ()
    splits: Tuple[int, ...] = ()

    @property
    def empty(self) -> bool:
        """True when nothing at all changed in the window."""
        return not self.structural and not self.touched and not self.created

    def __bool__(self) -> bool:
        return not self.empty
