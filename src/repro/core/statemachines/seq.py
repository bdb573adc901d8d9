"""Seq tracking machine — the paper's Figure 3.

States: I --seq@b(i)--> (running) --seq@a(i)[idx==i]--> F, updating
``t(fe) = ρ(now − eti) + (1−ρ) t(fe)`` on the AFTER transition.
"""

from __future__ import annotations

from typing import List

from ...events.types import Event
from ..adg import ADG
from .base import MuscleSpan, TrackingMachine

__all__ = ["SeqMachine"]


class SeqMachine(TrackingMachine):
    __slots__ = ("span",)

    kind = "seq"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.span = MuscleSpan()

    # Figure 3's `eti = currentTime` on the BEFORE event…
    def handle_before_skeleton(self, event: Event) -> None:
        self.span.start = event.timestamp

    # …and the t(fe) update on the AFTER event.
    def handle_after_skeleton(self, event: Event) -> None:
        self.span.close(event)
        self._observe_span(self.skel.execute, self.span)

    def project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        muscle = self.skel.execute
        est = self.estimators.t(muscle)
        aid = self.span.add_to(adg, muscle.name, est, preds, role="execute")
        return [aid]

    def emit(self, c, preds: List[int]) -> List[int]:
        return [c.span(self.span, self.skel.execute, preds, "execute")]

    def fresh_shape(self) -> bool:
        return True  # one row, whatever its span holds
