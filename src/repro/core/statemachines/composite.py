"""Farm and Pipe tracking machines — pure structure, no own muscles.

Both delegate estimation entirely to their nested machines; projection
threads dependencies through the recorded children and falls back to
structural projection for stages that have not started yet.
"""

from __future__ import annotations

from typing import List

from ..adg import ADG
from ..projection import project_skeleton
from .base import TrackingMachine

__all__ = ["FarmMachine", "PipeMachine"]


class FarmMachine(TrackingMachine):
    __slots__ = ()

    kind = "farm"

    def project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        if self.children:
            return self.children[0].project(adg, preds, now)
        return project_skeleton(self.skel.subskel, adg, preds, self.estimators)

    def emit(self, c, preds: List[int]) -> List[int]:
        if self.children:
            return c.machine(self.children[0], preds)
        return c.slot(0, self.skel.subskel, preds)

    def fresh_shape(self) -> bool:
        return all(child.fresh_shape() for child in self.children)


class PipeMachine(TrackingMachine):
    __slots__ = ()

    kind = "pipe"

    def project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        # A single value flows through the stages in order, so child
        # machines attach in stage order.
        current = list(preds)
        for k, stage in enumerate(self.skel.stages):
            if k < len(self.children):
                current = self.children[k].project(adg, current, now)
            else:
                current = project_skeleton(stage, adg, current, self.estimators)
        return current

    def emit(self, c, preds: List[int]) -> List[int]:
        current = list(preds)
        for k, stage in enumerate(self.skel.stages):
            if k < len(self.children):
                current = c.machine(self.children[k], current)
            else:
                current = c.slot(k, stage, current)
        return current

    def fresh_shape(self) -> bool:
        return all(child.fresh_shape() for child in self.children)
