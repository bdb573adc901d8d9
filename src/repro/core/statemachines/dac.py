"""Divide-and-conquer tracking machine.

One machine per recursion *node* (the interpreter gives every node its own
instance index, with the parent node as parent).  Each node records its
condition / split / merge spans; ``t(fc)``, ``t(fs)``, ``|fs|`` and
``t(fm)`` update as spans complete, and ``|fc|`` — the estimated recursion
depth, per the paper — updates when the *root* node finishes, with the
observed depth of the whole tree.

Projection of a node:

* condition span (actual / running / none yet);
* outcome unknown → estimate: divide further if the estimated remaining
  depth (``|fc| − node depth``) is positive, else project the leaf;
* outcome true → split span, child node machines (plus structurally
  projected children the split promised but which have not started),
  merge span;
* outcome false → the leaf sub-skeleton (machine or structural).
"""

from __future__ import annotations

from typing import List, Optional

from ...events.types import Event
from ..adg import ADG
from ..estimator import EstimatorRegistry
from ..projection import project_skeleton
from .base import MuscleSpan, TrackingMachine

__all__ = ["DacMachine"]


class DacMachine(TrackingMachine):
    __slots__ = (
        "cond_span",
        "split_span",
        "merge_span",
        "divided",
        "_depth_bootstrapped",
    )

    kind = "dac"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cond_span = MuscleSpan()
        self.split_span = MuscleSpan()
        self.merge_span = MuscleSpan()
        self.divided: Optional[bool] = None
        self._depth_bootstrapped = False

    # -- events -------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        if "depth" in event.extra:
            self.depth = event.extra["depth"]
        super().on_event(event)

    def handle_before_condition(self, event: Event) -> None:
        self.cond_span.start = event.timestamp

    def handle_after_condition(self, event: Event) -> None:
        self.cond_span.close(event)
        self.cond_span.result = bool(event.extra.get("cond_result"))
        self.divided = self.cond_span.result
        self._observe_span(self.skel.condition, self.cond_span)
        if self.cond_span.result is False:
            # Cold-start bootstrap of |fc| (the recursion depth): the
            # first leaf's path depth is the first depth signal available
            # — under the runtime's depth-first scheduling it reaches the
            # deepest level, long before the root finishes (which is when
            # the authoritative observation happens).
            root = self._root_node()
            if not root._depth_bootstrapped and not root.finished:
                root._depth_bootstrapped = True
                self.estimators.observe_card(self.skel.condition, self.depth)

    def handle_before_split(self, event: Event) -> None:
        self.split_span.start = event.timestamp

    def handle_after_split(self, event: Event) -> None:
        self.split_span.close(event)
        self.split_span.card = event.extra.get("fs_card")
        self._observe_span(self.skel.split, self.split_span)
        if self.split_span.card is not None:
            self.estimators.observe_card(self.skel.split, self.split_span.card)

    def handle_before_merge(self, event: Event) -> None:
        self.merge_span.start = event.timestamp

    def handle_after_merge(self, event: Event) -> None:
        self.merge_span.close(event)
        self._observe_span(self.skel.merge, self.merge_span)

    def handle_after_skeleton(self, event: Event) -> None:
        if self.depth == 0:
            # |fc| = observed depth of the recursion tree.
            self.estimators.observe_card(self.skel.condition, self.subtree_depth())

    # -- depth accounting ---------------------------------------------------------

    def _root_node(self) -> "DacMachine":
        """The depth-0 node of this recursion tree."""
        node = self
        while isinstance(node.parent, DacMachine) and node.parent.skel is node.skel:
            node = node.parent
        return node

    def subtree_depth(self) -> int:
        """Depth of the (observed) recursion tree rooted at this node.

        0 when this node is a leaf; 1 + max over child nodes otherwise.
        """
        if not self.divided:
            return 0
        node_children = [c for c in self.children if isinstance(c, DacMachine)]
        return 1 + max((c.subtree_depth() for c in node_children), default=0)

    # -- projection ------------------------------------------------------------------

    def project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        est = self.estimators
        cond = self.skel.condition
        cid = self.cond_span.add_to(adg, cond.name, est.t(cond), preds, role="condition")
        if self.cond_span.result is None:
            remaining = max(est.card_int_zero(cond) - self.depth, 0)
            return _project_future(self.skel, adg, [cid], est, remaining)
        if self.cond_span.result:
            split_id = self.split_span.add_to(
                adg, self.skel.split.name, est.t(self.skel.split), [cid], role="split"
            )
            n = self.split_span.card
            if n is None:
                n = est.card_int(self.skel.split)
            node_children = [c for c in self.children if isinstance(c, DacMachine)]
            terminals: List[int] = []
            for child in node_children[:n]:
                terminals.extend(child.project(adg, [split_id], now))
            child_remaining = max(
                est.card_int_zero(cond) - (self.depth + 1), 0
            )
            for _ in range(max(0, n - len(node_children))):
                cond_id = adg.add(cond.name, est.t(cond), [split_id], role="condition")
                terminals.extend(
                    _project_future(self.skel, adg, [cond_id], est, child_remaining)
                    if child_remaining > 0
                    else project_skeleton(self.skel.subskel, adg, [cond_id], est)
                )
            merge_id = self.merge_span.add_to(
                adg, self.skel.merge.name, est.t(self.skel.merge), terminals,
                role="merge",
            )
            return [merge_id]
        # Leaf: the nested skeleton.
        leaf_children = [c for c in self.children if not isinstance(c, DacMachine)]
        if leaf_children:
            return leaf_children[0].project(adg, [cid], now)
        return project_skeleton(self.skel.subskel, adg, [cid], est)

    def emit(self, c, preds: List[int]) -> List[int]:
        est = self.estimators
        skel = self.skel
        cond = skel.condition
        cid = c.span(self.cond_span, cond, preds, "condition")
        if self.cond_span.result is None:
            remaining = max(est.card_int_zero(cond) - self.depth, 0)
            return c.dac_future(skel, [cid], remaining)
        if self.cond_span.result:
            split_id = c.span(self.split_span, skel.split, [cid], "split")
            n = self.split_span.card
            if n is None:
                n = est.card_int(skel.split)
            c.card(n)
            node_children = [m for m in self.children if isinstance(m, DacMachine)]
            terminals: List[int] = []
            for child in node_children[:n]:
                terminals.extend(c.machine(child, [split_id]))
            child_remaining = max(est.card_int_zero(cond) - (self.depth + 1), 0)
            terminals.extend(
                c.dac_nodes(skel, split_id, child_remaining, n - len(node_children))
            )
            return [c.span(self.merge_span, skel.merge, terminals, "merge")]
        leaf_children = [m for m in self.children if not isinstance(m, DacMachine)]
        if leaf_children:
            return c.machine(leaf_children[0], [cid])
        return c.structure(skel.subskel, [cid])

    def fresh_shape(self) -> bool:
        # A tree root with its first condition pending projects the full
        # estimated depth, exactly like the structural walk.
        return self.cond_span.result is None and self.depth == 0


def _project_future(
    skel,
    adg: ADG,
    preds: List[int],
    est: EstimatorRegistry,
    remaining_depth: int,
) -> List[int]:
    """Project an unexplored subtree *below an already-added condition*.

    Mirrors :func:`repro.core.projection._project_dac` but the caller has
    already added the node's condition activity (actual or estimated).
    """
    if remaining_depth <= 0:
        return project_skeleton(skel.subskel, adg, preds, est)
    split_id = adg.add(skel.split.name, est.t(skel.split), preds, role="split")
    terminals: List[int] = []
    for _ in range(est.card_int(skel.split)):
        cond_id = adg.add(
            skel.condition.name, est.t(skel.condition), [split_id], role="condition"
        )
        terminals.extend(
            _project_future(skel, adg, [cond_id], est, remaining_depth - 1)
        )
    merge_id = adg.add(skel.merge.name, est.t(skel.merge), terminals, role="merge")
    return [merge_id]
