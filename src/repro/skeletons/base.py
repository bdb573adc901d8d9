"""Skeleton base class and the nestable skeleton AST.

A skeleton program is an immutable tree whose nodes are instances of
:class:`Skeleton` subclasses and whose leaves are muscles.  The grammar is
the one of the paper (Section 3)::

    Δ ::= seq(fe) | farm(Δ) | pipe(Δ1, Δ2) | while(fc, Δ) | if(fc, Δt, Δf)
        | for(n, Δ) | map(fs, Δ, fm) | fork(fs, {Δ}, fm) | d&c(fc, fs, Δ, fm)

Construction validates muscle flavours; execution is delegated to
:mod:`repro.runtime` — a skeleton object itself is pure structure and can
be executed many times, on any platform.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..errors import SkeletonDefinitionError
from .muscles import Muscle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.futures import SkeletonFuture
    from ..runtime.platform import Platform


class Skeleton:
    """Abstract base of every skeleton pattern.

    Attributes
    ----------
    kind:
        Lower-case pattern name (``"seq"``, ``"farm"``, ``"pipe"``,
        ``"while"``, ``"if"``, ``"for"``, ``"map"``, ``"fork"``, ``"dac"``)
        used in event labels and in the pretty-printed Δ syntax.
    children:
        Nested sub-skeletons, in pattern order.
    own_muscles:
        Muscles attached directly to this node (not to descendants).
    """

    kind: str = "?"
    #: :meth:`muscles` of this (immutable) tree, filled on first call.
    _muscle_memo: Optional[Tuple[Muscle, ...]] = None
    #: :meth:`~repro.core.estimator.EstimatorRegistry.required_cards` of
    #: this tree, filled on first call.
    _card_memo: Optional[Tuple[Muscle, ...]] = None

    def __init__(self):
        self._bound_platform: Optional["Platform"] = None

    # -- structure ---------------------------------------------------------

    @property
    def children(self) -> Tuple["Skeleton", ...]:
        """Directly nested sub-skeletons."""
        return ()

    @property
    def own_muscles(self) -> Tuple[Muscle, ...]:
        """Muscles attached to this node."""
        return ()

    def walk(self) -> Iterator["Skeleton"]:
        """Depth-first pre-order iteration over the skeleton tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def muscles(self) -> List[Muscle]:
        """All muscles of the tree, pre-order, without duplicates.

        The tree is immutable, so the walk runs once per node; later
        calls copy the memoized tuple.
        """
        memo = self._muscle_memo
        if memo is None:
            seen = set()
            out: List[Muscle] = []
            for node in self.walk():
                for muscle in node.own_muscles:
                    if muscle.uid not in seen:
                        seen.add(muscle.uid)
                        out.append(muscle)
            memo = self._muscle_memo = tuple(out)
        return list(memo)

    def depth(self) -> int:
        """Height of the skeleton tree (a lone ``seq`` has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def node_count(self) -> int:
        """Number of skeleton nodes in the tree."""
        return sum(1 for _ in self.walk())

    # -- execution convenience ----------------------------------------------

    def bind(self, platform: "Platform") -> "Skeleton":
        """Associate a default platform used by :meth:`input`; returns self."""
        self._bound_platform = platform
        return self

    def input(self, value: Any, platform: Optional["Platform"] = None) -> "SkeletonFuture":
        """Submit *value* for execution, returning a future (paper Listing 1).

        Uses *platform* when given, otherwise the platform previously
        attached with :meth:`bind`.
        """
        from ..runtime.interpreter import submit  # local import: cycle

        target = platform or self._bound_platform
        if target is None:
            raise SkeletonDefinitionError(
                "no platform: pass one to input() or call bind(platform) first"
            )
        return submit(self, value, target)

    def compute(self, value: Any, platform: Optional["Platform"] = None) -> Any:
        """Synchronous helper: :meth:`input` then ``get()`` on the future."""
        return self.input(value, platform=platform).get()

    # -- misc ---------------------------------------------------------------

    def pretty(self) -> str:
        """Render the program in the paper's Δ syntax."""
        from .visitors import pretty_print  # local import: cycle

        return pretty_print(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.pretty()


def ensure_skeleton(value: Any, label: str) -> Skeleton:
    """Validate that *value* is a skeleton, with a helpful error otherwise."""
    if not isinstance(value, Skeleton):
        raise SkeletonDefinitionError(
            f"{label} must be a Skeleton, got {type(value).__name__}: {value!r}"
        )
    return value


def ensure_skeletons(values: Sequence[Any], label: str) -> Tuple[Skeleton, ...]:
    """Validate a sequence of skeletons (used by Fork and Pipe)."""
    if isinstance(values, Skeleton) or not isinstance(values, (list, tuple)):
        raise SkeletonDefinitionError(f"{label} must be a list/tuple of skeletons")
    return tuple(ensure_skeleton(v, label) for v in values)
