"""Incremental planning layer — cached schedule/LP/WCT computation.

The paper's autonomic loop plans by repeatedly scheduling the ADG.  This
package is the single seam all planning flows through:

* :class:`~repro.core.planning.engine.PlanEngine` — per-execution facade
  owning projection + scheduling behind explicit invalidation (ADG
  revision counters, estimator version stamps);
* :class:`~repro.core.planning.cache.PlanCache` — the shared bounded
  store with recompute accounting (the rebalance-overhead benchmark's
  instrument);
* :class:`~repro.core.planning.table.PlanTable` — a projected ADG
  compiled once into struct-of-arrays form, over which the engine runs
  every hot scheduling pass as index arithmetic (``compiled=True``,
  the default);
* :class:`~repro.core.planning.compile.ProjectionCompiler` — walks a
  skeleton structure and emits PlanTable columns *directly* (no
  ``Activity`` objects, no intermediate ADG), stamping repeated
  sub-structures from relocatable templates; its output is memoized
  across engines by ``(structural fingerprint, estimate values)``;
* :class:`~repro.core.planning.live.LivePlan` — one live execution's
  table, compiled straight from its tracking machines and patched in
  place between analyses (span landings, slot fills, ``t(m)``
  restamps); the engine rebuilds it only when its shape can change.

Consumers: :class:`~repro.core.analysis.ExecutionAnalyzer` builds its
reports through the engine, :class:`~repro.service.admission.
AdmissionController` runs its feasibility gates on cached structural
plans, and :class:`~repro.service.arbiter.LPArbiter` pulls per-execution
minimal/optimal LPs from cached plans during rebalances.
"""

from .cache import PlanCache, PlanCacheStats
from .compile import (
    CompiledProjection,
    ProjectionCompiler,
    compile_structural,
    structural_fingerprint,
)
from .engine import PlanEngine
from .live import LivePlan
from .table import CompiledPinnedBase, CompiledSchedule, PlanTable

__all__ = [
    "CompiledPinnedBase",
    "CompiledProjection",
    "CompiledSchedule",
    "LivePlan",
    "PlanCache",
    "PlanCacheStats",
    "PlanEngine",
    "PlanTable",
    "ProjectionCompiler",
    "compile_structural",
    "structural_fingerprint",
]
