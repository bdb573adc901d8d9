"""Deterministic work counters of the live plan table.

The paper's two-level map (10 x 20 leaves, 222 activities) under the
single-execution :class:`~repro.AutonomicController` with warm
estimates: every muscle AFTER event is an analysis point, and each one
plans over the execution's live plan table.  Wall time is too noisy to
gate on; these counters are not:

* full live compiles per run stay within one plus the split AFTERs (the
  first projection, and at most one rebuild per cardinality landing);
* no ``Activity`` is allocated — live analyses never build an ADG;
* the decision list is the one the walk-and-compile planner produced
  (pinned by its digest).
"""

import hashlib
import random
from functools import partial

from repro import AutonomicController, CallableCostModel, QoS, SimulatedPlatform
from repro.core import adg as adg_module
from repro.events.bus import Listener
from repro.events.types import When, Where
from repro.skeletons import Execute, Map, Merge, Seq, Split

OUTER, INNER, ITEMS_PER_LEAF = 10, 20, 8
TIMES = {"fs1": 1.0, "fs2": 0.5, "fe": 0.1, "fm": 0.05}
GOAL, MAX_LP = 6.0, 24

#: sha256 prefix of the decision reprs for seed 1, as produced by the
#: walk-and-compile planner before the live plan table replaced it.
DECISIONS_DIGEST = "2c3f14fa23fdb3f0"


def chunks(data, parts):
    n = len(data)
    out = [data[i * n // parts:(i + 1) * n // parts] for i in range(parts)]
    return [c for c in out if c]


def sum_squares(chunk):
    return sum(x * x for x in chunk)


def duration(muscle, value):
    """Virtual seconds per muscle; leaf cost varies with its data."""
    base = TIMES[muscle.name]
    if muscle.name == "fe":
        return base * (0.8 + 0.4 * (sum(value) % 101) / 100.0)
    return base


class SplitAfters(Listener):
    def __init__(self):
        self.count = 0

    def on_event(self, event):
        if event.when is When.AFTER and event.where is Where.SPLIT:
            self.count += 1
        return event.value


def run_map(seed=1):
    fs1 = Split(partial(chunks, parts=OUTER), name="fs1")
    fs2 = Split(partial(chunks, parts=INNER), name="fs2")
    fe = Execute(sum_squares, name="fe")
    fm = Merge(sum, name="fm")
    program = Map(fs1, Map(fs2, Seq(fe), fm), fm)
    platform = SimulatedPlatform(
        parallelism=1,
        cost_model=CallableCostModel(duration),
        max_parallelism=MAX_LP,
    )
    controller = AutonomicController(
        platform, program, qos=QoS.wall_clock(GOAL, max_lp=MAX_LP)
    )
    est = controller.estimators
    for muscle in (fs1, fs2, fe, fm):
        est.time_estimator(muscle).initialize(TIMES[muscle.name])
    est.card_estimator(fs1).initialize(OUTER)
    est.card_estimator(fs2).initialize(INNER)
    splits = SplitAfters()
    platform.add_listener(splits)
    rng = random.Random(f"bigplan:{seed}")
    data = [rng.randint(0, 999) for _ in range(OUTER * INNER * ITEMS_PER_LEAF)]
    result = program.compute(data, platform=platform)
    assert result == sum(x * x for x in data)
    return controller, splits.count


def test_live_table_counters_on_the_two_level_map(monkeypatch):
    allocations = []
    original = adg_module.ADG.add
    monkeypatch.setattr(
        adg_module.ADG,
        "add",
        lambda self, *a, **k: allocations.append(1) or original(self, *a, **k),
    )
    controller, split_afters = run_map()
    stats = controller.analyzer.plan.cache.stats
    analyses = len(controller.decisions)
    assert split_afters == 1 + OUTER
    assert analyses > 200
    assert stats.table_compiles <= 1 + split_afters
    assert stats.projection_passes == stats.table_compiles
    assert stats.projection_patches >= analyses - stats.table_compiles
    assert allocations == []
    digest = hashlib.sha256()
    for decision in controller.decisions:
        digest.update(repr(decision).encode())
    assert digest.hexdigest()[:16] == DECISIONS_DIGEST
