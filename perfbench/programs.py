"""The benchmark's skeleton programs, their seeded inputs and references.

Every muscle is a module-level function (bound with
:func:`functools.partial`) so the same programs pickle to process and
socket workers.  Each workload's inputs come from ``--seed`` alone, and
each expected result is computed here by a formula independent of the
skeleton that produces it.
"""

from __future__ import annotations

import random
import time
from functools import partial
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import Execute, Map, Merge, Priority, QoS, Seq, Split
from repro.core.persistence import snapshot_from_names

MOD = 10_000_019

# -- storm: many small tenants -------------------------------------------------

STORM_TENANTS = 16
STORM_GOALS = (6.0, 12.0, 30.0, 90.0)
STORM_WEIGHTS = (0.5, 1.0, 4.0)
STORM_PRIORITIES = (Priority.BATCH, Priority.NORMAL, Priority.HIGH)


class TenantSpec(NamedTuple):
    tenant: str
    width: int
    leaf: int
    value: int
    qos_kind: str  # "none" | "class" | "goal"
    goal: float
    weight: float
    priority: int

    def qos(self) -> Optional[QoS]:
        if self.qos_kind == "none":
            return None
        if self.qos_kind == "class":
            return QoS.best_effort(weight=self.weight, priority=self.priority)
        return QoS.wall_clock(self.goal, weight=self.weight, priority=self.priority)

    def expected(self) -> int:
        return sum((self.value + j) * 3 + self.leaf for j in range(self.width)) % MOD


def storm_waves(seed: int, waves: int) -> List[List[TenantSpec]]:
    """*waves* waves of :data:`STORM_TENANTS` tenants drawn from *seed*.

    Every wave has the same mix: fan-outs 2-5 four times each, 2 plain
    best-effort tenants, 3 best-effort with a class and 11 with a WCT
    goal, goals, weights and priorities in fixed proportions.  The seed
    shuffles which tenant gets what and draws the values, so the control
    work of a round varies little from seed to seed.
    """
    kinds = ["none"] * 2 + ["class"] * 3 + ["goal"] * 11
    out = []
    for wave in range(waves):
        rng = random.Random(f"storm:{seed}:{wave}")

        def dealt(values):
            hand = [values[i % len(values)] for i in range(STORM_TENANTS)]
            rng.shuffle(hand)
            return hand

        widths, qos_kinds = dealt([2, 3, 4, 5]), dealt(kinds)
        goals, weights = dealt(STORM_GOALS), dealt(STORM_WEIGHTS)
        priorities = dealt(STORM_PRIORITIES)
        out.append([
            TenantSpec(
                tenant=f"tenant-{i}",
                width=widths[i],
                leaf=rng.randint(0, 3),
                value=rng.randint(0, 1_000_000),
                qos_kind=qos_kinds[i],
                goal=goals[i],
                weight=weights[i],
                priority=int(priorities[i]),
            )
            for i in range(STORM_TENANTS)
        ])
    return out


def storm_split(v: int, width: int) -> List[int]:
    return [v + j for j in range(width)]


def storm_leaf(x: int, k: int) -> int:
    return x * 3 + k


def storm_merge(parts: Sequence[int]) -> int:
    return sum(parts) % MOD


def storm_program(spec: TenantSpec):
    """Tenant program ``map(split_w, seq(leaf_k), sum)`` and its warm start."""
    program = Map(
        Split(partial(storm_split, width=spec.width), name=f"split{spec.width}"),
        Seq(Execute(partial(storm_leaf, k=spec.leaf), name=f"leaf{spec.leaf}")),
        Merge(storm_merge, name="sum"),
    )
    warm = snapshot_from_names(
        program,
        times={f"split{spec.width}": 1.0, f"leaf{spec.leaf}": 1.0, "sum": 1.0},
        cards={f"split{spec.width}": float(spec.width)},
    )
    return program, warm


# -- bigplan: the paper's two-level map, hundreds of activities ---------------

BIG_OUTER = 10
BIG_INNER = 20
BIG_ITEMS_PER_LEAF = 8
BIG_TIMES = {"fs1": 1.0, "fs2": 0.5, "fe": 0.1, "fm": 0.05}
BIG_GOAL = 6.0
BIG_MAX_LP = 24


def chunks(data: Sequence[int], parts: int) -> List[Sequence[int]]:
    n = len(data)
    out = [data[i * n // parts:(i + 1) * n // parts] for i in range(parts)]
    return [c for c in out if c]


def sum_squares(chunk: Sequence[int]) -> int:
    return sum(x * x for x in chunk)


def big_program():
    """``map(fs1, map(fs2, seq(fe), fm), fm)`` — 10 x 20 = 222 activities."""
    fs1 = Split(partial(chunks, parts=BIG_OUTER), name="fs1")
    fs2 = Split(partial(chunks, parts=BIG_INNER), name="fs2")
    fe = Execute(sum_squares, name="fe")
    fm = Merge(sum, name="fm")
    return Map(fs1, Map(fs2, Seq(fe), fm), fm), (fs1, fs2, fe, fm)


def big_input(seed: int) -> List[int]:
    rng = random.Random(f"bigplan:{seed}")
    return [rng.randint(0, 999) for _ in range(BIG_OUTER * BIG_INNER * BIG_ITEMS_PER_LEAF)]


def big_expected(data: Sequence[int]) -> int:
    total = 0
    for x in data:
        total += x * x
    return total


def big_duration(muscle, value) -> float:
    """Virtual seconds per muscle; leaf cost varies with its chunk's data."""
    base = BIG_TIMES[muscle.name]
    if muscle.name == "fe":
        return base * (0.8 + 0.4 * (sum(value) % 101) / 100.0)
    return base


# -- procs / sockets: pure-Python block matmul ---------------------------------

MAT_N = 64
MAT_BLOCKS = 4
JOB_POOL = 16
JOB_GOAL = 5.0


class TimedBlock(NamedTuple):
    """One row block of the product plus the worker's time computing it."""

    rows: List[List[int]]
    body_s: float


def split_rows(ab: Tuple[list, list], blocks: int) -> List[Tuple[list, list]]:
    a, b = ab
    return [(rows, b) for rows in chunks(a, blocks)]


def block_matmul(slab_b: Tuple[list, list]) -> TimedBlock:
    started = time.perf_counter()
    slab, b = slab_b
    width = len(b[0])
    out = []
    for row in slab:
        acc = [0] * width
        for k, a_ik in enumerate(row):
            b_k = b[k]
            for j in range(width):
                acc[j] += a_ik * b_k[j]
        out.append(acc)
    return TimedBlock(out, time.perf_counter() - started)


def stack_rows(parts: Sequence[TimedBlock]) -> List[List[int]]:
    return [row for part in parts for row in part.rows]


def matmul_program():
    return Map(
        Split(partial(split_rows, blocks=MAT_BLOCKS), name="fs-rows"),
        Seq(Execute(block_matmul, name="fe-matmul")),
        Merge(stack_rows, name="fm-stack"),
    )


def matmul_warm(program) -> Dict[str, Any]:
    return snapshot_from_names(
        program,
        times={"fs-rows": 0.001, "fe-matmul": 0.008, "fm-stack": 0.001},
        cards={"fs-rows": float(MAT_BLOCKS)},
    )


def matmul_jobs(seed: int) -> List[Tuple[Tuple[list, list], List[List[int]]]]:
    """:data:`JOB_POOL` distinct ``((A, B), A @ B)`` pairs from *seed*."""
    jobs = []
    for j in range(JOB_POOL):
        rng = random.Random(f"matmul:{seed}:{j}")
        a = [[rng.randint(-50, 50) for _ in range(MAT_N)] for _ in range(MAT_N)]
        b = [[rng.randint(-50, 50) for _ in range(MAT_N)] for _ in range(MAT_N)]
        columns = list(zip(*b))
        product = [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]
        jobs.append(((a, b), product))
    return jobs
