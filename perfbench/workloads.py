"""The four workloads: what a round runs and what it must produce.

A *round* is the unit of measured work.  On the simulator workloads it
is a fresh platform plus a fresh service or controller running the
seed's whole input, so every round of one seed makes the same
decisions; on the real backends it is a fixed number of jobs pushed
through one long-lived service by a closed loop.
"""

from __future__ import annotations

import gc
import hashlib
import queue
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import (
    AutonomicController,
    CallableCostModel,
    ConstantCostModel,
    Observability,
    Priority,
    QoS,
    SimulatedPlatform,
    SkeletonService,
)
from repro.durability.replay import normalize_rebalance

from . import programs as P

RESULT_TIMEOUT = 60.0


@dataclass
class Round:
    """Everything one round measured and checked."""

    seconds: float
    cpu_seconds: float
    executions: int
    failed: int = 0
    goal_attempted: int = 0
    goal_missed: int = 0
    latencies: List[float] = field(default_factory=list)
    #: Decision-log digest and work counters that must repeat exactly
    #: across rounds of one seed (simulator workloads only).
    digest: Optional[str] = None
    counters: Dict[str, Any] = field(default_factory=dict)
    virtual_makespan: Optional[float] = None
    #: Plan-cache counters of the round (every workload).
    plan: Dict[str, Any] = field(default_factory=dict)
    lp_changes: int = 0
    errors: List[str] = field(default_factory=list)


def _timed(fn):
    """Run *fn(round)* on a fresh Round, filling wall and CPU time.

    A full collection first gives every round the same garbage-collector
    state, so one round does not pay for the previous round's garbage.
    """
    rnd = Round(seconds=0.0, cpu_seconds=0.0, executions=0)
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    fn(rnd)
    rnd.seconds = time.perf_counter() - wall
    rnd.cpu_seconds = time.process_time() - cpu
    return rnd


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _renumber(outcome, ordinal: Dict[int, int]):
    """A normalized rebalance with execution ids replaced by submit order."""

    def ids(pairs):
        return tuple(sorted((ordinal[k], v) for k, v in pairs))

    (time_, trigger, shares, total, cold, infeasible, committed, weights,
     priorities) = outcome
    kind, sep, eid = trigger.partition(":")
    if sep and eid.isdigit():  # "admit:<id>" / "done:<id>"
        trigger = f"{kind}:#{ordinal[int(eid)]}"
    return (
        time_, trigger, ids(shares), total,
        tuple(sorted(ordinal[e] for e in cold)),
        tuple(sorted(ordinal[e] for e in infeasible)),
        ids(committed), ids(weights), ids(priorities),
    )


class Workload:
    name = ""
    #: Rounds of one seed make identical decisions (virtual time).
    deterministic = False
    #: Set-ups timed per run for ``setup_s``.
    setups = 5
    #: Worker budget the layers share (reported with the host facts).
    capacity = 0
    #: Latencies a run collects at least, so that ten lie beyond p95.
    min_latency_samples = 200
    #: Traced runs also time observed against unobserved rounds.
    observable = False

    def setup(self) -> float:
        """Build the system, complete one warm-up submission; return the
        seconds that took (tearing the previous set-up down is excluded)."""
        raise NotImplementedError

    def round(self) -> Round:
        """One measured round; ``Storm.round`` also takes
        ``observability=True`` (see ``observable``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every worker the workload started."""


class Storm(Workload):
    """Waves of 16 mixed-QoS tenants through one service on the simulator."""

    name = "storm"
    deterministic = True
    observable = True
    setups = 30
    capacity = 8
    waves = 4

    def __init__(self, seed: int):
        self.specs = P.storm_waves(seed, self.waves)
        # Set-up submits one tenant of a fixed shape and QoS (values from
        # the seed), so that set-up time does not vary with the seed.
        self.setup_spec = self.specs[0][0]._replace(
            width=3, qos_kind="goal", goal=30.0, weight=1.0,
            priority=int(Priority.NORMAL))

    def _service(self, observability: bool) -> SkeletonService:
        platform = SimulatedPlatform(
            parallelism=1,
            cost_model=ConstantCostModel(1.0),
            max_parallelism=self.capacity,
        )
        return SkeletonService(
            platform=platform,
            min_rebalance_interval=0.0,
            observability=Observability(sample_rate=1.0) if observability else None,
        )

    def setup(self) -> float:
        started = time.perf_counter()
        service = self._service(False)
        spec = self.setup_spec
        program, warm = P.storm_program(spec)
        handle = service.submit(program, spec.value, qos=spec.qos(),
                                tenant=spec.tenant, warm_start=warm)
        result = handle.result(timeout=RESULT_TIMEOUT)
        elapsed = time.perf_counter() - started
        service.shutdown()
        if result != spec.expected():
            raise AssertionError("storm warm-up returned a wrong result")
        return elapsed

    def round(self, observability: bool = False) -> Round:
        return _timed(lambda rnd: self._run(rnd, observability))

    def _run(self, rnd: Round, observability: bool) -> None:
        service = self._service(observability)
        outcomes = []
        service.arbiter.on_rebalance = (
            lambda outcome, _live: outcomes.append(normalize_rebalance(outcome))
        )
        ordinal: Dict[int, int] = {}
        finished: Dict[int, float] = {}
        outcomes_by_tenant = []
        for wave in self.specs:
            submitted = []
            for spec in wave:
                program, warm = P.storm_program(spec)
                t0 = time.perf_counter()
                handle = service.submit(program, spec.value, qos=spec.qos(),
                                        tenant=spec.tenant, warm_start=warm)
                handle.future.add_done_callback(
                    lambda _f, eid=handle.execution_id:
                        finished.setdefault(eid, time.perf_counter())
                )
                ordinal[handle.execution_id] = len(ordinal)
                submitted.append((handle, spec, t0))
            for handle, spec, t0 in submitted:
                _settle(rnd, handle, spec.expected(), spec.qos())
                rnd.latencies.append(
                    finished.get(handle.execution_id, time.perf_counter()) - t0)
                outcomes_by_tenant.append(
                    (handle.status().value, handle.started_at, handle.finished_at)
                )
        platform = service.platform
        rnd.virtual_makespan = platform.now()
        rnd.plan = service.plan_stats()
        rebalances = [_renumber(o, ordinal) for o in outcomes]
        rnd.digest = _digest([*rebalances, *outcomes_by_tenant])
        rnd.counters = {
            "rebalances": len(rebalances),
            "events.published": platform.bus.published,
            **{f"plan.{k}": v for k, v in rnd.plan.items()},
        }
        service.shutdown()


class BigPlan(Workload):
    """One wide two-level map under the paper's single-execution controller."""

    name = "bigplan"
    deterministic = True
    setups = 30
    capacity = P.BIG_MAX_LP
    # One execution per second: its p95 is a high order statistic of
    # the run's executions instead (the report states the count).
    min_latency_samples = 0

    def __init__(self, seed: int):
        self.data = P.big_input(seed)
        self.expected = P.big_expected(self.data)

    def _controller(self):
        program, (fs1, fs2, fe, fm) = P.big_program()
        platform = SimulatedPlatform(
            parallelism=1,
            cost_model=CallableCostModel(P.big_duration),
            max_parallelism=self.capacity,
        )
        controller = AutonomicController(
            platform, program, qos=QoS.wall_clock(P.BIG_GOAL, max_lp=self.capacity)
        )
        estimators = controller.estimators
        for muscle in (fs1, fs2, fe, fm):
            estimators.time_estimator(muscle).initialize(P.BIG_TIMES[muscle.name])
        estimators.card_estimator(fs1).initialize(P.BIG_OUTER)
        estimators.card_estimator(fs2).initialize(P.BIG_INNER)
        return program, platform, controller

    def setup(self) -> float:
        # The warm-up input is one item: a 1 x 1 map through the same
        # controller, so set-up pays construction, not the big plan.
        started = time.perf_counter()
        program, platform, _controller = self._controller()
        result = program.compute([3], platform=platform)
        elapsed = time.perf_counter() - started
        if result != 9:
            raise AssertionError("bigplan warm-up returned a wrong result")
        return elapsed

    def round(self) -> Round:
        return _timed(self._run)

    def _run(self, rnd: Round) -> None:
        program, platform, controller = self._controller()
        t0 = time.perf_counter()
        try:
            result = program.compute(self.data, platform=platform)
        except Exception as exc:  # a failed execution is counted, not fatal
            rnd.errors.append(f"bigplan execution raised {exc!r}")
            result = None
        rnd.latencies.append(time.perf_counter() - t0)
        rnd.executions = 1
        rnd.goal_attempted = 1
        makespan = platform.now()
        if result != self.expected:
            rnd.failed = 1
            rnd.goal_missed = 1
            rnd.errors.append("bigplan returned a wrong result")
        elif makespan > P.BIG_GOAL + 1e-9:
            rnd.goal_missed = 1
        rnd.virtual_makespan = makespan
        rnd.lp_changes = len(controller.changed_decisions())
        rnd.plan = controller.analyzer.plan.cache.stats_dict()
        rnd.digest = _digest(controller.decisions)
        rnd.counters = {
            "decisions": len(controller.decisions),
            "lp_changes": rnd.lp_changes,
            "events.published": platform.bus.published,
            **{f"plan.{k}": v for k, v in rnd.plan.items()},
        }


class ServiceLoop(Workload):
    """Closed-loop matmul jobs through a service on real worker processes."""

    deterministic = False
    setups = 15
    jobs_per_round = 40

    def __init__(self, seed: int, backend: str, capacity: int):
        self.name = {"processes": "procs", "distributed": "sockets"}[backend]
        self.backend = backend
        self.capacity = capacity
        self.outstanding = capacity
        self.jobs = P.matmul_jobs(seed)
        self.service: Optional[SkeletonService] = None
        self._next_job = 0

    def _start(self) -> SkeletonService:
        service = SkeletonService(backend=self.backend, capacity=self.capacity)
        (value, expected) = self.jobs[0]
        program = P.matmul_program()
        handle = service.submit(program, value, qos=QoS.wall_clock(P.JOB_GOAL),
                                warm_start=P.matmul_warm(program))
        if handle.result(timeout=RESULT_TIMEOUT) != expected:
            service.shutdown()
            raise AssertionError(f"{self.name} warm-up returned a wrong result")
        return service

    def setup(self) -> float:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        started = time.perf_counter()
        self.service = self._start()
        return time.perf_counter() - started

    def round(self) -> Round:
        service = self.service
        published = service.platform.bus.published
        service.plan_cache.reset_stats()
        rnd = _timed(lambda r: self._run(r, service))
        rnd.plan = service.plan_stats()
        rnd.counters = {"events.published": service.platform.bus.published - published}
        return rnd

    def _run(self, rnd: Round, service: SkeletonService) -> None:
        done: "queue.Queue" = queue.Queue()
        qos = QoS.wall_clock(P.JOB_GOAL)
        in_flight = 0
        submitted = 0

        def submit_one():
            value, expected = self.jobs[self._next_job % len(self.jobs)]
            self._next_job += 1
            program = P.matmul_program()
            t0 = time.perf_counter()
            handle = service.submit(program, value, qos=qos,
                                    warm_start=P.matmul_warm(program))
            handle.future.add_done_callback(
                lambda _f: done.put((handle, expected, t0, time.perf_counter()))
            )

        while submitted < min(self.outstanding, self.jobs_per_round):
            submit_one()
            submitted += 1
            in_flight += 1
        while in_flight:
            handle, expected, t0, t1 = done.get(timeout=RESULT_TIMEOUT)
            in_flight -= 1
            _settle(rnd, handle, expected, qos)
            rnd.latencies.append(t1 - t0)
            if submitted < self.jobs_per_round:
                submit_one()
                submitted += 1
                in_flight += 1

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
        self.service = None


def _settle(rnd: Round, handle, expected, qos: Optional[QoS]) -> None:
    """Check one execution's result and count its outcome."""
    rnd.executions += 1
    has_goal = qos is not None and qos.wct is not None
    rnd.goal_attempted += int(has_goal)
    try:
        result = handle.result(timeout=RESULT_TIMEOUT)
    except Exception as exc:  # rejections, failures and timeouts all count
        rnd.failed += 1
        rnd.goal_missed += int(has_goal)
        rnd.errors.append(f"execution {handle.execution_id} raised {exc!r}")
        return
    if result != expected:
        rnd.failed += 1
        rnd.goal_missed += int(has_goal)
        rnd.errors.append(f"execution {handle.execution_id} returned a wrong result")
    elif handle.goal_met() is False:
        rnd.goal_missed += 1


def worker_budget(nproc: int) -> int:
    """Workers of the real-backend loops: one core is left to the master,
    whose client, dispatcher and collector threads would otherwise queue
    behind the workers and time the host's scheduler."""
    return max(1, nproc - 1)


def make(name: str, seed: int, nproc: int) -> Workload:
    if name == "storm":
        return Storm(seed)
    if name == "bigplan":
        return BigPlan(seed)
    if name == "procs":
        return ServiceLoop(seed, "processes", worker_budget(nproc))
    if name == "sockets":
        return ServiceLoop(seed, "distributed", worker_budget(nproc))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("storm", "bigplan", "procs", "sockets")
