"""Rounds, checks and metric arithmetic of one benchmark run."""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from .hostspeed import REFERENCE_S, HostSpeed
from .probe import LayerProbe
from .spans import (
    count_within,
    layer_summary,
    percentile,
    quartiles,
    rank,
    round_percentile,
    tail_percentile,
)
from .workloads import Round, Workload

#: Host-speed kernel time taken before each round, as a share of the
#: previous round's time (at least one timing).
SPEED_SHARE = 0.08

#: Per-layer values that are times; every other one is a count or a
#: ratio of counts, which must repeat exactly on the simulator.
_TIMED = ("_ms", "_ms_p50", "busy_ratio")
#: The timed values that are durations, reported in reference seconds.
_PER_TIME = ("_ms", "_ms_p50")


class Run:
    def __init__(self, workload: Workload, seconds: float, min_rounds: int,
                 speed: HostSpeed):
        self.workload = workload
        self.speed = speed
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.reference: Optional[Round] = None
        self.rounds: List[Round] = []
        self.layer_rounds: List[Dict[str, float]] = []
        self.trace_pairs: List[float] = []
        self.obs_pairs: List[float] = []
        self.problems: List[str] = []
        self.lines: List[str] = []

    # -- rounds -----------------------------------------------------------------

    def _check(self, rnd: Round, label: str) -> None:
        self.problems.extend(f"{label}: {e}" for e in rnd.errors)
        ref = self.reference
        if not self.workload.deterministic or ref is None or rnd is ref:
            return
        if rnd.digest != ref.digest:
            self.problems.append(
                f"{label}: decision digest {rnd.digest} != {ref.digest}")
        if rnd.counters != ref.counters:
            self.problems.append(
                f"{label}: counters {rnd.counters} != {ref.counters}")
        if rnd.virtual_makespan != ref.virtual_makespan:
            self.problems.append(f"{label}: virtual makespan changed")

    def _sample_speed(self) -> None:
        """Time the host-speed kernel for :data:`SPEED_SHARE` of the last
        round's time, so its timings cover the run evenly."""
        last = self.rounds[-1] if self.rounds else self.reference
        self.speed.sample(SPEED_SHARE * last.seconds if last else 0.0)

    def warm_up(self) -> None:
        """One unmeasured round: lazy set-up, and the digest reference."""
        self._sample_speed()
        self.reference = self.workload.round()
        self._check(self.reference, "warm-up round")

    def plain(self) -> None:
        started = time.perf_counter()
        while (
            time.perf_counter() - started < self.seconds
            or len(self.rounds) < self.min_rounds
            or sum(len(r.latencies) for r in self.rounds)
            < self.workload.min_latency_samples
        ):
            self._sample_speed()
            rnd = self.workload.round()
            self._check(rnd, f"round {len(self.rounds)}")
            self.rounds.append(rnd)

    def traced(self, spans_path: Path) -> None:
        """Untraced/traced pairs, then (storm only) obs-off/obs-on pairs,
        half the time each."""
        probe = LayerProbe()

        def traced_round() -> Round:
            probe.install()
            probe.reset()
            try:
                rnd = self.workload.round()
            finally:
                probe.uninstall()
            self.layer_rounds.append(_layer_metrics(probe, rnd, self.workload))
            return rnd

        self._pairs(self.trace_pairs, ("untraced", self.workload.round),
                    ("traced", traced_round))
        spans_path.parent.mkdir(exist_ok=True)
        probe.recorder.write(str(spans_path))
        if self.workload.observable:
            self._pairs(self.obs_pairs, ("obs-off", self.workload.round),
                        ("observed", lambda: self.workload.round(observability=True)))

    def _pairs(self, ratios: List[float], base, variant) -> None:
        """Alternate *base* and *variant* rounds (each pair flips which goes
        first); append each pair's variant/base time per execution."""
        started = time.perf_counter()
        while (time.perf_counter() - started < self.seconds / 2
               or len(ratios) < self.min_rounds):
            per_exec = {}
            order = (base, variant) if len(ratios) % 2 == 0 else (variant, base)
            for label, run_round in order:
                self._sample_speed()
                rnd = run_round()
                self._check(rnd, f"{label} round")
                self.rounds.append(rnd)
                per_exec[label] = rnd.seconds / rnd.executions
            ratios.append(per_exec[variant[0]] / per_exec[base[0]])

    # -- totals -----------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(r.executions for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self, setup_times: List[float],
                   setup_speed: HostSpeed) -> Dict[str, float]:
        """The end-to-end metrics in reference seconds (see ``hostspeed``):
        set-up times by the speed timed between set-ups, the rest by the
        speed timed between rounds.  Throughput and CPU time are totals
        over the rounds, latencies means over rounds (``round_percentile``):
        the speed factor is a mean, and medians track it less well.  The
        report lines also give the raw host figures."""
        rounds = self.rounds
        factor = self.speed.factor
        by_round = [[s * 1000.0 for s in r.latencies] for r in rounds]
        latencies = [s for r in by_round for s in r]
        rates = [r.executions / r.seconds for r in rounds]
        seconds = sum(r.seconds for r in rounds)
        cpu_seconds = sum(r.cpu_seconds for r in rounds)
        cpu = [1000.0 * r.cpu_seconds / r.executions for r in rounds]
        goal_attempted = sum(r.goal_attempted for r in rounds)
        goal_missed = sum(r.goal_missed for r in rounds)
        tail = tail_percentile(latencies)
        self.lines += [
            f"rounds {len(rounds)}, executions {self.attempted}, "
            f"latency samples {len(latencies)}, set-ups {len(setup_times)}",
            f"host speed factor {factor:.6g} (kernel mean "
            f"{1000.0 * factor * REFERENCE_S:.4g} ms over "
            f"{len(self.speed.samples)} timings), set-up {setup_speed.factor:.6g}; "
            "raw host figures:",
            f"  exec_per_s {self.attempted / seconds:.6g}, cpu_ms_per_exec "
            f"{1000.0 * cpu_seconds / self.attempted:.6g}, setup_s "
            f"{statistics.median(setup_times):.6g}",
            _spread_line("  per round: exec_per_s", rates),
            _spread_line("  per round: cpu_ms_per_exec", cpu),
            _spread_line("  per set-up: setup_s", setup_times),
            f"  latency_p50_ms {round_percentile(by_round, 50.0):.6g}, "
            f"latency_p95_ms {round_percentile(by_round, 95.0):.6g} (per round); "
            f"pooled {percentile(latencies, 50.0):.6g}, "
            f"{percentile(latencies, 95.0):.6g}",
            "latency tail (raw, pooled): " + (
                f"p{tail[0]:g} = {tail[1]:.4f} ms "
                f"({len(latencies) - rank(len(latencies), tail[0])} samples beyond)"
                if tail else "no percentile has 10 samples beyond it"),
            f"goal_miss_rate = {goal_missed / goal_attempted if goal_attempted else 0.0:.6g}"
            f" ({goal_missed} of {goal_attempted} goal-carrying executions)",
            f"failed_ratio = {self.failed / self.attempted:.6g}"
            f" ({self.failed} of {self.attempted})",
        ]
        if self.reference is not None and self.reference.virtual_makespan is not None:
            self.lines.append(
                f"virtual_makespan_s = {self.reference.virtual_makespan!r}")
        return {
            "setup_s": statistics.median(setup_times) / setup_speed.factor,
            "exec_per_s": self.attempted / seconds * factor,
            "latency_p50_ms": round_percentile(by_round, 50.0) / factor,
            "latency_p95_ms": round_percentile(by_round, 95.0) / factor,
            "cpu_ms_per_exec": 1000.0 * cpu_seconds / self.attempted / factor,
        }

    def layer_metrics(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for name in self.layer_rounds[0]:
            values = [m[name] for m in self.layer_rounds]
            timed = name.endswith(_TIMED)
            if self.workload.deterministic and not timed and len(set(values)) > 1:
                self.problems.append(f"per-layer counter {name} varies: {values}")
            merged[name] = statistics.median(values)
            if name.endswith(_PER_TIME):
                merged[name] /= self.speed.factor
        for key, pairs in (("trace", self.trace_pairs), ("obs", self.obs_pairs)):
            # No obs pairs run off storm: they read as zero pairs.
            q1, median, q3 = quartiles(pairs) if pairs else (0.0, 0.0, 0.0)
            merged[f"{key}.overhead_ratio"] = median
            merged[f"{key}.overhead_ratio_q1"] = q1
            merged[f"{key}.overhead_ratio_q3"] = q3
            merged[f"{key}.pairs"] = len(pairs)
        self.lines.append(
            f"traced rounds {len(self.layer_rounds)}, trace pairs "
            f"{len(self.trace_pairs)}, obs pairs {len(self.obs_pairs)}")
        return merged

    def report_decisions(self) -> None:
        """Print the seed's decision digest and counters.

        Runs of one seed are compared by whoever reads the reports: the
        program under test may change its counters on purpose, so no
        record of an earlier run is kept to check them against.
        """
        if not self.workload.deterministic or self.reference is None:
            return
        ref = self.reference
        self.lines.append(f"decision digest {ref.digest}")
        self.lines.append(f"counters {json.dumps(ref.counters, sort_keys=True)}")


def _spread_line(name: str, values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return (f"{name}: median {median:.6g}, quartiles {q1:.6g} .. {q3:.6g} "
            f"over {len(values)}")


def _layer_metrics(probe: LayerProbe, rnd: Round, workload: Workload) -> Dict[str, float]:
    """One traced round's per-layer numbers (times per execution)."""
    spans = probe.recorder.spans
    summary = layer_summary(spans)
    counts = probe.counts
    plan = rnd.plan

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    def ms(name: str) -> float:
        return 1000.0 * summary.get(name, {}).get("self_s", 0.0) / rnd.executions

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    analyses = calls("core.analysis")
    applied = counts["service.arbiter.applied"]
    minimal = calls("core.planning.minimal_lp")
    # The latency splits cover the tasks whose muscle reports its own
    # body time (the matmul blocks); busy time covers every started task.
    blocks = [(sub, st, after, b) for sub, st, after, b in probe.tasks if b is not None]
    busy = sum(after - st for _sub, st, after, _b in probe.tasks if st is not None)
    return {
        "events.published": rnd.counters["events.published"],
        "events.publish_calls": calls("events"),
        "events.self_ms": ms("events"),
        "core.monitor.calls": calls("core.monitor"),
        "core.monitor.self_ms": ms("core.monitor"),
        "core.estimator.ready_for_calls": calls("core.estimator.ready_for"),
        "core.estimator.ready_for_ms": ms("core.estimator.ready_for"),
        "core.analysis.calls": analyses,
        "core.analysis.self_ms": ms("core.analysis"),
        "core.analysis.clean_ratio": ratio(counts["core.analysis.clean"], analyses),
        "core.planning.projection_calls": calls("core.planning.projection"),
        "core.planning.projection_ms": ms("core.planning.projection"),
        "core.planning.schedule_ms": ms("core.planning.schedule"),
        "core.planning.minimal_lp_calls": minimal,
        "core.planning.minimal_lp_ms": ms("core.planning.minimal_lp"),
        "core.planning.passes_per_minimal_lp": ratio(
            counts["core.planning.minimal_lp_passes"], minimal),
        "core.planning.projection_walks": plan["projection_passes"],
        "core.planning.projection_patches": plan["projection_patches"],
        "core.planning.schedule_passes": plan["schedule_passes"],
        "core.planning.table_compiles": plan["table_compiles"],
        "core.planning.struct_memo_hits": plan["struct_memo_hits"],
        "core.planning.cache_hit_rate": plan["hit_rate"],
        "core.controller.self_ms": ms("core.controller"),
        "core.controller.lp_changes": rnd.lp_changes,
        "service.admission.calls": calls("service.admission"),
        "service.admission.self_ms": ms("service.admission"),
        "service.admission.held": counts["service.admission.held"],
        "service.admission.rejected": counts["service.admission.rejected"],
        "service.arbiter.calls": calls("service.arbiter"),
        "service.arbiter.applied": applied,
        "service.arbiter.self_ms": ms("service.arbiter"),
        "service.arbiter.analyses_per_rebalance": ratio(
            count_within(spans, "core.analysis", "service.arbiter"), applied),
        "runtime.tasks": calls("runtime.submit"),
        "runtime.submit_ms": ms("runtime.submit"),
        "runtime.set_parallelism_calls": calls("runtime.set_parallelism"),
        "runtime.queue_wait_ms_p50": _p50_ms([st - sub for sub, st, _a, _b in blocks]),
        "runtime.muscle_ms_p50": _p50_ms([b for _sub, _st, _a, b in blocks]),
        "runtime.roundtrip_ms_p50": _p50_ms([a - sub for sub, _st, a, _b in blocks]),
        "runtime.overhead_ms_p50": _p50_ms([a - sub - b for sub, _st, a, b in blocks]),
        "runtime.busy_ratio": ratio(busy, workload.capacity * rnd.seconds),
    }


def _p50_ms(values: List[float]) -> float:
    return 1000.0 * percentile(values, 50.0) if values else 0.0
