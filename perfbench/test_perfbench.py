"""Tests of the benchmark's own arithmetic and probes.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import re
import threading
from pathlib import Path

from repro import EventBus, ExecutionAnalyzer, LPArbiter, SimulatedPlatform
from repro.core.planning import PlanEngine

from perfbench.hostspeed import REFERENCE_S, HostSpeed
from perfbench.probe import LayerProbe
from perfbench.spans import (
    SpanRecorder,
    count_within,
    layer_summary,
    percentile,
    round_percentile,
    tail_percentile,
)
from perfbench.workloads import Storm

ROOT = Path(__file__).resolve().parent.parent


def scripted(events):
    """Replay ``(+name | -, time)`` steps on a recorder with a fake clock."""
    times = iter(t for _step, t in events)
    rec = SpanRecorder(clock=lambda: next(times))
    open_spans = []
    for step, _t in events:
        if step == "-":
            rec.end(open_spans.pop())
        else:
            open_spans.append(rec.begin(step))
    return rec.spans


def test_schedule_pass_inside_analysis_and_minimal_lp_counts_once():
    spans = scripted([
        ("core.analysis", 0), ("core.planning.schedule", 1), ("-", 3),
        ("core.planning.minimal_lp", 4),
        ("core.planning.schedule", 5), ("-", 6),
        ("core.planning.schedule", 6), ("-", 8),
        ("-", 9),
        ("-", 10),
    ])
    s = layer_summary(spans)
    assert s["core.analysis"]["self_s"] == 3
    assert s["core.planning.minimal_lp"]["self_s"] == 2
    assert s["core.planning.schedule"] == {"calls": 3, "self_s": 5}
    assert sum(v["self_s"] for v in s.values()) == 10


def test_publish_from_inside_a_listener_is_its_own_call():
    spans = scripted([
        ("events", 0), ("core.monitor", 1), ("events", 2), ("-", 4),
        ("-", 9), ("-", 10),
    ])
    s = layer_summary(spans)
    assert s["events"] == {"calls": 2, "self_s": 4}
    assert s["core.monitor"] == {"calls": 1, "self_s": 6}


def test_same_layer_sub_call_is_not_a_call():
    # ExecutionAnalyzer.on_event -> observe: one monitor call.
    spans = scripted([("core.monitor", 0), ("core.monitor", 1), ("-", 4), ("-", 5)])
    assert layer_summary(spans)["core.monitor"] == {"calls": 1, "self_s": 5}


def test_span_still_open_counts_zero():
    # A call that outlives the measured round has no end yet.
    rec = SpanRecorder(clock=iter([0, 1, 3]).__next__)
    rec.begin("service.arbiter")
    rec.end(rec.begin("core.analysis"))
    s = layer_summary(rec.spans)
    assert s["service.arbiter"] == {"calls": 1, "self_s": 0.0}
    assert s["core.analysis"] == {"calls": 1, "self_s": 2}


def test_count_within_finds_deep_ancestors():
    spans = scripted([
        ("service.arbiter", 0), ("core.planning.minimal_lp", 1),
        ("core.analysis", 2), ("-", 3), ("-", 4), ("-", 5),
        ("core.analysis", 6), ("-", 7),
    ])
    assert count_within(spans, "core.analysis", "service.arbiter") == 1


def test_parents_are_per_thread():
    rec = SpanRecorder()
    outer = rec.begin("outer")
    inner_parent = []

    def other():
        idx = rec.begin("other")
        inner_parent.append(rec.spans[idx][3])
        rec.end(idx)

    t = threading.Thread(target=other)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.end(outer)
    assert inner_parent == [None]


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20))) == (50.0, 9)
    assert tail_percentile(list(range(200))) == (95.0, 189)
    assert tail_percentile(list(range(209)))[0] == 95.0
    assert tail_percentile(list(range(1000))) == (99.0, 989)
    assert tail_percentile(list(range(10000)))[0] == 99.9
    assert percentile([5, 1, 3], 50.0) == 3


def test_round_percentile_is_a_mean_over_rounds():
    steady = list(range(1, 41))
    stalled = [x + 30 for x in steady]
    # One stalled round of three moves the p95 by a third of its excess;
    # pooled, the stalled round alone would hold the p95.
    assert round_percentile([steady, stalled, steady], 95.0) == 48
    assert percentile(steady + stalled + steady, 95.0) == 64
    # One execution per round: the samples are pooled.
    assert round_percentile([[3], [1], [2], [9]], 50.0) == 2


def test_host_speed_factor_is_the_mean_over_reference():
    speed = HostSpeed()
    speed.samples = [1 * REFERENCE_S, 1 * REFERENCE_S, 4 * REFERENCE_S]
    assert speed.factor == 2
    speed.sample()
    assert len(speed.samples) == 4 and speed.samples[-1] > 0


def test_probe_restores_every_method():
    originals = {
        (cls, attr): cls.__dict__.get(attr)
        for cls, attr in [
            (EventBus, "publish"), (ExecutionAnalyzer, "analyze"),
            (PlanEngine, "minimal_lp"), (LPArbiter, "rebalance"),
            (SimulatedPlatform, "submit"),
        ]
    }
    probe = LayerProbe()
    probe.install()
    assert EventBus.__dict__["publish"] is not originals[(EventBus, "publish")]
    probe.uninstall()
    for (cls, attr), fn in originals.items():
        assert cls.__dict__.get(attr) is fn


class OneWaveStorm(Storm):
    waves = 1


def test_tracing_does_not_steer_the_storm():
    storm = OneWaveStorm(seed=7)
    plain = storm.round()
    probe = LayerProbe()
    probe.install()
    try:
        traced = storm.round()
    finally:
        probe.uninstall()
    observed = storm.round(observability=True)
    assert plain.errors == [] and plain.failed == 0
    assert plain.digest == traced.digest == observed.digest
    assert plain.counters == traced.counters == observed.counters
    summary = layer_summary(probe.recorder.spans)
    assert summary["service.arbiter"]["calls"] >= plain.counters["rebalances"]
    assert summary["core.analysis"]["calls"] > 0


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
