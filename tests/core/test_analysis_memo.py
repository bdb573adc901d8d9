"""The analyzer's report memo and the report's minimal-LP memo.

``ExecutionAnalyzer.analyze`` hands back its previous report object
when ``(machines.rev, estimators.version, now, current_lp, root
indices)`` is unchanged, and ``AnalysisReport.minimal_lp`` memoizes on
``(cap, start_lp, adg.rev)``.  These tests pin both keys — a repeat is
free, every key component yields a fresh report — and check that the
memo changes no service decision.
"""

import pytest

from repro import QoS, SimulatedPlatform, SkeletonService
from repro.core.adg import ADG
from repro.core.analysis import AnalysisReport, ExecutionAnalyzer, is_analysis_point
from repro.core.persistence import snapshot_from_names
from repro.core.planning import PlanCache
from repro.core.schedule import minimal_lp_greedy
from repro.durability.replay import normalize_rebalance
from repro.events.recorder import EventRecorder
from repro.runtime.costmodel import ConstantCostModel
from repro.runtime.interpreter import submit
from repro.service import service as service_module
from repro.service.arbiter import Rebalance
from repro.skeletons import Execute, Map, Merge, Seq, Split
from tests.conftest import build_program


def timed_map(width=4):
    return Map(
        Split(lambda v, w=width: [v] * w, name="fs"),
        Seq(Execute(lambda v: v + 1, name="fe")),
        Merge(sum, name="fm"),
    )


def warm_analyzer(program, cache=None, goal=100.0):
    analyzer = ExecutionAnalyzer(
        qos=QoS.wall_clock(goal), skeleton=program, plan_cache=cache
    )
    analyzer.initialize_estimates(
        program,
        snapshot_from_names(
            program, times={"fs": 1.0, "fe": 1.0, "fm": 1.0}, cards={"fs": 4}
        ),
    )
    return analyzer


def recorded_events(program):
    """The event stream of one simulated run of *program* (LP 2)."""
    platform = SimulatedPlatform(
        parallelism=2, cost_model=ConstantCostModel(1.0), max_parallelism=8
    )
    recorder = EventRecorder()
    platform.add_listener(recorder)
    submit(program, 1, platform).get()
    return list(recorder.events)


def lookups(cache):
    stats = cache.stats
    return stats.hits + stats.misses


@pytest.fixture
def mid_run():
    """A warm analyzer fed up to the split's completion (an analysis
    point), plus the rest of the recorded stream."""
    program = timed_map()
    events = recorded_events(program)
    cache = PlanCache()
    analyzer = warm_analyzer(program, cache)
    split_done = next(
        i for i, e in enumerate(events) if is_analysis_point(e)
    )
    for event in events[: split_done + 1]:
        analyzer.observe(event)
    now = events[split_done].timestamp
    return program, analyzer, cache, now, events[split_done + 1 :]


class TestRepeatIsFree:
    def test_live_repeat_returns_same_report_without_cache_lookups(self, mid_run):
        _program, analyzer, cache, now, _rest = mid_run
        first = analyzer.analyze(now, current_lp=2)
        assert first is not None
        assert first.minimal_lp(cap=8) is not None
        before = lookups(cache)
        passes = cache.stats.schedule_passes
        again = analyzer.analyze(now, current_lp=2)
        assert again is first
        assert again.minimal_lp(cap=8) == first.minimal_lp(cap=8)
        assert lookups(cache) == before
        assert cache.stats.schedule_passes == passes

    def test_structural_repeat_returns_same_report_without_cache_lookups(self):
        cache = PlanCache()
        analyzer = warm_analyzer(timed_map(), cache)
        first = analyzer.analyze(3.0)
        assert first is not None
        before = lookups(cache)
        assert analyzer.analyze(3.0) is first
        assert lookups(cache) == before

    def test_cold_repeat_stays_cold(self):
        analyzer = ExecutionAnalyzer(skeleton=timed_map())
        assert analyzer.analyze(0.0) is None
        assert analyzer.analyze(0.0) is None


class TestEachKeyComponentYieldsAFreshReport:
    def test_new_event(self, mid_run):
        _program, analyzer, _cache, now, rest = mid_run
        first = analyzer.analyze(now)
        analyzer.observe(rest[0])
        fresh = analyzer.analyze(now)
        assert fresh is not first
        assert analyzer.analyze(now) is fresh

    def test_estimate_change(self, mid_run):
        program, analyzer, _cache, now, _rest = mid_run
        first = analyzer.analyze(now)
        leaf = next(m for m in program.muscles() if m.name == "fe")
        analyzer.estimators.initialize_time(leaf, 5.0)
        fresh = analyzer.analyze(now)
        assert fresh is not first
        # The four pending leaves now cost 5 s each.
        assert fresh.wct_best_effort == pytest.approx(first.wct_best_effort + 4.0)

    def test_new_now(self, mid_run):
        _program, analyzer, _cache, now, _rest = mid_run
        first = analyzer.analyze(now)
        later = analyzer.analyze(now + 0.5)
        assert later is not first
        assert later.time == now + 0.5

    def test_different_current_lp(self, mid_run):
        _program, analyzer, _cache, now, _rest = mid_run
        at_two = analyzer.analyze(now, current_lp=2)
        at_four = analyzer.analyze(now, current_lp=4)
        assert at_four is not at_two
        assert at_four.current_lp == 4
        assert at_four.wct_current_lp < at_two.wct_current_lp

    def test_different_root_set(self, mid_run):
        _program, analyzer, _cache, now, _rest = mid_run
        implicit = analyzer.analyze(now)
        roots = analyzer.unfinished_roots()
        explicit = analyzer.analyze(now, roots=roots)
        assert explicit is not implicit
        assert analyzer.analyze(now, roots=roots) is explicit
        assert analyzer.analyze(now, roots=[]) is None


class TestHeldOverMinimalLP:
    def two_leaf_adg(self):
        adg = ADG()
        adg.add("a", 1.0)
        adg.add("b", 1.0)
        return adg

    @pytest.mark.parametrize("with_engine", [False, True])
    def test_minimal_lp_tracks_adg_revision(self, with_engine):
        adg = self.two_leaf_adg()
        engine = warm_analyzer(timed_map()).plan if with_engine else None
        report = AnalysisReport(
            time=0.0,
            execution_id=None,
            deadline=1.0,
            current_lp=None,
            wct_best_effort=1.0,
            wct_current_lp=None,
            optimal_lp=2,
            plan=adg,
            engine=engine,
        )
        assert report.minimal_lp(cap=8) == 2
        adg.add("c", 1.0)  # patched underneath the held-over report
        assert report.minimal_lp(cap=8) == 3
        assert report.minimal_lp(cap=2) is None

    def test_live_report_answers_from_patched_actuals(self, mid_run):
        _program, analyzer, _cache, now, rest = mid_run
        held = analyzer.analyze(now)
        held.minimal_lp(cap=8)
        rev = held.plan.rev
        for event in rest:
            analyzer.observe(event)
            newer = analyzer.analyze(event.timestamp)
            if newer is None:
                continue
            if newer.plan is held.plan and held.plan.rev != rev:
                break  # held's plan table was patched in place under it
            held = newer
            held.minimal_lp(cap=8)
            rev = held.plan.rev
        else:
            pytest.fail("no span-only window patched the held-over plan")
        expected = minimal_lp_greedy(held.adg, held.time, held.deadline, max_lp=8)
        assert held.minimal_lp(cap=8) == (expected[0] if expected else None)
        assert (8, 1, held.plan.rev) in held._minimal_lps


class _Unmemoized(ExecutionAnalyzer):
    """Analyzes from scratch on every call (the memo cleared first)."""

    def analyze(self, now, current_lp=None, roots=None):
        self._last = None
        return super().analyze(now, current_lp, roots)


def renumbered(outcome, ordinal):
    """*outcome* with execution ids replaced by submit order, so two
    runs of one storm compare equal."""

    def ids(mapping):
        return {ordinal[eid]: v for eid, v in mapping.items()}

    kind, sep, eid = outcome.trigger.partition(":")
    trigger = outcome.trigger
    if sep and eid.isdigit():  # "admit:<id>" / "done:<id>"
        trigger = f"{kind}:#{ordinal[int(eid)]}"
    return Rebalance(
        time=outcome.time,
        trigger=trigger,
        shares=ids(outcome.shares),
        total_lp=outcome.total_lp,
        cold=tuple(ordinal[e] for e in outcome.cold),
        infeasible=tuple(ordinal[e] for e in outcome.infeasible),
        committed=ids(outcome.committed),
        weights=ids(outcome.weights),
        priorities=ids(outcome.priorities),
    )


def storm(analyzer_cls, monkeypatch):
    """A small deterministic multi-tenant churn storm on the simulator."""
    monkeypatch.setattr(service_module, "ExecutionAnalyzer", analyzer_cls)
    computed = [0]
    analyze_fresh = analyzer_cls._analyze

    def counting(self, *args):
        computed[0] += 1
        return analyze_fresh(self, *args)

    monkeypatch.setattr(analyzer_cls, "_analyze", counting)
    platform = SimulatedPlatform(
        parallelism=1, cost_model=ConstantCostModel(1.0), max_parallelism=6
    )
    service = SkeletonService(platform=platform, min_rebalance_interval=0.0)
    handles = []
    for wave in range(3):
        for i in range(8):
            width = 2 + i % 4
            program = build_program(("map", width, ("seq", i % 4)))
            snapshot = snapshot_from_names(
                program,
                times={f"split{width}": 1.0, f"leaf{i % 4}": 1.0, "sum": 1.0},
                cards={f"split{width}": float(width)},
            )
            qos = None if i % 5 == 0 else QoS.wall_clock([6.0, 12.0, 30.0][i % 3])
            handles.append(
                service.submit(
                    program, wave * 8 + i, qos=qos, tenant=f"t{i}",
                    warm_start=snapshot,
                )
            )
    results = [h.result(timeout=60.0) for h in handles]
    ordinal = {h.execution_id: k for k, h in enumerate(handles)}
    log = [
        normalize_rebalance(renumbered(r, ordinal))
        for r in service.arbiter.rebalances
    ]
    stats = service.plan_stats()
    service.shutdown(wait=False)
    monkeypatch.undo()
    return results, log, stats, computed[0]


def test_memo_changes_no_service_decision(monkeypatch):
    memo_results, memo_log, memo_stats, memo_computed = storm(
        ExecutionAnalyzer, monkeypatch
    )
    bare_results, bare_log, bare_stats, bare_computed = storm(
        _Unmemoized, monkeypatch
    )
    assert memo_log and memo_log == bare_log
    assert memo_results == bare_results
    for key in ("schedule_passes", "projection_passes", "table_compiles"):
        assert memo_stats[key] == bare_stats[key], key
    # Not vacuous: the memo skipped recomputations the bare run paid.
    assert memo_computed < bare_computed
