"""Service-layer observability: stats mirroring, atomic snapshots, spans."""

import threading

from repro import (
    ConstantCostModel,
    Execute,
    Map,
    Merge,
    QoS,
    Seq,
    SimulatedPlatform,
    SkeletonService,
    Split,
)
from repro.obs import Observability
from repro.service.stats import ServiceStats


def program(width=3):
    return Map(
        Split(lambda v, w=width: [v] * w, name="split"),
        Seq(Execute(lambda v: v, name="leaf")),
        Merge(sum, name="merge"),
    )


def obs_service(**kwargs):
    platform = SimulatedPlatform(
        parallelism=1, cost_model=ConstantCostModel(1.0), max_parallelism=4
    )
    obs = Observability(sample_rate=1.0)
    return SkeletonService(platform=platform, observability=obs, **kwargs), obs


class TestStatsAtomicSnapshot:
    def test_as_dict_is_internally_consistent_under_hammering(self):
        """Aggregates always agree with the tenant rows they sum over."""
        stats = ServiceStats()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                stats.record_submitted("t")
                stats.record_admitted("t", float(i))
                stats.record_finished("t", "completed", float(i + 1), goal_met=True)
                i += 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                snap = stats.as_dict()
                row_total = sum(
                    row["completed"] for row in snap["tenants"].values()
                )
                assert snap["completed"] == row_total
                if snap["goal_miss_rate"] is not None:
                    assert snap["goal_miss_rate"] == 0.0
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_registry_mirror_matches_counters(self):
        from repro.obs import MetricsRegistry

        stats = ServiceStats()
        reg = MetricsRegistry()
        stats.bind_registry(reg)
        stats.record_submitted("acme")
        stats.record_admitted("acme", 0.0)
        stats.record_finished("acme", "completed", 1.0, goal_met=False)
        lifecycle = reg.get("repro_service_lifecycle_total")
        assert lifecycle.value(tenant="acme", event="submitted") == 1
        assert lifecycle.value(tenant="acme", event="completed") == 1
        assert lifecycle.value(tenant="acme", event="goal_missed") == 1
        agg = reg.get("repro_service_aggregate")
        assert agg.value(stat="completed") == 1.0
        assert agg.value(stat="goal_miss_rate") == 1.0


class TestServiceInstrumentation:
    def test_execution_spans_and_duration_histogram(self):
        service, obs = obs_service()
        handle = service.submit(program(), 2, qos=QoS.wall_clock(100.0))
        assert handle.result() == 6
        service.shutdown()
        spans = obs.tracer.finished()
        roots = [s for s in spans if s.name == "execution"]
        assert len(roots) == 1
        assert roots[0].status == "ok"
        assert roots[0].attrs["tenant"] == "default"
        assert [s for s in spans if s.name == "rebalance"]
        hist = obs.metrics.get("repro_execution_duration_seconds")
        assert hist.count(outcome="completed", tenant="default") == 1

    def test_rebalance_spans_share_one_service_trace(self):
        service, obs = obs_service()
        for i in range(3):
            service.submit(program(), i, qos=QoS.wall_clock(100.0)).result()
        service.shutdown()
        rebalances = [s for s in obs.tracer.finished() if s.name == "rebalance"]
        assert len(rebalances) >= 3
        assert len({s.trace_id for s in rebalances}) == 1

    def test_rebalance_duration_is_host_time_on_the_simulator(self):
        # Virtual time stands still while the arbiter computes, so a
        # platform-clock timer would read 0 for every rebalance.
        service, obs = obs_service()
        for i in range(3):
            service.submit(program(), i, qos=QoS.wall_clock(100.0)).result()
        service.shutdown()
        hist = obs.metrics.get("repro_rebalance_duration_seconds")
        assert hist.count() >= 3
        assert hist.sum() > 0.0
        assert hist.buckets[0] == 0.00001

    def test_rejected_submission_closes_span(self):
        from repro.service import TenantQuota

        service, obs = obs_service(
            quotas={"acme": TenantQuota(max_active=1, max_pending=1)}
        )
        first = service.submit(program(), 1, tenant="acme")
        second = service.submit(program(), 2, tenant="acme")
        rejected = service.submit(program(), 3, tenant="acme")
        assert rejected.status().name == "REJECTED"
        first.result()
        second.result()
        service.shutdown()
        roots = {
            s.attrs["execution_id"]: s
            for s in obs.tracer.finished()
            if s.name == "execution"
        }
        assert len(roots) == 3
        assert roots[rejected.execution_id].status == "rejected"
        assert roots[first.execution_id].status == "ok"

    def test_plan_cache_gauge_is_a_live_view(self):
        service, obs = obs_service()
        service.submit(program(), 1, qos=QoS.wall_clock(100.0)).result()
        service.shutdown()
        gauge = obs.metrics.get("repro_plan_cache")
        stats = service.plan_cache.stats_dict()
        for key, value in stats.items():
            assert gauge.value(stat=key) == float(value)

    def test_stats_as_dict_unchanged_without_observability(self):
        platform = SimulatedPlatform(
            parallelism=1, cost_model=ConstantCostModel(1.0), max_parallelism=4
        )
        service = SkeletonService(platform=platform)
        service.submit(program(), 2, qos=QoS.wall_clock(100.0)).result()
        service.shutdown()
        snap = service.stats.as_dict()
        assert snap["completed"] == 1
        assert snap["tenants"]["default"]["completed"] == 1
        assert snap["throughput"] is None or snap["throughput"] > 0
