"""Telescope in one screen: live ASCII dashboard over a multi-tenant storm.

An :class:`~repro.obs.Observability` facade is handed to the service at
construction; it wires a metrics registry, a sampling tracer and a JSONL
flight recorder onto the shared platform.  While four tenants hammer the
pool, the dashboard redraws — counters, latency percentiles p50/p95/p99,
the LP timeline and a span waterfall — and at the end the example
exports both scrape formats and answers the canonical postmortem
question: *show me everything request X did*, by trace id.

Run:  PYTHONPATH=src python examples/observability_dashboard.py
"""

import os
import sys
import time
from functools import partial

from repro import Observability, QoS, SkeletonService
from repro.obs import load_jsonl, trace_records
from repro.skeletons import Execute, Map, Merge, Seq, Split

CAPACITY = 6
WIDTH = 5
LEAF_SECONDS = 0.02
WAVES = 3
TENANTS = 4


def replicate(v, width):
    return [v] * width


def sleepy_echo(v, duration):
    time.sleep(duration)
    return v


def fan_out_program():
    return Map(
        Split(partial(replicate, width=WIDTH), name="split"),
        Seq(Execute(partial(sleepy_echo, duration=LEAF_SECONDS), name="leaf")),
        Merge(sum, name="merge"),
    )


def main() -> None:
    obs = Observability(sample_rate=1.0)
    with SkeletonService(
        backend="threads", capacity=CAPACITY, observability=obs
    ) as service:
        dashboard = obs.dashboard(title="telescope: multi-tenant storm")
        handles = []
        for wave in range(WAVES):
            for i in range(TENANTS):
                handles.append(
                    service.submit(
                        fan_out_program(),
                        wave * TENANTS + i,
                        qos=QoS.wall_clock(5.0),
                        tenant=f"tenant-{i}",
                    )
                )
            # One frame per wave: metrics and spans accumulate live.
            print(dashboard.render())
            time.sleep(0.05)

        results = [h.result(timeout=30.0) for h in handles]
        assert results == [v * WIDTH for v in range(WAVES * TENANTS)], results

        print(dashboard.render())

        # -- export surfaces ------------------------------------------------
        prom = obs.prometheus()
        print("prometheus scrape excerpt:")
        for line in prom.splitlines():
            if line.startswith("repro_service_lifecycle_total"):
                print(f"  {line}")

        # Example/bench output lands under bench-out/ (gitignored).
        out_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "bench-out",
        )
        os.makedirs(out_dir, exist_ok=True)
        flight_path = os.path.join(out_dir, "observability_flight.jsonl")
        n = obs.export_jsonl(flight_path)
        print(f"\nflight recorder: {n} records -> {flight_path}")

        # -- the trace query ------------------------------------------------
        # Pick the last execution's root span and pull back everything that
        # happened on its behalf — admission, dispatch, muscle runs,
        # completion — under one trace id.
        records = load_jsonl(flight_path)
        root = next(
            r
            for r in records
            if r["type"] == "span"
            and r.get("name") == "execution"
            and r.get("attrs", {}).get("execution_id") == handles[-1].execution_id
        )
        trace = trace_records(records, root["trace_id"])
        events = [r for r in trace if r["type"] == "event"]
        spans = [r for r in trace if r["type"] == "span"]
        print(
            f"trace {root['trace_id']} (execution {handles[-1].execution_id}): "
            f"{len(events)} events, {len(spans)} spans"
        )
        for rec in spans:
            dur = (rec["end"] - rec["start"]) * 1000.0
            print(f"  span {rec['name']:<12} {dur:8.2f}ms status={rec['status']}")
        assert events, "the trace lost its events"

    print("\ndone: one facade, three export surfaces, one queryable trace")
    return 0


if __name__ == "__main__":
    sys.exit(main())
