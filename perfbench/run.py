#!/usr/bin/env python3
"""Benchmark of the autonomic MAPE loop: one workload, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload storm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs traced rounds interleaved with untraced ones and
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Every line but the last is a readable report; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Spans of the last traced round are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform as host_platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Rounds below this make medians meaningless; runs extend to reach it.
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_repro() -> bool:
    """Put this checkout's ``src`` first on the path; False if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    return Path(repro.__file__).resolve().is_relative_to(src.resolve())


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": host_platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_repro():
        print("perfbench: cannot import repro from this checkout's src/",
              file=sys.stderr)
        return 2
    from perfbench import measure, workloads
    from perfbench.hostspeed import HostSpeed

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    facts = host_facts()
    workload = workloads.make(args.workload, args.seed, facts["nproc"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"capacity {workload.capacity} host {json.dumps(facts)}")
    try:
        setup_speed = HostSpeed()
        setup_times = []
        for _ in range(workload.setups):
            setup_speed.sample()
            setup_times.append(workload.setup())
        run = measure.Run(workload, args.seconds, MIN_ROUNDS, HostSpeed())
        run.warm_up()
        if args.trace:
            run.traced(OUT_DIR / f"spans-{args.workload}.jsonl")
            wanted = spec["per_layer"]
            metrics = run.layer_metrics()
        else:
            run.plain()
            wanted = spec["end_to_end"]
            metrics = run.end_to_end(setup_times, setup_speed)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        run.report_decisions()
    finally:
        workload.close()
    for line in run.lines:
        print(line)
    out = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            print(f"perfbench: metric {name} was not measured", file=sys.stderr)
            return 1
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for problem in run.problems[:20]:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
