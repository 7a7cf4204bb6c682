"""What the benchmark measures: workloads, metrics, bounds.

This module is the single source of ``BENCHMARK.json``: regenerate it
from the repository root with ``python3 perfbench/spec.py > BENCHMARK.json``.
``run.py`` checks every run against the same lists, so a metric can
never be defined here and silently missing from a run.

Each per-layer metric names the end-to-end metric it should move and
the workload it should move it on (``moves``/``on``). Those two fields
are the prediction a later change states before it claims a gain;
``BENCHMARK.json`` carries only the keys the benchmark contract allows,
so they live here, and a traced run prints them beside each value.
"""

from __future__ import annotations

import json

RUN_SECONDS = 15

#: (name, why) — names are cited by later changes; keep them stable
WORKLOADS = (
    (
        "fresh-bindings",
        "never-repeated bindings of prepared TLC templates: rebind, bounded "
        "executor, access-index fetches and tail operators do the work",
    ),
    (
        "hot-dashboard",
        "Zipf-skewed SQL-text drill-down windows that fit the result cache: "
        "parse cache, result cache and subsumption do the work",
    ),
    (
        "read-write",
        "closed-loop reads beside an open-loop single-row insert/delete "
        "writer on mmap storage: maintenance, WAL, invalidation, shard locks",
    ),
    (
        "replicated",
        "fresh-bindings reads plus a tenth of the read-write writer's rate "
        "on two socket replicas: wire, placement and delta shipping",
    ),
)

#: (name, unit, better, bound) — bound is the share of the parent's
#: median a metric may worsen by before a change is rejected. The read
#: p99 is not among them: over ten runs on a shared 2-vCPU VM its spread
#: (interquartile range over median) reached 0.37 on read-write and 0.84
#: on replicated, beyond the widest bound allowed (0.25). Every run
#: prints it and the traced run reports it as ``bench.read_p99_us``.
END_TO_END = (
    ("read_p50_us", "us", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better, moves, on) — from the traced run
PER_LAYER = (
    ("sql.frontend_us", "us", "lower", "read_p50_us", "hot-dashboard"),
    ("serving.self_us", "us", "lower", "read_p50_us throughput_ops_s", "hot-dashboard"),
    ("serving.parse_hit_rate", "share", "higher", "read_p50_us throughput_ops_s", "hot-dashboard"),
    ("serving.decision_hit_rate", "share", "higher", "read_p50_us throughput_ops_s", "hot-dashboard"),
    ("serving.result_hit_rate", "share", "higher", "read_p50_us throughput_ops_s", "hot-dashboard"),
    ("serving.lock_wait_us", "us", "lower", "bench.read_p99_us", "read-write"),
    ("serving.invalidations_per_write", "count", "lower", "bench.read_p99_us", "read-write"),
    ("bounded.checker_us", "us", "lower", "bench.read_p99_us", "hot-dashboard"),
    ("bounded.checker_runs_per_req", "count", "lower", "bench.read_p99_us", "hot-dashboard"),
    ("bounded.rebind_us", "us", "lower", "read_p50_us", "fresh-bindings"),
    ("bounded.rebind_share", "share", "higher", "read_p50_us", "fresh-bindings"),
    ("bounded.subsume_us", "us", "lower", "read_p50_us", "hot-dashboard"),
    ("bounded.subsumed_share", "share", "higher", "read_p50_us", "hot-dashboard"),
    ("bounded.execute_us", "us", "lower", "read_p50_us throughput_ops_s", "fresh-bindings"),
    ("bounded.fetched_per_read", "count", "lower", "read_p50_us throughput_ops_s", "fresh-bindings"),
    ("bounded.fetch_bound_ratio", "share", "lower", "read_p50_us throughput_ops_s", "fresh-bindings"),
    ("access.fetch_us", "us", "lower", "read_p50_us", "fresh-bindings"),
    ("access.fetch_calls_per_read", "count", "lower", "read_p50_us", "fresh-bindings"),
    ("engine.tail_us", "us", "lower", "read_p50_us", "fresh-bindings"),
    ("maintenance.insert_us", "us", "lower", "bench.write_p50_us bench.write_p99_us", "read-write"),
    ("maintenance.delete_us", "us", "lower", "bench.write_p50_us bench.write_p99_us", "read-write"),
    ("storage.table_delete_us", "us", "lower", "bench.write_p99_us bench.read_p99_us", "read-write"),
    ("storage.wal_append_us", "us", "lower", "bench.write_p99_us bench.read_p99_us", "read-write"),
    ("storage.wal_bytes_per_write", "B", "lower", "bench.write_p99_us", "read-write"),
    ("distributed.wire_us", "us", "lower", "read_p50_us bench.write_p50_us", "replicated"),
    ("distributed.replica_share", "share", "higher", "read_p50_us", "replicated"),
    ("distributed.routing_miss_rate", "share", "lower", "read_p50_us", "replicated"),
    ("distributed.ship_bytes_per_write", "B", "lower", "bench.write_p50_us", "replicated"),
    ("distributed.stale_reships", "count", "lower", "read_p50_us", "replicated"),
    ("distributed.failovers", "count", "lower", "read_p50_us", "replicated"),
    ("trace.unattributed_share", "share", "lower", "validity", "all"),
    ("trace.overhead", "share", "lower", "validity", "all"),
    ("bench.writer_lateness_ms", "ms", "lower", "validity", "read-write replicated"),
    ("bench.read_p99_us", "us", "lower", "tail latency", "all"),
    ("bench.write_p50_us", "us", "lower", "write latency", "read-write replicated"),
    ("bench.write_p99_us", "us", "lower", "write latency", "read-write replicated"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
