"""The BEAS benchmark: four TLC workloads driven through ``Session``.

Run from the repository root::

    python3 perfbench/run.py --workload fresh-bindings --seed 1 --seconds 15 --trace 0

One run generates the TLC instance (always the same one) and a request
stream from ``--seed``. It builds a ``Session`` several times
(``setup_s`` is the median), drives the stream through the public
``Session`` API, checks a seeded sample of answers against the
conventional engine, prints every metric by name with its unit, and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the first quarter of the stream twice on fresh
sessions, untraced and then with span shims around every layer's entry points
(``spans.py``), and reports the per-layer metrics; the latency gap
between the two is ``trace.overhead``. The spans are written to
``.perfbench-out/`` when the run ends.

Ambient ``BEAS_*`` variables are cleared before ``repro`` is imported:
each would silently change what is measured. Each workload sets only
the options it exists for (``result_reuse``, ``storage``, ``replicas``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

for _key in [key for key in os.environ if key.startswith("BEAS_")]:
    del os.environ[_key]

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no repro sources at {_SRC}; run from a repository checkout")
sys.path.insert(0, str(_SRC))

import multiprocessing  # noqa: E402

from repro.beas.session import ExecutionOptions, Session  # noqa: E402
from repro.workloads.tlc.access_schema import tlc_access_schema  # noqa: E402
from repro.workloads.tlc.generator import generate_tlc  # noqa: E402
from repro.workloads.tlc.queries import query_by_name  # noqa: E402

import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from oracle import WRITTEN_TABLE, Oracle, Sample  # noqa: E402

#: reads per phase the oracle checks
SAMPLES = 120
#: consecutive-read blocks the end-to-end figures take the median over
BLOCKS = 10
#: share of the stream a traced run replays (in each of its two phases)
TRACE_SHARE = 0.25
WORK_DIR = ROOT / ".perfbench-work"  # mmap stores, removed after use
OUT_DIR = ROOT / ".perfbench-out"  # span dumps


@dataclass
class Phase:
    """What one pass over the request stream observed."""

    read_seconds: list[float] = field(default_factory=list)
    read_ends: list[float] = field(default_factory=list)  # perf_counter
    write_seconds: list[float] = field(default_factory=list)
    write_ends: list[float] = field(default_factory=list)
    inserts: int = 0
    deletes: int = 0
    lateness: list[float] = field(default_factory=list)
    wall: float = 0.0
    errors: list[str] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    log: list[tuple[int, str, tuple]] = field(default_factory=list)
    base_version: int = 0
    reads_attempted: int = 0
    writes_attempted: int = 0
    lock_wait: float = 0.0
    fetched: int = 0
    executed: int = 0
    fetch_bound_ratio: float = 0.0  # summed over executed reads
    wire: float = 0.0
    replica_reads: int = 0
    before: object = None
    after: object = None
    oracle: Oracle = None


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
def open_session(workload, dataset):
    """A Session with the workload's options, answered once per template.
    Returns (session, prepared queries, mmap directory or None)."""
    options = dict(workload.session_options)
    store = None
    if options.get("storage") == "mmap":
        WORK_DIR.mkdir(exist_ok=True)
        store = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
        options["storage_dir"] = store
    session = Session(
        dataset.database, tlc_access_schema(), options=ExecutionOptions(**options)
    )
    queries = {
        name: session.query(query_by_name(dataset.params, name).sql, name)
        for name in workload.templates
    }
    for query in queries.values():
        query.run()
    for sql in workload.setup_sql:
        session.run(sql)
    return session, queries, store


def close_session(session, store) -> None:
    session.close()
    if store is not None:
        shutil.rmtree(store, ignore_errors=True)


# --------------------------------------------------------------------------- #
# the timed phase
# --------------------------------------------------------------------------- #
def run_phase(session, queries, workload, dataset, tracer=None) -> Phase:
    """Drive every read (closed loop, this thread) beside the open-loop
    writer (one thread) and record what each observed."""
    phase = Phase()
    call = session.database.table(WRITTEN_TABLE)
    phase.oracle = Oracle(session.database)
    phase.base_version = call.version
    request = tracer.request if tracer is not None else nullcontext
    rows = workload.write_rows
    outstanding: deque = deque()

    def write(op: str, row: tuple, context=request) -> None:
        apply = session.insert if op == "insert" else session.delete
        with context():
            batch = apply(WRITTEN_TABLE, [row])
        phase.log.append((batch.table_version, op, row))

    def send(read):
        if read.sql is not None:
            return session.run(read.sql)
        return queries[read.template].bind(read.binding()).run()

    for read in workload.warmup:
        send(read)
    for row in rows[: workloads.WRITE_BACKLOG]:
        write("insert", row, nullcontext)
        outstanding.append(row)
    phase.before = session.stats()

    stop = threading.Event()
    start = time.perf_counter()

    def writer() -> None:
        rate = workload.writes_per_second
        inserted = workloads.WRITE_BACKLOG
        for k in range(len(rows) * 2):
            due = start + k / rate
            if stop.wait(max(0.0, due - time.perf_counter())):
                return
            phase.lateness.append(time.perf_counter() - due)
            if k % 2 == 0:
                if inserted == len(rows):
                    return  # pre-generated rows used up
                op, row = "insert", rows[inserted]
                inserted += 1
            elif outstanding:
                op, row = "delete", outstanding.popleft()
            else:
                continue  # every earlier insert failed: nothing to delete
            phase.writes_attempted += 1
            try:
                write(op, row)
            except Exception as error:  # counted, and the run goes on
                phase.errors.append(f"{op} failed: {error!r}")
                continue
            done = time.perf_counter()
            phase.write_seconds.append(done - due)
            phase.write_ends.append(done)
            if op == "insert":
                phase.inserts += 1
                outstanding.append(row)
            else:
                phase.deletes += 1

    thread = None
    if workload.writes_per_second:
        thread = threading.Thread(target=writer, name="perfbench-writer")
        thread.start()
    try:
        for index, read in enumerate(workload.reads):
            phase.reads_attempted += 1
            began = time.perf_counter()
            try:
                with request():
                    result = send(read)
            except Exception as error:  # counted, and the run goes on
                phase.errors.append(f"read failed: {error!r}")
                continue
            done = time.perf_counter()
            phase.read_seconds.append(done - began)
            phase.read_ends.append(done)
            metrics = result.metrics
            phase.lock_wait += metrics.lock_wait_seconds
            phase.fetched += metrics.tuples_fetched
            phase.wire += metrics.wire_seconds
            if metrics.replica_id >= 0:
                phase.replica_reads += 1
            bound = result.decision.access_bound
            if bound and not metrics.served_from_cache:
                phase.executed += 1
                phase.fetch_bound_ratio += metrics.tuples_fetched / bound
            if index in workload.sample:
                phase.samples.append(
                    Sample(
                        sql=read.oracle_sql(dataset.params),
                        rows=tuple(result.rows),
                        bag_exact=result.decision.bag_exact,
                        call_version=metrics.table_versions.get(WRITTEN_TABLE, -1),
                    )
                )
    finally:
        phase.wall = time.perf_counter() - start
        stop.set()
        if thread is not None:
            thread.join()
    phase.after = session.stats()
    # back to the level the phase started from, so the next phase (and
    # the oracle's copy) starts from the same rows
    while outstanding:
        write("delete", outstanding.popleft(), nullcontext)
    return phase


def check(phase: Phase) -> list[str]:
    return phase.errors + phase.oracle.check(phase.samples, phase.log, phase.base_version)


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest ended child's (replicas)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def blocks(phase: Phase) -> list[tuple[list[float], float]]:
    """The reads cut into BLOCKS runs of consecutive reads, each with its
    throughput: operations (reads and writes) completed per second while
    the block ran. The host's speed drifts over seconds, so each
    end-to-end figure is the median of its per-block values: a slow
    spell moves a few blocks, not the median."""
    reads, ends = phase.read_seconds, phase.read_ends
    count = max(1, min(BLOCKS, len(reads)))
    size = len(reads) // count
    out = []
    for b in range(count):
        first, last = b * size, (b + 1) * size - 1
        start, end = ends[first] - reads[first], ends[last]
        writes = sum(1 for done in phase.write_ends if start <= done < end)
        out.append((reads[first : last + 1], (size + writes) / (end - start)))
    return out


def read_p50_p99(parts) -> tuple[float, float, str]:
    """Read latency median and p99 in microseconds, each the median of
    its per-block values."""
    return (
        statistics.median(statistics.median(lat) for lat, _ in parts) * 1e6,
        statistics.median(percentile(lat, 0.99) for lat, _ in parts) * 1e6,
        f"median of {len(parts)} blocks of {len(parts[0][0])} reads",
    )


def end_to_end(phase: Phase, setup_seconds: list[float]) -> dict[str, tuple[float, str]]:
    parts = blocks(phase)
    p50, _, per_block = read_p50_p99(parts)
    return {
        "read_p50_us": (p50, per_block),
        "throughput_ops_s": (
            statistics.median(rate for _, rate in parts),
            f"{per_block}; {len(phase.read_seconds)} reads + "
            f"{len(phase.write_seconds)} writes in {phase.wall:.2f} s",
        ),
        "setup_s": (statistics.median(setup_seconds), f"median of {len(setup_seconds)}"),
        "peak_rss_mb": (peak_rss_mb(), "process + largest child"),
    }


def _delta(before, after, attribute: str) -> int:
    return getattr(after, attribute) - getattr(before, attribute)


def _rate(before, after) -> float:
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0


def per_layer(plain: Phase, traced: Phase, tracer) -> dict[str, tuple[float, str]]:
    totals = spans.layer_totals(tracer.spans)
    reads = max(1, len(traced.read_seconds))
    writes = len(traced.write_seconds)

    def us(name: str, per: int) -> float:
        return totals.get(name, (0, 0))[0] / 1000.0 / per if per else 0.0

    def calls(name: str) -> int:
        return totals.get(name, (0, 0))[1]

    before, after = traced.before, traced.after
    fleet_before, fleet_after = before.fleet, after.fleet
    storage_before, storage_after = before.storage, after.storage

    def fleet(attribute: str) -> int:
        if fleet_after is None:
            return 0
        return getattr(fleet_after, attribute) - (
            getattr(fleet_before, attribute) if fleet_before is not None else 0
        )

    wal_bytes = (
        storage_after.wal_bytes_appended - storage_before.wal_bytes_appended
        if storage_after is not None and storage_before is not None
        else 0
    )
    per_read = f"per read, n={reads}"
    per_write = f"per write, n={writes}"
    plain_p50 = statistics.median(plain.read_seconds)
    traced_p50 = statistics.median(traced.read_seconds)
    writes_plain = plain.write_seconds
    return {
        "sql.frontend_us": (us("sql.frontend", reads), per_read),
        "serving.self_us": (us("serving", reads), per_read),
        "serving.parse_hit_rate": (_rate(before.parse, after.parse), "share of lookups"),
        "serving.decision_hit_rate": (_rate(before.decision, after.decision), "share of lookups"),
        "serving.result_hit_rate": (_rate(before.result, after.result), "share of lookups"),
        "serving.lock_wait_us": (traced.lock_wait * 1e6 / reads, per_read),
        "serving.invalidations_per_write": (
            (after.result.invalidations - before.result.invalidations) / writes if writes else 0.0,
            per_write,
        ),
        "bounded.checker_us": (us("bounded.checker", reads), per_read),
        "bounded.checker_runs_per_req": (_delta(before, after, "checker_runs") / reads, per_read),
        "bounded.rebind_us": (us("bounded.rebind", reads), per_read),
        "bounded.rebind_share": (_delta(before, after, "rebinds") / reads, "share of reads"),
        "bounded.subsume_us": (us("bounded.subsume", reads), per_read),
        "bounded.subsumed_share": (_delta(before, after, "subsumed_hits") / reads, "share of reads"),
        "bounded.execute_us": (us("bounded.execute", reads), per_read),
        "bounded.fetched_per_read": (traced.fetched / reads, per_read),
        "bounded.fetch_bound_ratio": (
            traced.fetch_bound_ratio / traced.executed if traced.executed else 0.0,
            f"mean of tuples fetched / deduced access bound, n={traced.executed} executed reads",
        ),
        "access.fetch_us": (us("access.fetch", reads), per_read),
        "access.fetch_calls_per_read": (calls("access.fetch") / reads, per_read),
        "engine.tail_us": (us("engine.tail", reads), per_read),
        "maintenance.insert_us": (us("maintenance.insert", traced.inserts), f"per insert, n={traced.inserts}"),
        "maintenance.delete_us": (us("maintenance.delete", traced.deletes), f"per delete, n={traced.deletes}"),
        "storage.table_delete_us": (us("storage.table_delete", traced.deletes), f"per delete, n={traced.deletes}"),
        "storage.wal_append_us": (us("storage.wal_append", writes), per_write),
        "storage.wal_bytes_per_write": (wal_bytes / writes if writes else 0.0, per_write),
        "distributed.wire_us": (traced.wire * 1e6 / reads, per_read),
        "distributed.replica_share": (traced.replica_reads / reads, "share of reads"),
        "distributed.routing_miss_rate": (fleet("routing_misses") / reads, "share of reads"),
        "distributed.ship_bytes_per_write": (fleet("bytes_shipped") / writes if writes else 0.0, per_write),
        "distributed.stale_reships": (fleet("stale_reships"), "in the traced phase"),
        "distributed.failovers": (fleet("failovers"), "in the traced phase"),
        "trace.unattributed_share": (spans.unattributed_share(tracer.spans), "of request time"),
        "trace.overhead": (traced_p50 / plain_p50 - 1.0, "traced / untraced read_p50 - 1"),
        "bench.writer_lateness_ms": (
            max(plain.lateness, default=0.0) * 1e3,
            "worst, untraced phase",
        ),
        "bench.read_p99_us": (
            percentile(plain.read_seconds, 0.99) * 1e6,
            f"untraced, n={len(plain.read_seconds)}",
        ),
        "bench.write_p50_us": (
            statistics.median(writes_plain) * 1e6 if writes_plain else 0.0,
            f"untraced, from due time, n={len(writes_plain)}",
        ),
        "bench.write_p99_us": (
            percentile(writes_plain, 0.99) * 1e6 if writes_plain else 0.0,
            f"untraced, from due time, n={len(writes_plain)}",
        ),
    }


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    names = [name for name, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dataset = generate_tlc(workloads.SCALE, seed=workloads.DATA_SEED)
    workload = workloads.build(args.workload, dataset, args.seed, args.seconds, SAMPLES)
    if args.trace:
        workload = workloads.head(workload, TRACE_SHARE)

    phases: list[Phase] = []
    if not args.trace:
        setup_seconds = []
        session = store = None
        for _ in range(workloads.SETUPS):
            if session is not None:
                close_session(session, store)
            began = time.perf_counter()
            session, queries, store = open_session(workload, dataset)
            setup_seconds.append(time.perf_counter() - began)
        options = session.options.describe()
        try:
            phases.append(run_phase(session, queries, workload, dataset))
        finally:
            close_session(session, store)
        report = end_to_end(phases[0], setup_seconds)
        units = {name: (unit, "") for name, unit, *_ in spec.END_TO_END}
        _, p99, per_block = read_p50_p99(blocks(phases[0]))
        extra = [f"read_p99_us = {p99:.6g} us ({per_block}; not bounded, see spec.py)"]
    else:
        for traced in (False, True):
            session, queries, store = open_session(workload, dataset)
            options = session.options.describe()
            tracer = spans.Tracer() if traced else None
            try:
                with spans.shims_installed(tracer) if traced else nullcontext():
                    phases.append(run_phase(session, queries, workload, dataset, tracer))
            finally:
                close_session(session, store)
        report = per_layer(phases[0], phases[1], tracer)
        extra = []
        units = {
            name: (unit, f"; should move {moves} on {on}")
            for name, unit, _, moves, on in spec.PER_LAYER
        }
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    for child in multiprocessing.active_children():
        child.join(timeout=30)

    failures = []
    for phase in phases:
        failures += check(phase)
    attempted = sum(p.reads_attempted + p.writes_attempted for p in phases)
    missing = set(units) ^ set(report)
    if missing:
        raise SystemExit(f"metrics out of step with spec.py: {sorted(missing)}")

    print(f"workload {args.workload}, seed {args.seed}, TLC scale {workloads.SCALE} "
          f"({dataset.total_rows} rows), {len(workload.reads)} reads per phase")
    print(f"options {options}")
    print(f"host nproc {os.cpu_count()}, python {platform.python_version()}")
    if workload.writes_per_second:
        wal = "; WAL flushed to the OS per record, no fsync" if "storage" in workload.session_options else ""
        print(f"writer {workload.writes_per_second} single-row writes/s, open loop{wal}")
    for name, (unit, prediction) in units.items():
        value, note = report[name]
        print(f"{name} = {value:.6g} {unit} ({note}{prediction})")
    for line in extra:
        print(line)
    print(f"error_rate = {len(failures) / attempted:.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": report[name][0], "unit": unit} for name, (unit, _) in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
