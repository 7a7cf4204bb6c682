"""Subsumption-based result reuse: the sliding-window dashboard win.

Dashboard workloads re-ask the same template with progressively
narrower windows: one broad warm-up per panel, then many contained
refinements, plus occasional exact repeats. Exact result caching only
helps the repeats; ``result_reuse="subsume"`` answers every contained
refinement by re-filtering the cached broad superset
(:mod:`repro.bounded.subsume`) without touching the engine.

Reported over ``DASHBOARDS`` panels x ``WINDOWS`` contained windows
(+2 exact repeats each):

* effective hit rate — (result-cache hits + subsumed hits) / queries,
  for ``exact`` vs ``subsume`` reuse over the identical stream;
* narrow-window latency — subsumed service vs full bounded
  re-execution of the same statements;
* probe scaling — median narrow-window latency with 1, 8 and 32 live
  same-shape candidates on distinct equality keys (the point-keyed
  probe reaches one of them, however many are live).

Acceptance bars asserted here: the subsume-mode effective hit rate is
at least 3x the exact-mode rate, and subsumed service is at least 2x
faster than re-execution (total over the narrow-window stream). The
full run also holds latency at 32 live candidates to at most 1.5x the
latency at 1; ``--quick`` prints the scaling row without the bar.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_subsume.py``) or standalone (``PYTHONPATH=src python
benchmarks/bench_subsume.py --quick``) — the latter is the CI smoke.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # standalone invocation
    sys.path.insert(0, str(REPO_ROOT))

from repro import (
    AccessConstraint,
    AccessSchema,
    Database,
    DatabaseSchema,
    DataType,
    Session,
    TableSchema,
)
from repro.bench.reporting import format_table

from benchmarks.conftest import once, write_report

DASHBOARDS = 12
WINDOWS = 10
ROWS_PER_DASHBOARD = 800
HIT_RATE_TARGET = 3.0
LATENCY_TARGET = 2.0
#: live same-shape candidates the scaling row measures
SCALING_CANDIDATES = (1, 8, 32)
#: rows per key in the scaling database: few, so the probe, not the
#: refilter over the cached rows, is what the row measures
SCALING_ROWS = 40
SCALING_QUERIES = 640
SCALING_TARGET = 1.5

REGIONS = ("north", "south", "east", "west", "plains")


def build_database(
    dashboards: int, rows_per_dashboard: int = ROWS_PER_DASHBOARD
) -> Database:
    schema = DatabaseSchema(
        [
            TableSchema(
                "events",
                [
                    ("event_id", DataType.INT),
                    ("pnum", DataType.STRING),
                    ("day", DataType.INT),
                    ("region", DataType.STRING),
                    ("score", DataType.INT),
                ],
                keys=[("event_id",)],
            )
        ],
        name="bench-subsume",
    )
    db = Database(schema)
    rng = random.Random(17)
    event_id = 0
    for p in range(dashboards):
        for _ in range(rows_per_dashboard):
            event_id += 1
            db.insert(
                "events",
                (
                    event_id,
                    f"p{p}",
                    rng.randrange(0, 365),
                    rng.choice(REGIONS),
                    rng.randrange(0, 100),
                ),
            )
    return db


def access_schema() -> AccessSchema:
    return AccessSchema(
        [
            AccessConstraint(
                "events",
                ["pnum"],
                ["event_id", "day", "region", "score"],
                2 * ROWS_PER_DASHBOARD,
                name="psi_dash",
            )
        ],
        name="A-dash",
    )


def _sql(dashboard: int, lo: int, hi: int) -> str:
    return (
        "SELECT event_id, day, region, score FROM events "
        f"WHERE pnum = 'p{dashboard}' AND day >= {lo} AND day <= {hi}"
    )


def _windows(windows: int) -> list[tuple[int, int]]:
    """Contained refinements of the broad [0, 364] window."""
    step = 300 // windows
    return [(1 + i * step, 1 + i * step + 60) for i in range(windows)]


def _session(db: Database) -> Session:
    return Session(
        db, access_schema(), server_options={"result_admission": "always"}
    )


def measure(dashboards: int, windows: int) -> dict[str, float]:
    database = build_database(dashboards)
    contained = _windows(windows)
    broad = [_sql(d, 0, 364) for d in range(dashboards)]
    narrow = [
        _sql(d, lo, hi) for d in range(dashboards) for lo, hi in contained
    ]
    total_queries = dashboards * (1 + windows + 2)

    def replay(session: Session, reuse: str) -> float:
        """Run the stream; return seconds spent on the narrow windows."""
        for sql in broad:
            session.run(sql, result_reuse=reuse)
        start = time.perf_counter()
        for sql in narrow:
            session.run(sql, result_reuse=reuse)
        elapsed = time.perf_counter() - start
        for sql in broad:  # two exact repeats per dashboard
            session.run(sql, result_reuse=reuse)
            session.run(sql, result_reuse=reuse)
        return elapsed

    # --- exact reuse: only the literal repeats hit -------------------------
    with _session(database) as session:
        replay(session, "exact")
        exact_stats = session.stats()
        exact_hits = exact_stats.result.hits
        assert exact_stats.subsumed_hits == 0

    # --- subsumption: every contained window is a hit ----------------------
    with _session(database) as session:
        subsumed_seconds = replay(session, "subsume")
        stats = session.stats()
        # the headline mechanic: every narrow window answered by refilter
        assert stats.subsumed_hits == len(narrow), stats.subsumed_hits
        subsume_hits = stats.result.hits + stats.subsumed_hits

    # --- re-execution oracle: the same narrow windows, no caches ----------
    with _session(database) as session:
        start = time.perf_counter()
        for sql in narrow:
            session.run(sql, result_reuse="exact", use_result_cache=False)
        reexec_seconds = time.perf_counter() - start

    return {
        "exact_rate": exact_hits / total_queries,
        "subsume_rate": subsume_hits / total_queries,
        "subsumed_seconds": subsumed_seconds,
        "reexec_seconds": reexec_seconds,
        "narrow_count": len(narrow),
    }


def measure_scaling(
    queries: int = SCALING_QUERIES, repeats: int = 3
) -> dict[int, float]:
    """Median narrow-window latency (µs) with N live same-shape
    candidates, one per distinct ``pnum``; the narrow windows cycle over
    all N keys so no candidate is always the most recent. Best of
    ``repeats`` passes, to shed scheduler noise."""
    database = build_database(max(SCALING_CANDIDATES), SCALING_ROWS)
    contained = _windows(WINDOWS)
    latency: dict[int, float] = {}
    for live in SCALING_CANDIDATES:
        narrow = [
            _sql(number % live, *contained[number % len(contained)])
            for number in range(queries)
        ]
        with _session(database) as session:
            for dashboard in range(live):
                session.run(_sql(dashboard, 0, 364), result_reuse="subsume")
            best = float("inf")
            for _ in range(repeats):
                samples = []
                for sql in narrow:
                    start = time.perf_counter()
                    session.run(sql, result_reuse="subsume")
                    samples.append(time.perf_counter() - start)
                best = min(best, statistics.median(samples))
            assert session.stats().subsumed_hits == repeats * queries
        latency[live] = best * 1e6
    return latency


def _scaling_report(latency: dict[int, float]) -> str:
    base = latency[SCALING_CANDIDATES[0]]
    table = format_table(
        ["live candidates", "narrow window µs (median)", "vs 1"],
        [
            (str(live), f"{us:.1f}", f"{us / base:.2f}x")
            for live, us in latency.items()
        ],
    )
    return (
        f"probe scaling — {SCALING_QUERIES} narrow windows cycling over N "
        f"same-shape keys, {SCALING_ROWS} rows each\n\n" + table
    )


def _report(m: dict[str, float], dashboards: int, windows: int) -> str:
    rate_gain = m["subsume_rate"] / max(m["exact_rate"], 1e-9)
    latency_gain = m["reexec_seconds"] / max(m["subsumed_seconds"], 1e-9)
    per_narrow_us = m["subsumed_seconds"] / m["narrow_count"] * 1e6
    per_reexec_us = m["reexec_seconds"] / m["narrow_count"] * 1e6
    table = format_table(
        ["result_reuse", "effective hit rate", "narrow window µs", "vs"],
        [
            (
                "exact",
                f"{m['exact_rate'] * 100:.1f}%",
                f"{per_reexec_us:.1f}",
                "1.0x",
            ),
            (
                "subsume",
                f"{m['subsume_rate'] * 100:.1f}%",
                f"{per_narrow_us:.1f}",
                f"{rate_gain:.1f}x rate, {latency_gain:.1f}x faster",
            ),
        ],
    )
    return (
        f"subsumption reuse — {dashboards} dashboards, {windows} contained "
        f"windows + 2 repeats each\n\n" + table
    )


def run(
    dashboards: int = DASHBOARDS, windows: int = WINDOWS
) -> tuple[float, float, float]:
    """Measure and report; returns (hit-rate gain, latency gain, latency
    at the most live candidates over latency at one)."""
    measured = measure(dashboards, windows)
    scaling = measure_scaling()
    text = (
        _report(measured, dashboards, windows)
        + "\n\n"
        + _scaling_report(scaling)
    )
    print(text)
    write_report("bench_subsume.txt", text)
    rate_gain = measured["subsume_rate"] / max(measured["exact_rate"], 1e-9)
    latency_gain = measured["reexec_seconds"] / max(
        measured["subsumed_seconds"], 1e-9
    )
    growth = scaling[SCALING_CANDIDATES[-1]] / scaling[SCALING_CANDIDATES[0]]
    return rate_gain, latency_gain, growth


def test_subsume_hit_rate_and_latency(benchmark):
    rate_gain, latency_gain, growth = once(benchmark, run)
    assert rate_gain >= HIT_RATE_TARGET, (
        f"subsume effective hit rate only {rate_gain:.1f}x exact "
        f"(target {HIT_RATE_TARGET}x)"
    )
    assert latency_gain >= LATENCY_TARGET, (
        f"subsumed service only {latency_gain:.1f}x vs re-execution "
        f"(target {LATENCY_TARGET}x)"
    )
    assert growth <= SCALING_TARGET, (
        f"probe latency grows {growth:.2f}x from 1 to "
        f"{SCALING_CANDIDATES[-1]} live candidates (target <= "
        f"{SCALING_TARGET}x)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "fewer dashboards/windows (the CI smoke); the hit-rate and "
            "latency bars still apply, the scaling bar does not"
        ),
    )
    args = parser.parse_args(argv)
    dashboards = 4 if args.quick else DASHBOARDS
    windows = 6 if args.quick else WINDOWS
    rate_gain, latency_gain, growth = run(dashboards, windows)
    failed = False
    if rate_gain < HIT_RATE_TARGET:
        print(
            f"FAIL: hit-rate gain {rate_gain:.1f}x < {HIT_RATE_TARGET}x",
            file=sys.stderr,
        )
        failed = True
    if latency_gain < LATENCY_TARGET:
        print(
            f"FAIL: subsumed latency gain {latency_gain:.1f}x < "
            f"{LATENCY_TARGET}x",
            file=sys.stderr,
        )
        failed = True
    if not args.quick and growth > SCALING_TARGET:
        print(
            f"FAIL: probe latency grows {growth:.2f}x from 1 to "
            f"{SCALING_CANDIDATES[-1]} live candidates > {SCALING_TARGET}x",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    scaling = (
        f"{growth:.2f}x from 1 to {SCALING_CANDIDATES[-1]} live candidates"
    )
    print(
        f"OK: effective hit rate {rate_gain:.1f}x >= {HIT_RATE_TARGET}x, "
        f"subsumed service {latency_gain:.1f}x >= {LATENCY_TARGET}x vs "
        "re-execution, probe latency "
        + (scaling if args.quick else f"{scaling} <= {SCALING_TARGET}x")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
