"""Deterministic request streams for the four workloads.

Everything a run sends is generated here from ``--seed`` before the
timed phase starts: templates, bindings, dashboard windows and write
rows. The program under test receives only these inputs.

A read names a TLC template and the ``TLCParams`` fields it overrides.
The serving side binds those values to the template's parameter slots;
the oracle instead re-instantiates the TLC query text with the same
fields, so the two sides share no code below ``repro.workloads.tlc``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Optional

from repro.workloads.tlc.generator import TLCDataset, TLCParams
from repro.workloads.tlc.queries import query_by_name
from repro.workloads.tlc.schema import REGIONS

#: TLC scale of every workload (~55k rows, ~30k of them in ``call``)
SCALE = 20
#: The instance is the same in every run; ``--seed`` varies the
#: requests. Per-seed data would move the tail latency by which rows a
#: heavy template's bindings happen to reach, not by the code measured.
DATA_SEED = 42

#: set-up runs per measured run; ``setup_s`` is their median
SETUPS = 3

#: TLCParams field -> parameter slot, per template a workload binds.
#: Q1's date also feeds two range predicates that are not parameter
#: slots, so Q1 keeps the template date and varies the other slots.
SLOTS = {
    "Q1": {"t0": "business.type", "r0": "business.region", "c0": "package.pid"},
    "Q2": {"p0": "call.pnum", "d0": "call.date"},
    "Q3": {"p0": "package.pnum", "year": "package.year"},
    "Q5": {"x0": "call.recnum", "d0": "call.date"},
    "Q6": {"p0": "call.pnum", "d0": "call.date"},
    "Q7": {"p0": "call.pnum", "d0": "call.date"},
    "Q9": {"p0": "sms.pnum", "d0": "sms.date"},
}
FRESH_TEMPLATES = ("Q1", "Q2", "Q3", "Q5", "Q6", "Q7", "Q9")
CALL_TEMPLATES = ("Q2", "Q5", "Q6", "Q7")

#: Reads per second of ``--seconds`` each workload is sized for on a
#: 2-CPU host. The read count is a function of the workload and
#: ``--seconds`` only, so both sides of a comparison do the same reads.
READS_PER_SECOND = {
    "fresh-bindings": 2500,
    "hot-dashboard": 8000,
    "read-write": 2000,
    "replicated": 600,
}

#: Open-loop writer rates (single-row operations per second, half
#: inserts and half deletes); ``replicated`` runs a tenth of the
#: ``read-write`` rate. A delete scans all of ``call`` under its write
#: lock (15-20 ms on a 2-vCPU VM), so each blocks about one read. At these rates
#: such reads stay well under 1% of all reads, which keeps ``read_p99``
#: off the knee between the plain tail and the lock-wait tail, where it
#: would swing with host speed; the lock waits show in
#: ``serving.lock_wait_us`` and the write latencies.
WRITES_PER_SECOND = {"read-write": 10, "replicated": 1}

#: rows the writer inserts before the timed phase and deletes after
#: it; in between every insert is followed by a delete of the oldest
#: outstanding row, so ``call`` stays within one row of this level
WRITE_BACKLOG = 8

#: call rows the writer copies; read-write readers bind one of their
#: keys a quarter of the time, so reads see writes
HOT_ROWS = 32
HOT_READ_SHARE = 0.25

#: Each table's shard holds 512 // 13 = 39 result entries and a query
#: shape keeps 32 subsumption candidates, so 24 keys' overviews stay
#: cached while every drill-down is answered from one of them.
DASHBOARD_KEYS = 24
DASHBOARD_ZIPF = 1.1
#: duration_sec windows: the first covers every call (30..1829 s) and
#: contains the others, so a cached overview answers each drill-down
DASHBOARD_WINDOWS = ((30, 1830), (300, 1500), (600, 1200), (900, 1100), (30, 600))
DASHBOARD_OVERVIEW_SHARE = 0.25
DASHBOARD_SQL = (
    "select call_id, duration_sec from call "
    "where pnum = '{pnum}' and date = '{date}' "
    "and duration_sec >= {lo} and duration_sec <= {hi}"
)

#: first call_id the writer uses (the generator stays far below it)
WRITE_ID_BASE = 90_000_000


@dataclass(frozen=True)
class Read:
    """One read: a TLC template with overridden ``TLCParams`` fields, or
    (``template == "dashboard"``) a SQL text sent as is."""

    template: str
    fields: tuple[tuple[str, object], ...] = ()
    sql: Optional[str] = None

    def binding(self) -> dict[str, object]:
        slots = SLOTS[self.template]
        return {slots[field]: value for field, value in self.fields}

    def oracle_sql(self, params: TLCParams) -> str:
        if self.sql is not None:
            return self.sql
        return query_by_name(
            dataclasses.replace(params, **dict(self.fields)), self.template
        ).sql


@dataclass(frozen=True)
class Workload:
    name: str
    session_options: dict  # ExecutionOptions fields the workload exists for
    templates: tuple[str, ...]  # TLC templates set-up answers once each
    setup_sql: tuple[str, ...]  # SQL texts set-up answers once each
    warmup: tuple[Read, ...]  # untimed, before each phase
    reads: tuple[Read, ...]
    writes_per_second: float
    write_rows: tuple[tuple, ...]  # insert rows in order (backlog first)
    sample: frozenset[int]  # read indices the oracle checks


def _column(table, name):
    return table.schema.position(name)


def _distinct(table, *names) -> list[tuple]:
    positions = [_column(table, name) for name in names]
    return sorted({tuple(row[p] for p in positions) for row in table.rows})


def _fresh_pools(dataset: TLCDataset, rng: random.Random) -> dict[str, list]:
    """Per template, every binding present in the data except the
    template's own constants, in seeded order."""
    db, p = dataset.database, dataset.params
    business = _distinct(db.table("business"), "type", "region")
    pids = sorted({pid for (pid, year) in _distinct(db.table("package"), "pid", "year") if year == p.year})
    call_pd = _distinct(db.table("call"), "pnum", "date")
    pools = {
        "Q1": [
            (("t0", t), ("r0", r), ("c0", c))
            for (t, r) in business
            for c in pids
            if (t, r, c) != (p.t0, p.r0, p.c0)
        ],
        "Q2": [(("p0", a), ("d0", d)) for a, d in call_pd if (a, d) != (p.p0, p.d0)],
        "Q3": [
            (("p0", a), ("year", y))
            for a, y in _distinct(db.table("package"), "pnum", "year")
            if (a, y) != (p.p0, p.year)
        ],
        "Q5": [
            (("x0", x), ("d0", d))
            for x, d in _distinct(db.table("call"), "recnum", "date")
            if (x, d) != (p.x0, p.d0)
        ],
        "Q9": [
            (("p0", a), ("d0", d))
            for a, d in _distinct(db.table("sms"), "pnum", "date")
            if (a, d) != (p.p0, p.d0)
        ],
    }
    pools["Q6"] = list(pools["Q2"])
    pools["Q7"] = list(pools["Q2"])
    for name in sorted(pools):
        rng.shuffle(pools[name])
    return pools


def _fresh_reads(dataset: TLCDataset, rng: random.Random, count: int) -> list[Read]:
    """Equal shares per template, capped by the distinct bindings the data
    holds (at scale 20, Q3 has 899 and Q1 2279), shuffled so the template
    mix is the same throughout the run."""
    pools = _fresh_pools(dataset, rng)
    by_size = sorted(FRESH_TEMPLATES, key=lambda name: len(pools[name]))
    left = count
    reads: list[Read] = []
    for position, name in enumerate(by_size):
        quota = min(left // (len(by_size) - position), len(pools[name]))
        reads += [Read(name, binding) for binding in pools[name][:quota]]
        left -= quota
    if left:
        raise SystemExit(
            f"scale {SCALE} holds only {len(reads)} distinct bindings; "
            f"{count} reads need more (lower --seconds)"
        )
    rng.shuffle(reads)
    return reads


def _dashboard_reads(
    dataset: TLCDataset, rng: random.Random, count: int
) -> tuple[list[Read], list[Read]]:
    """(warm-up, timed) reads: the warm-up asks each key's overview
    twice, which the result cache's second-hit admission needs; timed
    reads pick a Zipf-skewed key and its overview or a drill-down."""
    keys = rng.sample(_distinct(dataset.database.table("call"), "pnum", "date"), DASHBOARD_KEYS)
    weights = [1.0 / (rank + 1) ** DASHBOARD_ZIPF for rank in range(len(keys))]
    overview = DASHBOARD_WINDOWS[0]
    warmup = [Read("dashboard", sql=dashboard_sql(key, overview)) for key in keys * 2]
    reads = []
    for _ in range(count):
        key = rng.choices(keys, weights)[0]
        if rng.random() < DASHBOARD_OVERVIEW_SHARE:
            window = overview
        else:
            window = rng.choice(DASHBOARD_WINDOWS[1:])
        reads.append(Read("dashboard", sql=dashboard_sql(key, window)))
    return warmup, reads


def dashboard_sql(key: tuple, window: tuple) -> str:
    (pnum, date), (lo, hi) = key, window
    return DASHBOARD_SQL.format(pnum=pnum, date=date, lo=lo, hi=hi)


def _hot_rows(dataset: TLCDataset, rng: random.Random) -> list[tuple]:
    return rng.sample(dataset.database.table("call").rows, HOT_ROWS)


def _call_reads(
    dataset: TLCDataset, rng: random.Random, count: int, hot: list[tuple]
) -> list[Read]:
    """Reads of the call-backed templates; a share bind a key the writer
    touches, the rest walk the present keys in seeded order."""
    call = dataset.database.table("call")
    pnum, recnum, date = (_column(call, n) for n in ("pnum", "recnum", "date"))
    cold = {
        "Q2": _distinct(call, "pnum", "date"),
        "Q5": _distinct(call, "recnum", "date"),
    }
    for keys in cold.values():
        rng.shuffle(keys)
    reads = []
    for i in range(count):
        name = CALL_TEMPLATES[i % len(CALL_TEMPLATES)]
        first = "x0" if name == "Q5" else "p0"
        if rng.random() < HOT_READ_SHARE:
            row = rng.choice(hot)
            key = (row[recnum] if name == "Q5" else row[pnum], row[date])
        else:
            pool = cold["Q5" if name == "Q5" else "Q2"]
            key = pool[i % len(pool)]
        reads.append(Read(name, ((first, key[0]), ("d0", key[1]))))
    return reads


def _write_rows(dataset: TLCDataset, hot: list[tuple], count: int) -> list[tuple]:
    """Copies of hot rows under a fresh ``call_id`` and another region,
    so each insert adds an answer row to the hot key's reads and each
    delete must take it away again."""
    schema = dataset.database.table("call").schema
    call_id, region = schema.position("call_id"), schema.position("region")
    rows = []
    for k in range(count):
        row = list(hot[k % len(hot)])
        row[call_id] = WRITE_ID_BASE + k
        row[region] = REGIONS[(REGIONS.index(row[region]) + 1 + k % 9) % len(REGIONS)]
        rows.append(tuple(row))
    return rows


def build(name: str, dataset: TLCDataset, seed: int, seconds: float, samples: int) -> Workload:
    """The workload ``name`` for this dataset, seed and run length."""
    rng = random.Random(f"{name}/{seed}")
    count = max(1, round(READS_PER_SECOND[name] * seconds))
    rate = WRITES_PER_SECOND.get(name, 0)
    # room for the writer to run four times as long as planned
    inserts = WRITE_BACKLOG + int(rate * seconds * 2) + 1 if rate else 0
    options: dict = {}
    setup_sql: tuple[str, ...] = ()
    warmup: list[Read] = []
    templates: tuple[str, ...] = ()
    hot: list[tuple] = []
    if name == "fresh-bindings":
        templates = FRESH_TEMPLATES
        reads = _fresh_reads(dataset, rng, count)
    elif name == "hot-dashboard":
        options = {"result_reuse": "subsume"}
        warmup, reads = _dashboard_reads(dataset, rng, count)
        planted = (dataset.params.p0, dataset.params.d0)
        setup_sql = (dashboard_sql(planted, DASHBOARD_WINDOWS[0]),)
    elif name == "read-write":
        options = {"storage": "mmap"}
        templates = CALL_TEMPLATES
        hot = _hot_rows(dataset, rng)
        reads = _call_reads(dataset, rng, count, hot)
    elif name == "replicated":
        options = {"replicas": 2}
        templates = FRESH_TEMPLATES
        hot = _hot_rows(dataset, rng)
        reads = _fresh_reads(dataset, rng, count)
    else:
        raise SystemExit(f"unknown workload {name!r}")
    sample = frozenset(rng.sample(range(len(reads)), min(samples, len(reads))))
    return Workload(
        name=name,
        session_options=options,
        templates=templates,
        setup_sql=setup_sql,
        warmup=tuple(warmup),
        reads=tuple(reads),
        writes_per_second=rate,
        write_rows=tuple(_write_rows(dataset, hot, inserts)) if rate else (),
        sample=sample,
    )


def head(workload: Workload, share: float) -> Workload:
    """The workload cut to the first ``share`` of its reads."""
    count = max(1, round(len(workload.reads) * share))
    return dataclasses.replace(
        workload,
        reads=workload.reads[:count],
        sample=frozenset(i for i in workload.sample if i < count),
    )
