"""Answer checks against the conventional engine.

The oracle evaluates each sampled read with the conventional engine
(``repro.engine.executor.ConventionalEngine``, the engine
``BEAS.host_engine()`` returns) over a private copy of the data. Writes
only ever touch ``call``; the copy replays the writer's log up to the
``call`` version each read reports in ``Result.metrics.table_versions``,
so a read is checked against exactly the state it claims to reflect.

Answers compare as bags when the decision is bag-exact and as sets
otherwise: a bounded plan that is not bag-exact (TLC Q1) may return
fewer duplicates than the conventional engine and still be right.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.engine.executor import ConventionalEngine
from repro.storage.database import Database
from repro.storage.table import Table

WRITTEN_TABLE = "call"


@dataclass(frozen=True)
class Sample:
    """One checked read: what the program answered, and under what."""

    sql: str  # the oracle's SQL text for this read
    rows: tuple
    bag_exact: bool
    call_version: int  # -1 when the read does not depend on ``call``


def answers_match(got, want, bag_exact: bool) -> bool:
    if bag_exact:
        return Counter(got) == Counter(want)
    return set(got) == set(want)


class Oracle:
    """The conventional engine over a copy of the database as it stood
    before the first write of a phase."""

    def __init__(self, database: Database):
        self._database = database
        self._initial_rows = list(database.table(WRITTEN_TABLE).rows)

    def check(
        self, samples: list[Sample], log: list[tuple[int, str, tuple]], base_version: int
    ) -> list[str]:
        """Failures among ``samples``; ``log`` holds the phase's writes
        as ``(call version after the write, "insert" | "delete", row)``
        and ``base_version`` is ``call``'s version before the first."""
        copy = Database(name="oracle")
        for table in self._database:
            if table.schema.name != WRITTEN_TABLE:
                copy.add_table(table)  # never written: shared, read-only
        call = Table(self._database.table(WRITTEN_TABLE).schema)
        # rows are edited in place without bumping Table.version, so the
        # engine's planner statistics are computed once per check
        call.rows = list(self._initial_rows)
        copy.add_table(call)
        engine = ConventionalEngine(copy)

        log = sorted(log)
        known = {base_version} | {version for version, _, _ in log}
        failures: list[str] = []
        applied = 0
        for sample in sorted(samples, key=lambda s: s.call_version):
            if sample.call_version >= 0:
                if sample.call_version not in known:
                    failures.append(
                        f"read reports call version {sample.call_version}, "
                        f"which no write produced: {sample.sql}"
                    )
                    continue
                while applied < len(log) and log[applied][0] <= sample.call_version:
                    _, op, row = log[applied]
                    if op == "insert":
                        call.rows.append(row)
                    else:
                        call.rows.remove(row)
                    applied += 1
            want = engine.execute(sample.sql).rows
            if not answers_match(sample.rows, want, sample.bag_exact):
                failures.append(
                    f"wrong answer ({len(sample.rows)} rows, oracle "
                    f"{len(want)}): {' '.join(sample.sql.split())}"
                )
        return failures
