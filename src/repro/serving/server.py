"""The prepared-query serving layer: the sharded ``BEASServer``.

Wraps one :class:`~repro.beas.system.BEAS` instance with the machinery a
high-traffic deployment needs to amortise per-query frontend cost:

* a **parse cache** (SQL text -> AST + fingerprint + table set),
* a **coverage-decision cache** keyed by (query fingerprint,
  access-schema generation) — the pinned BE Checker outcome and bounded
  plan for each distinct query/binding,
* an **LRU result cache** with entry and byte budgets, invalidated at
  per-table granularity by a monotonic data-generation counter
  (:attr:`~repro.storage.table.Table.version`) so an insert into
  ``call`` never evicts results computed over ``package`` only.

Concurrency model (the sharded architecture):

* Server state is **partitioned by table**: each table gets a
  :class:`~repro.serving.shard.TableShard` holding a reader/writer lock
  over the table's rows + access indices and this table's slice of the
  result cache. Single-table queries and maintenance batches on
  disjoint tables proceed fully in parallel; a multi-table join takes
  read locks on every dependency shard in **canonical table order**
  (deadlock-free), so its answer is computed against one consistent
  table-version vector — no torn reads across shards.
* The parse and decision caches are **lock-striped**
  (:class:`~repro.serving.shard.StripedCache`), keyed by text /
  fingerprint, so hot traffic on distinct queries does not serialise on
  one mutex.
* A coarse **schema lock** is held for read by every request and for
  write only by ``register``/``unregister`` — access-schema changes are
  rare and flush the decision + result caches wholesale.
* Cached results additionally record the access-schema generation and
  the exact table-version vector they were computed under; a hit is
  served only when both still match the live values, so a stale row can
  never be served even when a mutation bypassed the serving layer.

Result-cache admission is **admit-on-second-hit** by default (pass
``result_admission="always"`` to restore eager admission): the first
sighting of a (fingerprint, options) key only registers it in a
per-shard doorkeeper, so one-off ad-hoc or fuzz queries stop churning
the LRU; a key seen twice is cached for real.

``sharded=False`` collapses every table onto a single shard and every
stripe onto one — the global-lock baseline the concurrency benchmark
compares against.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Hashable, Mapping, Optional, Union

from repro.beas.result import BEASResult, ExecutionMode
from repro.bounded.plan import BoundedPlan
from repro.bounded.rebind import RebindTemplate, build_rebind_template
from repro.bounded.subsume import (
    Candidate,
    QuerySummary,
    SubsumptionIndex,
    apply_refilter,
    subsumes,
    summarize_statement,
)
from repro.config import env_routing_epsilon, validate_result_reuse, validate_routing
from repro.engine.columnar import resolve_executor_mode
from repro.engine.metrics import ExecutionMetrics
from repro.engine.pool import PoolStats
from repro.distributed.fleet import FleetStats
from repro.engine.router import ExecutorRouter, RouterStats, routing_features
from repro.errors import ServingError, UnknownTableError
from repro.sql import ast
from repro.sql.fingerprint import statement_fingerprint, statement_tables
from repro.sql.parser import parse
from repro.serving.cache import CacheStats, LRUCache, approx_size
from repro.serving.prepared import PreparedBinding, PreparedQuery
from repro.storage.mmapstore import StorageStats
from repro.serving.shard import (
    LockStats,
    ShardLock,
    ShardStats,
    StripedCache,
    TableShard,
    acquire_read_ordered,
    order_shards,
    release_read_ordered,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.access.constraint import AccessConstraint
    from repro.beas.system import BEAS
    from repro.bounded.coverage import CoverageDecision
    from repro.maintenance.incremental import UpdateBatch

#: Shard name used when ``sharded=False`` (every table maps here) and for
#: queries with an empty dependency set.
GLOBAL_SHARD = "__global__"


@dataclass
class _CachedResult:
    """One result-cache entry plus the generations it depends on.

    ``summary`` is the entry's predicate-lattice summary, present only
    when the server runs with ``result_reuse="subsume"`` and the entry
    is an eligible subsumption source (BOUNDED mode, reusable shape);
    ``template_fingerprint`` records the pinned rebind template the
    answer derived from, so a merged-arity fallback can drop candidates
    with stale plan provenance.
    """

    columns: list[str]
    rows: list[tuple]
    mode: ExecutionMode
    decision: "CoverageDecision"
    table_versions: dict[str, int]
    schema_generation: int
    summary: Optional[QuerySummary] = None
    template_fingerprint: Optional[str] = None


def _result_size(entry: _CachedResult) -> int:
    return approx_size(entry.columns) + approx_size(entry.rows)


@dataclass(frozen=True)
class _RebindRequest:
    """Plan-reuse context for one prepared binding.

    The decision cache holds, next to the per-binding exact entries, one
    *pinned template* per (template fingerprint, arity signature,
    schema generation): the first binding of each signature pays a full
    BE Checker run and pins its decision plus a
    :class:`~repro.bounded.rebind.RebindTemplate`; every later
    equal-signature binding patches the pinned plan's constant key parts
    directly — zero checker runs. A binding that changes a slot's
    IN-list arity, NULL-ness, or type class lands on a different
    signature (or trips the rebinder's merged-arity guard) and re-checks.
    """

    template_fingerprint: str
    signature: tuple
    overrides: Mapping[str, tuple]

    def cache_key(self, generation: int) -> tuple:
        return ("rebind", self.template_fingerprint, self.signature, generation)


@dataclass
class ServingStats:
    """Aggregated serving counters (``BEASServer.stats()``)."""

    parse: CacheStats
    decision: CacheStats
    result: CacheStats
    result_entries: int = 0
    result_bytes: int = 0
    prepared_queries: int = 0
    executions: int = 0
    schema_generation: int = 0
    table_versions: dict[str, int] = field(default_factory=dict)
    shards: dict[str, ShardStats] = field(default_factory=dict)
    schema_lock: Optional[LockStats] = None
    admission_declines: int = 0
    # plan-rebinding counters: decisions served by patching a pinned
    # plan's constants (no BE Checker run), guard-triggered fallbacks to
    # a full re-check, and the underlying checker's lifetime run count
    rebinds: int = 0
    rebind_fallbacks: int = 0
    checker_runs: int = 0
    # subsumption counters (result_reuse="subsume"): queries answered by
    # re-filtering a cached bounded superset, probes that served no
    # subsumed answer although the statement's shape is refused or has
    # indexed candidates, and candidates dropped for stale plan
    # provenance (rebind fallbacks abandoning the pinned plan they
    # derived from)
    subsumed_hits: int = 0
    subsumption_rejects: int = 0
    subsumption_invalidations: int = 0
    # engine-pool counters (None while no pool has started): requests on
    # this server dispatch bounded work to the BEAS instance's worker
    # processes when it was built with parallelism >= 2
    pool: Optional[PoolStats] = None
    # serving-fleet counters (None while no replica fleet has spawned):
    # covered bounded requests on this server are answered by the BEAS
    # instance's socket-connected read replicas when it was built with
    # replicas >= 2
    fleet: Optional[FleetStats] = None
    # learned-routing counters (routing="learned" requests): per-route
    # decisions, exploration rate, training observations, cost-aware
    # admission declines
    routing: Optional[RouterStats] = None
    # persistent-storage counters (None while the BEAS instance runs the
    # in-memory engine): warm-start provenance, WAL traffic, checkpoint
    # and shared-memory snapshot activity
    storage: Optional[StorageStats] = None

    @property
    def lock_wait_seconds(self) -> float:
        """Total time requests spent blocked on shard + schema locks."""
        total = sum(s.lock.wait_seconds for s in self.shards.values())
        if self.schema_lock is not None:
            total += self.schema_lock.wait_seconds
        return total

    @property
    def contended_acquisitions(self) -> int:
        total = sum(s.lock.contended_acquisitions for s in self.shards.values())
        if self.schema_lock is not None:
            total += self.schema_lock.contended_acquisitions
        return total

    def describe(self) -> str:
        lines = [
            "serving stats:",
            f"  {self.parse.describe()}",
            f"  {self.decision.describe()}",
            f"  {self.result.describe()}",
            f"  result cache: {self.result_entries} entries, "
            f"{self.result_bytes} bytes, "
            f"{self.admission_declines} admissions declined",
            f"  prepared queries: {self.prepared_queries}",
            f"  executions served: {self.executions}",
            f"  plan rebinds: {self.rebinds} served without the BE Checker "
            f"({self.rebind_fallbacks} guard fallbacks, "
            f"{self.checker_runs} checker runs total)",
            f"  subsumption: {self.subsumed_hits} subsumed hits, "
            f"{self.subsumption_rejects} rejects, "
            f"{self.subsumption_invalidations} candidates invalidated",
            f"  access-schema generation: {self.schema_generation}",
            f"  lock contention: {self.contended_acquisitions} contended "
            f"acquisitions, waited {self.lock_wait_seconds * 1000:.2f} ms",
        ]
        if self.pool is not None:
            lines.append(f"  {self.pool.describe()}")
        if self.fleet is not None:
            lines.append(f"  {self.fleet.describe()}")
        if self.storage is not None:
            for line in self.storage.describe().splitlines():
                lines.append(f"  {line}")
        if self.routing is not None and self.routing.decisions:
            for line in self.routing.describe().splitlines():
                lines.append(f"  {line}")
        for name in sorted(self.shards):
            lines.append(f"  {self.shards[name].describe()}")
        return "\n".join(lines)


class BEASServer:
    """Prepare/execute front end over one BEAS instance (see module doc)."""

    def __init__(
        self,
        beas: "BEAS",
        *,
        parse_cache_entries: int = 512,
        decision_cache_entries: int = 1024,
        result_cache_entries: int = 512,
        result_cache_bytes: Optional[int] = 8 << 20,
        sharded: bool = True,
        decision_stripes: int = 8,
        result_admission: str = "second-hit",
    ):
        if result_admission not in ("second-hit", "always"):
            raise ServingError(
                f"unknown result_admission {result_admission!r} "
                "(expected 'second-hit' or 'always')"
            )
        self._beas = beas
        self._sharded = sharded
        self._admission = result_admission
        self._schema_lock = ShardLock("schema")
        #: leaf mutex guarding prepared registry, execution counter, and
        #: the observed schema generation
        self._admin_lock = threading.Lock()
        #: leaf mutex guarding the table -> {result key -> home shard}
        #: dependency index used for cross-shard invalidation
        self._dep_lock = threading.Lock()
        self._dep_index: dict[str, dict[Hashable, str]] = {}

        stripes = decision_stripes if sharded else 1
        self._parse_cache = StripedCache(
            "parse", max_entries=parse_cache_entries, stripes=min(4, stripes)
        )
        self._decision_cache = StripedCache(
            "decision", max_entries=decision_cache_entries, stripes=stripes
        )
        # predicate-lattice summaries, keyed by fingerprint — pure
        # functions of the statement, so never flushed for freshness
        self._summary_cache = StripedCache(
            "summary", max_entries=parse_cache_entries, stripes=min(4, stripes)
        )
        self._subsume_index = SubsumptionIndex()

        self._result_entries_budget = result_cache_entries
        self._result_bytes_budget = result_cache_bytes
        table_names = [table.schema.name for table in beas.database]
        shard_names = table_names if sharded else [GLOBAL_SHARD]
        self._shards: dict[str, TableShard] = {}
        for name in shard_names:
            self._shards[name] = self._new_shard(name, len(shard_names))
        if sharded:
            # home for queries with an empty dependency set
            self._shards.setdefault(
                GLOBAL_SHARD, self._new_shard(GLOBAL_SHARD, len(shard_names))
            )
        for shard in self._shards.values():
            if shard.table in beas.database:
                shard.version = beas.database.table(shard.table).version

        self._prepared: dict[str, PreparedQuery] = {}
        self._executions = 0
        self._rebinds = 0
        self._rebind_fallbacks = 0
        self._subsumed_hits = 0
        self._subsumption_rejects = 0
        self._subsumption_invalidations = 0
        self._schema_generation = beas.catalog.schema_generation
        self._router = ExecutorRouter(
            parallelism=beas.parallelism, epsilon=env_routing_epsilon()
        )
        if beas.store is not None:
            self._prewarm_result_cache()

    def _new_shard(self, name: str, shard_count: int) -> TableShard:
        entries = max(8, self._result_entries_budget // max(shard_count, 1))
        byte_budget = self._result_bytes_budget
        if byte_budget is not None:
            byte_budget = max(1 << 16, byte_budget // max(shard_count, 1))
        return TableShard(
            name,
            result_entries=entries,
            result_bytes=byte_budget,
            sizeof=_result_size,
            admit_on_second_hit=self._admission == "second-hit",
        )

    # ------------------------------------------------------------------ #
    @property
    def beas(self) -> "BEAS":
        return self._beas

    @property
    def router(self) -> ExecutorRouter:
        """The learned executor router (consulted only by
        ``routing="learned"`` requests; always constructed so its state
        accumulates across routing-mode changes)."""
        return self._router

    @property
    def database(self):
        return self._beas.database

    @property
    def sharded(self) -> bool:
        return self._sharded

    def shard(self, table_name: str) -> TableShard:
        """The shard a table maps to (the global shard when unsharded).

        Names that do not exist in the database map to the global shard
        instead of minting a permanent phantom shard — the request will
        fail with ``UnknownTableError`` downstream anyway.
        """
        if not self._sharded:
            return self._shards[GLOBAL_SHARD]
        shard = self._shards.get(table_name)
        if shard is None:
            if table_name not in self._beas.database:
                return self._shards[GLOBAL_SHARD]
            with self._admin_lock:
                shard = self._shards.get(table_name)
                if shard is None:  # table added after server construction
                    shard = self._new_shard(table_name, len(self._shards))
                    self._shards[table_name] = shard
        return shard

    def shards(self) -> dict[str, TableShard]:
        """A snapshot of the shard map (inspection / tests)."""
        with self._admin_lock:
            return dict(self._shards)

    def _shards_for(self, tables: frozenset[str]) -> list[TableShard]:
        return order_shards(self.shard(name) for name in tables)

    def _home_shard(self, tables: frozenset[str]) -> TableShard:
        if not tables:
            return self._shards[GLOBAL_SHARD]
        return self.shard(min(tables))

    # ------------------------------------------------------------------ #
    # prepare
    # ------------------------------------------------------------------ #
    def prepare(self, sql: str, name: Optional[str] = None) -> PreparedQuery:
        """Parse/fingerprint once; returns the reusable prepared handle.

        Preparing the same text again returns the existing handle (under
        its existing name when ``name`` is not given).
        """
        statement, fingerprint, tables, _ = self._frontend(sql)
        with self._admin_lock:
            for existing in self._prepared.values():
                if existing.fingerprint == fingerprint and (
                    name is None or existing.name == name
                ):
                    return existing
            prepared = PreparedQuery(
                self, statement, sql, name,
                fingerprint=fingerprint, tables=tables,
            )
            if prepared.name in self._prepared:
                raise ServingError(
                    f"a different query is already prepared as "
                    f"{prepared.name!r}"
                )
            self._prepared[prepared.name] = prepared
            return prepared

    def prepared(self, name: str) -> PreparedQuery:
        with self._admin_lock:
            try:
                return self._prepared[name]
            except KeyError:
                raise ServingError(f"no prepared query named {name!r}") from None

    def prepared_names(self) -> list[str]:
        with self._admin_lock:
            return sorted(self._prepared)

    # ------------------------------------------------------------------ #
    # execute
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: Union[str, ast.Statement],
        *,
        budget: Optional[int] = None,
        allow_partial: bool = True,
        approximate_over_budget: bool = False,
        use_result_cache: bool = True,
        executor: Optional[str] = None,
        result_reuse: str = "exact",
        routing: str = "static",
    ) -> BEASResult:
        """One-shot execution through the serving caches (no prepare).

        ``executor`` selects the bounded execution mode ("row" or
        "columnar") for this query only; answers are mode-independent,
        so cached results are shared across modes. ``result_reuse``
        selects the cache-matching policy: ``"exact"`` serves only
        presentation-equal fingerprints; ``"subsume"`` additionally
        answers from a cached bounded superset by re-filtering its rows
        (:mod:`repro.bounded.subsume`). ``routing="learned"`` hands the
        mode choice for covered bounded plans to the online cost model
        (:mod:`repro.engine.router`) instead of ``executor``.
        """
        statement, fingerprint, tables, parse_hit = self._frontend(query)
        return self._execute(
            statement,
            fingerprint,
            tables,
            budget=budget,
            allow_partial=allow_partial,
            approximate_over_budget=approximate_over_budget,
            use_result_cache=use_result_cache,
            parse_hit=parse_hit,
            executor=executor,
            result_reuse=result_reuse,
            routing=routing,
        )

    def execute_prepared(
        self,
        prepared: Union[str, PreparedQuery],
        params: Optional[Mapping[str, Any]] = None,
        *,
        budget: Optional[int] = None,
        allow_partial: bool = True,
        approximate_over_budget: bool = False,
        use_result_cache: bool = True,
        executor: Optional[str] = None,
        result_reuse: str = "exact",
        routing: str = "static",
    ) -> BEASResult:
        """Execute a prepared query (by handle or name) for one binding.

        A binding whose arity signature matches an earlier one reuses
        that binding's pinned plan via constraint-preserving rebinding —
        the BE Checker runs once per signature, not once per binding.
        With ``result_reuse="subsume"``, a binding whose predicate
        region is contained in an earlier cached binding's is answered
        by re-filtering that binding's rows — no execution at all.
        """
        if isinstance(prepared, str):
            prepared = self.prepared(prepared)
        bound = prepared.binding(params)
        return self._execute(
            bound.statement,
            bound.fingerprint,
            prepared.tables,
            budget=budget,
            allow_partial=allow_partial,
            approximate_over_budget=approximate_over_budget,
            use_result_cache=use_result_cache,
            parse_hit=True,  # the template parse is amortised
            executor=executor,
            rebind=self._rebind_request(prepared, bound),
            result_reuse=result_reuse,
            routing=routing,
        )

    def check(
        self, query: Union[str, ast.Statement], budget: Optional[int] = None
    ) -> "CoverageDecision":
        """The (cached) BE Checker outcome for a query."""
        statement, fingerprint, _, _ = self._frontend(query)
        with self._schema_lock.read():
            # observed under the read lock: a completed register/unregister
            # (write section) is guaranteed visible here
            generation = self._observe_schema_generation()
            decision, _ = self._decision(statement, fingerprint, generation)
        return self._with_budget(decision, budget)

    def check_prepared(
        self,
        prepared: Union[str, PreparedQuery],
        params: Optional[Mapping[str, Any]] = None,
        *,
        budget: Optional[int] = None,
    ) -> "CoverageDecision":
        return self.decide_prepared(prepared, params, budget=budget)[0]

    def decide_prepared(
        self,
        prepared: Union[str, PreparedQuery],
        params: Optional[Mapping[str, Any]] = None,
        *,
        budget: Optional[int] = None,
    ) -> tuple["CoverageDecision", str]:
        """The coverage decision for one binding plus its provenance:
        ``"fresh"`` (full BE Checker run), ``"cached"`` (exact
        decision-cache hit), or ``"rebound"`` (pinned plan patched for
        this binding, no checker run)."""
        if isinstance(prepared, str):
            prepared = self.prepared(prepared)
        bound = prepared.binding(params)
        with self._schema_lock.read():
            generation = self._observe_schema_generation()
            decision, provenance = self._decision(
                # lazy: a rebound or cached decision never substitutes
                # the binding's AST at all
                lambda: bound.statement,
                bound.fingerprint,
                generation,
                rebind=self._rebind_request(prepared, bound),
            )
        return self._with_budget(decision, budget), provenance

    @staticmethod
    def _rebind_request(
        prepared: PreparedQuery, bound: PreparedBinding
    ) -> Optional[_RebindRequest]:
        if not bound.overrides:
            return None  # the template's own constants: exact key suffices
        return _RebindRequest(
            template_fingerprint=prepared.fingerprint,
            signature=bound.signature,
            overrides=bound.overrides,
        )

    # ------------------------------------------------------------------ #
    # maintenance (per-shard write locks; disjoint tables run in parallel)
    # ------------------------------------------------------------------ #
    def insert(
        self, table_name: str, rows, *, adjust_bounds: bool = False
    ) -> "UpdateBatch":
        return self._maintain(
            table_name,
            lambda: self._beas.insert(
                table_name, rows, adjust_bounds=adjust_bounds
            ),
        )

    def delete(self, table_name: str, rows) -> "UpdateBatch":
        return self._maintain(
            table_name, lambda: self._beas.delete(table_name, rows)
        )

    def _maintain(self, table_name: str, apply) -> "UpdateBatch":
        self._observe_schema_generation()
        self._schema_lock.acquire_read()
        try:
            # raises UnknownTableError before any shard state is touched
            self._beas.database.table(table_name)
            shard = self.shard(table_name)
            # beaslint: ok(lock-discipline) - single-shard maintenance write under the schema read lock; one shard is canonical by construction
            shard.lock.acquire_write()
            try:
                try:
                    batch = apply()
                finally:
                    # even a rejected (rolled-back) batch bumps
                    # Table.version, so dependent entries must still go
                    self._after_table_write(table_name, shard)
            finally:
                shard.lock.release_write()
        finally:
            self._schema_lock.release_read()
        # an ADJUST batch may have widened a bound (schema generation)
        self._observe_schema_generation()
        return batch

    def _after_table_write(self, table_name: str, shard: TableShard) -> None:
        try:
            version = self._beas.database.table(table_name).version
        except UnknownTableError:  # pragma: no cover - table dropped mid-batch
            version = shard.version + 1
        shard.note_maintenance(version)
        self._invalidate_dependents(table_name)

    def _invalidate_dependents(self, table_name: str) -> None:
        """Drop every cached result depending on ``table_name``, wherever
        its home shard is. Runs under the table's write lock, so no new
        dependent entry can appear concurrently (any query depending on
        the table would need its read lock)."""
        with self._dep_lock:
            dependents = self._dep_index.pop(table_name, None)
        if not dependents:
            return
        by_home: dict[str, list[Hashable]] = {}
        for key, home in dependents.items():
            by_home.setdefault(home, []).append(key)
        for home, keys in by_home.items():
            home_shard = self._shards.get(home)
            if home_shard is not None:
                home_shard.invalidate_keys(keys)

    def _register_dependents(
        self, key: Hashable, tables: frozenset[str], home: str
    ) -> None:
        with self._dep_lock:
            for table in tables:
                index = self._dep_index.setdefault(table, {})
                index[key] = home
                # prune dangling refs left by capacity evictions
                if len(index) > 4 * max(self._result_entries_budget, 1):
                    live = {
                        k: h
                        for k, h in index.items()
                        if (shard := self._shards.get(h)) is not None
                        and shard.contains(k)
                    }
                    self._dep_index[table] = live

    def register(
        self, constraint: "AccessConstraint", *, validate: bool = True
    ) -> None:
        with self._schema_lock.write():
            self._beas.register(constraint, validate=validate)
        self._observe_schema_generation()

    def register_all(
        self, constraints, *, validate: bool = True
    ) -> None:
        """Register a batch under ONE schema write section: the checker
        and planner are rebuilt once, and the caches flush once instead
        of per constraint."""
        with self._schema_lock.write():
            self._beas.register_all(constraints, validate=validate)
        self._observe_schema_generation()

    def unregister(self, constraint_name: str) -> None:
        with self._schema_lock.write():
            self._beas.unregister(constraint_name)
        self._observe_schema_generation()

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def stats(self) -> ServingStats:
        self._observe_schema_generation()
        shards = self.shards()
        # Two-phase counter read, ordered against a request's own bump
        # order so concurrent traffic can never tear the snapshot's
        # invariants. Within one request the order is: executions (admin)
        # -> result-cache hit/miss (shard) -> rebind/subsumption counters
        # (admin). Monotonic counters stay consistent when each family is
        # read in the *reverse* of that order: the post-shard counters
        # first (anything they count already has its shard event), the
        # shard sweep second, and the pre-shard counters last (anything
        # the sweep counted already has its execution). A single
        # admin-lock block in either position reports torn totals — e.g.
        # subsumed_hits > result misses with the old sweep-first order.
        with self._admin_lock:
            rebinds = self._rebinds
            rebind_fallbacks = self._rebind_fallbacks
            subsumed_hits = self._subsumed_hits
            subsumption_rejects = self._subsumption_rejects
            subsumption_invalidations = self._subsumption_invalidations
        snapshots: dict[str, ShardStats] = {}
        result = CacheStats("result")
        entries = 0
        size = 0
        declines = 0
        live_versions: dict[str, int] = {
            table.schema.name: table.version for table in self._beas.database
        }
        for name, shard in shards.items():
            snap = shard.snapshot(live_versions.get(name, shard.version))
            snapshots[name] = snap
            result.hits += snap.cache.hits
            result.misses += snap.cache.misses
            result.evictions += snap.cache.evictions
            result.invalidations += snap.cache.invalidations
            entries += snap.entries
            size += snap.bytes
            declines += snap.admission_declines
        with self._admin_lock:
            executions = self._executions
            prepared_count = len(self._prepared)
            generation = self._schema_generation
        return ServingStats(
            rebinds=rebinds,
            rebind_fallbacks=rebind_fallbacks,
            subsumed_hits=subsumed_hits,
            subsumption_rejects=subsumption_rejects,
            subsumption_invalidations=subsumption_invalidations,
            checker_runs=self._beas.checker_runs,
            parse=self._parse_cache.stats(),
            decision=self._decision_cache.stats(),
            result=result,
            result_entries=entries,
            result_bytes=size,
            prepared_queries=prepared_count,
            executions=executions,
            schema_generation=generation,
            table_versions=live_versions,
            shards=snapshots,
            schema_lock=replace(self._schema_lock.stats),
            admission_declines=declines,
            pool=self._beas.pool_stats(),
            fleet=self._beas.fleet_stats(),
            routing=self._router.stats(),
            storage=self._beas.storage_stats(),
        )

    # ------------------------------------------------------------------ #
    # result-cache persistence (mmap storage engine only)
    # ------------------------------------------------------------------ #
    def persist_result_cache(self) -> int:
        """Spill every live result-cache entry to the BEAS instance's
        persistent store; no-op returning 0 on the in-memory engine.

        Safe to persist entries that will be stale by the next start:
        reloads pass through the same freshness gate as normal hits
        (``_entry_fresh`` checks the schema generation and the exact
        table-version vector), so a stale entry can never be served.
        """
        store = self._beas.store
        if store is None:
            return 0
        triples: list[tuple[str, Hashable, Any]] = []
        for name, shard in self.shards().items():
            for key, entry in shard.entries():
                if isinstance(entry, _CachedResult):
                    triples.append((name, key, entry))
        return store.save_results(triples)

    def _prewarm_result_cache(self) -> None:
        """Reinstall result-cache entries persisted by a prior process.

        Bypasses the admit-on-second-hit doorkeeper — these keys earned
        admission in the previous run — but not the freshness gate: a
        reloaded entry whose version vector or schema generation moved
        on sits in the LRU until evicted and is never served.
        """
        store = self._beas.store
        if store is None:  # pragma: no cover - guarded by the caller
            return
        for home, key, entry in store.load_results():
            if not isinstance(entry, _CachedResult):
                continue
            shard = self._shards.get(home)
            if shard is None:
                # shard topology changed (sharded flag flipped, table
                # dropped) — the entry has no home here, skip it
                continue
            shard.install(key, entry)
            self._register_dependents(
                key, frozenset(entry.table_versions), shard.table
            )

    def reset_caches(self) -> None:
        """Drop all cached state (keeps prepared handles)."""
        self._parse_cache.invalidate_all()
        self._decision_cache.invalidate_all()
        self._summary_cache.invalidate_all()
        self._subsume_index.clear()
        for shard in self.shards().values():
            shard.flush()
        with self._dep_lock:
            self._dep_index.clear()
        with self._admin_lock:
            prepared = list(self._prepared.values())
        for handle in prepared:
            handle.clear_bindings()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _frontend(
        self, query: Union[str, ast.Statement]
    ) -> tuple[ast.Statement, str, frozenset[str], bool]:
        """Parse + fingerprint + dependency set, through the parse cache."""
        if not isinstance(query, str):
            return (
                query,
                statement_fingerprint(query),
                statement_tables(query),
                False,
            )
        cached = self._parse_cache.get(query)
        if cached is not None:
            return (*cached, True)
        statement = parse(query)
        fingerprint = statement_fingerprint(statement)
        tables = statement_tables(statement)
        self._parse_cache.put(query, (statement, fingerprint, tables))
        return statement, fingerprint, tables, False

    def _observe_schema_generation(self) -> int:
        """Notice access-schema changes made around ``register``/
        ``unregister`` (bound adjustments, direct catalog calls) and
        flush whatever they stale. Returns the current generation."""
        generation = self._beas.catalog.schema_generation
        if generation == self._schema_generation:
            return generation
        with self._admin_lock:
            if generation == self._schema_generation:
                return generation
            self._schema_generation = generation
            shards = dict(self._shards)
        # the decision cache is keyed by (fingerprint, generation) and the
        # result entries record their generation, so flushing here is a
        # memory measure, not a correctness one
        self._decision_cache.invalidate_all()
        # candidates are generation-stamped (the prober would skip them
        # anyway); clearing here keeps the index from holding references
        # to flushed entries across a bump
        self._subsume_index.clear()
        for shard in shards.values():
            shard.flush()
        with self._dep_lock:
            self._dep_index.clear()
        return generation

    def _decision(
        self,
        statement,  # an ast.Statement, or a zero-arg provider of one
        fingerprint: str,
        generation: int,
        rebind: Optional[_RebindRequest] = None,
    ) -> tuple["CoverageDecision", str]:
        """The budget-free coverage decision, through the decision cache.

        Returns ``(decision, provenance)`` with provenance ``"cached"``
        (exact per-binding hit), ``"rebound"`` (pinned plan patched for
        this binding — no BE Checker run), or ``"fresh"`` (full check).

        Exact entries are keyed by (binding fingerprint, access-schema
        generation): a decision pinned under an old schema can never be
        served after a change. Pinned rebind templates are keyed by
        (template fingerprint, arity signature, generation) — the values
        of a binding never enter that key, only its shape.
        """
        key = (fingerprint, generation)
        decision = self._decision_cache.get(key)
        if decision is not None:
            return decision, "cached"
        if rebind is not None:
            template_key = rebind.cache_key(generation)
            pinned = self._decision_cache.get(template_key)
            if isinstance(pinned, RebindTemplate):
                rebound = pinned.rebind(rebind.overrides)
                if rebound is not None:
                    # future executes of this exact binding hit directly
                    self._decision_cache.put(key, rebound)
                    with self._admin_lock:
                        self._rebinds += 1
                    return rebound, "rebound"
                with self._admin_lock:
                    self._rebind_fallbacks += 1
                # the pinned plan is being abandoned (merged-arity or
                # other guard): any subsumption candidate derived from
                # it carries stale plan provenance — stop offering them
                dropped = self._subsume_index.drop_template(
                    rebind.template_fingerprint
                )
                if dropped:
                    with self._admin_lock:
                        self._subsumption_invalidations += dropped
        if callable(statement):
            statement = statement()  # only the fresh path needs the AST
        decision = self._beas.check(statement)
        self._decision_cache.put(key, decision)
        if rebind is not None:
            template = build_rebind_template(decision, rebind.overrides)
            if template is not None:
                self._decision_cache.put(rebind.cache_key(generation), template)
        return decision, "fresh"

    @staticmethod
    def _with_budget(
        decision: "CoverageDecision", budget: Optional[int]
    ) -> "CoverageDecision":
        if budget is None or not decision.covered:
            return decision
        return replace(
            decision, within_budget=decision.access_bound <= budget
        )

    def _execute(
        self,
        statement: ast.Statement,
        fingerprint: str,
        tables: frozenset[str],
        *,
        budget: Optional[int],
        allow_partial: bool,
        approximate_over_budget: bool,
        use_result_cache: bool,
        parse_hit: bool,
        executor: Optional[str] = None,
        rebind: Optional[_RebindRequest] = None,
        result_reuse: str = "exact",
        routing: str = "static",
    ) -> BEASResult:
        if executor is not None:
            # fail on a bad per-query mode here, before any lock is taken
            # or the bounded pipeline is entered
            resolve_executor_mode(executor)
        validate_result_reuse(result_reuse)
        validate_routing(routing)
        # wall-clock anchor for the serve paths that never execute (result
        # cache, subsumption): their latency is what cost-aware admission
        # weighs re-execution against, so it must be real, not 0.0
        serve_start = time.perf_counter()
        with self._admin_lock:
            self._executions += 1
        hits = 1 if parse_hit else 0
        misses = 0 if parse_hit else 1

        lock_wait = self._schema_lock.acquire_read()
        try:
            shards = self._shards_for(tables)
            lock_wait += acquire_read_ordered(shards)
            try:
                # observed while holding the schema + shard read locks: a
                # completed register/unregister (schema write section) and
                # a completed adjust_bounds batch on any dependency table
                # (its shard write section) are both visible here, so a
                # decision or result pinned under the old schema can never
                # be consumed by this request
                generation = self._observe_schema_generation()
                return self._execute_locked(
                    statement,
                    fingerprint,
                    tables,
                    shards,
                    generation,
                    budget=budget,
                    allow_partial=allow_partial,
                    approximate_over_budget=approximate_over_budget,
                    use_result_cache=use_result_cache,
                    hits=hits,
                    misses=misses,
                    lock_wait=lock_wait,
                    executor=executor,
                    rebind=rebind,
                    result_reuse=result_reuse,
                    routing=routing,
                    serve_start=serve_start,
                )
            finally:
                release_read_ordered(shards)
        finally:
            self._schema_lock.release_read()

    def _execute_locked(
        self,
        statement: ast.Statement,
        fingerprint: str,
        tables: frozenset[str],
        shards: list[TableShard],
        generation: int,
        *,
        budget: Optional[int],
        allow_partial: bool,
        approximate_over_budget: bool,
        use_result_cache: bool,
        hits: int,
        misses: int,
        lock_wait: float,
        executor: Optional[str] = None,
        rebind: Optional[_RebindRequest] = None,
        result_reuse: str = "exact",
        routing: str = "static",
        serve_start: Optional[float] = None,
    ) -> BEASResult:
        if serve_start is None:
            serve_start = time.perf_counter()
        # the consistent table-version vector this request observes: read
        # under the shard read locks, so no dependency can move under us
        versions: dict[str, int] = {}
        database = self._beas.database
        for name in tables:
            if name in database:
                versions[name] = database.table(name).version
        for shard in shards:
            if shard.table in versions and shard.observe_version(
                versions[shard.table]
            ):
                # the table moved around the serving layer: sweep entries
                # homed here that depend on it (cross-homed dependents are
                # rejected by the per-hit freshness check below)
                moved = shard.table
                shard.invalidate_where(
                    lambda _key, entry: moved in entry.table_versions
                )

        home = self._home_shard(tables)
        result_key = (fingerprint, budget, allow_partial, approximate_over_budget)
        if use_result_cache:
            entry = home.lookup(result_key)
            if entry is not None and self._entry_fresh(
                entry, versions, generation
            ):
                serve_seconds = time.perf_counter() - serve_start
                self._router.note_lookup(serve_seconds)
                metrics = ExecutionMetrics(
                    rows_output=len(entry.rows),
                    seconds=serve_seconds,
                    served_from_cache=True,
                    cache_hits=hits + 1,
                    cache_misses=misses,
                    lock_wait_seconds=lock_wait,
                    table_versions=dict(versions),
                    decision_provenance="result-cache",
                )
                return BEASResult(
                    columns=list(entry.columns),
                    rows=list(entry.rows),
                    mode=entry.mode,
                    decision=entry.decision,
                    metrics=metrics,
                )
            if entry is not None:  # stale despite sweeps: drop defensively
                home.invalidate(result_key)
            misses += 1
            if result_reuse == "subsume":
                served = self._probe_subsumption(
                    statement,
                    fingerprint,
                    tables,
                    versions,
                    generation,
                    home,
                    result_key,
                    hits=hits,
                    misses=misses,
                    lock_wait=lock_wait,
                    serve_start=serve_start,
                )
                if served is not None:
                    return served

        decision, provenance = self._decision(
            statement, fingerprint, generation, rebind=rebind
        )
        decision_hit = provenance != "fresh"
        hits += 1 if decision_hit else 0
        misses += 0 if decision_hit else 1
        decision = self._with_budget(decision, budget)

        # learned routing: pick the execution mode for this covered
        # bounded plan from the per-template cost model. The choice is
        # made (and trained) per *template* fingerprint, so every
        # binding of one prepared query shares a model; answers are
        # mode-independent, so a wrong prediction costs latency only.
        route_choice = None
        features: Optional[tuple[float, ...]] = None
        template_fp = (
            rebind.template_fingerprint if rebind is not None else fingerprint
        )
        if (
            routing == "learned"
            and decision.covered
            and isinstance(decision.plan, BoundedPlan)
            and (budget is None or decision.within_budget)
        ):
            features = routing_features(
                decision.plan,
                # scoped to the locked dependency tables: never scans
                # (or races with) tables this request did not lock
                self._beas._host.statistics(tables=frozenset(tables)),
                rows_per_batch=self._beas._rows_per_batch,
                parallelism=self._beas.parallelism,
            )
            route_choice = self._router.route(template_fp, features)

        result = self._beas._execute_decided(
            statement,
            decision,
            budget=budget,
            allow_partial=allow_partial,
            approximate_over_budget=approximate_over_budget,
            executor=executor,
            route=route_choice.route if route_choice is not None else None,
        )
        result.metrics.cache_hits += hits
        result.metrics.cache_misses += misses
        result.metrics.lock_wait_seconds += lock_wait
        result.metrics.table_versions = dict(versions)
        result.metrics.decision_provenance = provenance
        if route_choice is not None and result.mode is ExecutionMode.BOUNDED:
            result.metrics.routed_mode = route_choice.route
            result.metrics.routing_explored = route_choice.explored
            self._router.observe(
                template_fp, route_choice.route, features, result.metrics
            )

        if (
            routing == "learned"
            and use_result_cache
            and result.mode is ExecutionMode.BOUNDED
            and not self._router.should_admit(result.metrics.seconds)
        ):
            # cost-aware admission: re-executing this answer is already
            # as cheap as a cache lookup, so keep it from displacing
            # entries whose re-execution is expensive
            use_result_cache = False

        if use_result_cache and result.mode is not ExecutionMode.APPROXIMATE:
            summary: Optional[QuerySummary] = None
            if result_reuse == "subsume" and result.mode is ExecutionMode.BOUNDED:
                # only a complete bounded answer is a sound subsumption
                # source (a PARTIAL answer's missing rows could be
                # exactly the tighter query's)
                candidate_summary = self._summary_of(statement, fingerprint)
                if candidate_summary.reusable:
                    summary = candidate_summary
            template_fp = (
                rebind.template_fingerprint if rebind is not None else None
            )
            admitted = home.admit(
                result_key,
                _CachedResult(
                    columns=list(result.columns),
                    rows=list(result.rows),
                    mode=result.mode,
                    decision=decision,
                    table_versions=dict(versions),
                    schema_generation=generation,
                    summary=summary,
                    template_fingerprint=template_fp,
                ),
            )
            if admitted:
                # registered while still holding every dependency's read
                # lock: a writer invalidating one of these tables cannot
                # run until we release, so it will see this entry
                self._register_dependents(result_key, tables, home.table)
                if summary is not None:
                    self._subsume_index.add(
                        Candidate(
                            shape_key=summary.shape_key,
                            result_key=result_key,
                            home=home.table,
                            generation=generation,
                            summary=summary,
                            template_fingerprint=template_fp,
                        )
                    )
        return result

    def _summary_of(
        self, statement: ast.Statement, fingerprint: str
    ) -> QuerySummary:
        """The statement's predicate-lattice summary, through the
        summary cache (a pure function of the statement, keyed by
        fingerprint — never flushed for freshness)."""
        summary = self._summary_cache.get(fingerprint)
        if summary is None:
            summary = summarize_statement(statement)
            self._summary_cache.put(fingerprint, summary)
        return summary

    def _probe_subsumption(
        self,
        statement: ast.Statement,
        fingerprint: str,
        tables: frozenset[str],
        versions: dict[str, int],
        generation: int,
        home: TableShard,
        result_key: tuple,
        *,
        hits: int,
        misses: int,
        lock_wait: float,
        serve_start: Optional[float] = None,
    ) -> Optional[BEASResult]:
        """Try to answer from a cached bounded superset after an exact
        result-cache miss. Returns the subsumed result, or ``None`` to
        fall through to a fresh decision + execution.

        Runs under the request's schema + dependency read locks, so the
        version-vector freshness check it applies to a candidate entry
        is made against the same consistent snapshot the fresh path
        would execute under. Candidates are only eligible when they were
        cached under the same (budget, allow_partial,
        approximate_over_budget) option triple — a subsumed answer must
        never out-run a budget refusal the fresh path would have issued.
        """
        summary = self._summary_of(statement, fingerprint)
        if not summary.reusable:
            with self._admin_lock:
                self._subsumption_rejects += 1
            return None
        candidates = self._subsume_index.candidates(summary.shape_key, summary)
        # a reject means the shape had indexed candidates (whether or
        # not the point-keyed lookup reached any) and none served
        indexed = bool(candidates) or self._subsume_index.has_shape(
            summary.shape_key
        )
        for candidate in candidates:
            if candidate.result_key == result_key:
                continue  # the exact lookup already missed on this key
            if candidate.result_key[1:] != result_key[1:]:
                continue  # different option triple: not comparable
            if candidate.generation != generation:
                self._subsume_index.discard(
                    summary.shape_key, candidate.result_key
                )
                continue
            shard = self._shards.get(candidate.home)
            entry = (
                shard.peek(candidate.result_key) if shard is not None else None
            )
            if entry is None:  # evicted/invalidated under the candidate
                self._subsume_index.discard(
                    summary.shape_key, candidate.result_key
                )
                continue
            if (
                entry.mode is not ExecutionMode.BOUNDED
                or entry.summary is None
                or not self._entry_fresh(entry, versions, generation)
            ):
                continue
            plan = subsumes(entry.summary, summary)
            if plan is None:
                continue
            rows = apply_refilter(plan, entry.columns, entry.rows)
            if rows is None:
                continue
            with self._admin_lock:
                self._subsumed_hits += 1
            serve_seconds = (
                time.perf_counter() - serve_start
                if serve_start is not None
                else 0.0
            )
            # a subsumed serve is lookup + refilter: exactly the cost
            # cost-aware admission weighs re-execution against
            self._router.note_lookup(serve_seconds)
            metrics = ExecutionMetrics(
                rows_output=len(rows),
                seconds=serve_seconds,
                served_from_cache=True,
                cache_hits=hits + 1,
                cache_misses=misses,
                lock_wait_seconds=lock_wait,
                table_versions=dict(versions),
                decision_provenance="subsumed",
            )
            # The re-filtered answer is NOT re-admitted under its own
            # key, nor indexed as a candidate: it is strictly narrower
            # than its source, so the source answers every repeat and
            # every further refinement at probe cost, while a private
            # copy would double-cache the same rows and (if indexed)
            # evict broader sources from the per-shape LRU. Only the
            # source's recency is refreshed.
            self._subsume_index.touch(
                candidate.shape_key, candidate.result_key
            )
            return BEASResult(
                columns=list(entry.columns),
                rows=rows,
                mode=entry.mode,
                decision=entry.decision,
                metrics=metrics,
            )
        if indexed:
            with self._admin_lock:
                self._subsumption_rejects += 1
        return None

    def _entry_fresh(
        self,
        entry: _CachedResult,
        versions: dict[str, int],
        generation: int,
    ) -> bool:
        """A hit is served only when the entry's recorded generations all
        equal the live ones observed under the current read locks."""
        if entry.schema_generation != generation:
            return False
        if entry.table_versions.keys() != versions.keys():
            return False
        return all(
            versions[name] == version
            for name, version in entry.table_versions.items()
        )

    def __repr__(self) -> str:
        mode = "sharded" if self._sharded else "global-lock"
        return (
            f"BEASServer({self._beas.database.name}: {mode}, "
            f"{len(self._prepared)} prepared, {self._executions} served)"
        )
