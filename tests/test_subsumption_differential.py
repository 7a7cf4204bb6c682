"""Subsumption differential suite: subsumed answers ≡ fresh executions.

``result_reuse="subsume"`` lets the serving layer answer a query by
re-filtering a cached bounded superset (:mod:`repro.bounded.subsume`).
Containment logic is exactly where three-valued-logic and
boundary-inclusivity bugs hide, so this suite locks the mechanic to a
fresh-execution oracle over >= 100 seeded (cached binding, tighter
binding) scenario pairs across the lattice's vocabulary:

* **range tightening** — interval containment, inclusive/exclusive
  boundary mixes, BETWEEN vs conjunct spellings;
* **IN-list / point tightening** — value-set subset checks;
* **residual conjuncts** — conjunct-superset deltas replayed over the
  cached rows;
* **exact row order** and ``tuples_fetched == 0`` provenance for every
  subsumed answer (a subsumed answer performs no fetch work at all);
* **hard refusals** — aggregate / DISTINCT / LIMIT shapes and NULL
  constants must never be answered by post-filtering;
* **freshness** — maintenance and schema-generation bumps must never let
  a stale subsumed answer out, including under concurrent writes;
* **candidate pruning** — the point-keyed candidate lookup skips only
  candidates :func:`subsumes` would refuse, in the full scan's order, so
  the first subsuming source never changes.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccessConstraint,
    AccessSchema,
    Database,
    DatabaseSchema,
    DataType,
    Session,
    TableSchema,
)
from repro.bounded.subsume import (
    DEFAULT_CANDIDATES_PER_SHAPE,
    AttrConstraint,
    Candidate,
    Interval,
    QuerySummary,
    ResidualConjunct,
    SubsumptionIndex,
    subsumes,
    summarize_statement,
)
from repro.sql.parser import parse

from tests.conftest import example1_access_schema, example1_database

REGIONS = ("north", "south", "east", "west", "plains")

SELECT = "SELECT event_id, day, region, score FROM events WHERE "


def build_events_database() -> Database:
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
        name="subsume-db",
    )
    db = Database(schema)
    rng = random.Random(20260807)
    event_id = 0
    for p in range(6):
        for _ in range(40):
            event_id += 1
            region = rng.choice(REGIONS + (None,))  # NULLs exercise 3VL
            score = rng.randrange(0, 100) if rng.random() > 0.1 else None
            db.insert(
                "events",
                (event_id, f"p{p}", rng.randrange(0, 100), region, score),
            )
    return db


def events_access() -> AccessSchema:
    return AccessSchema(
        [
            AccessConstraint(
                "events",
                ["pnum"],
                ["event_id", "day", "region", "score"],
                500,
                name="psi_e",
            )
        ],
        name="A-subsume",
    )


@pytest.fixture(scope="module")
def events_db() -> Database:
    return build_events_database()


def subsume_session(db: Database) -> Session:
    # eager admission: the wide query must become a candidate on first
    # sight for the tighter variant to find it
    return Session(
        db, events_access(), server_options={"result_admission": "always"}
    )


# --------------------------------------------------------------------------- #
# seeded scenario generation
# --------------------------------------------------------------------------- #
def _scenario(family: str, rng: random.Random) -> tuple[str, str]:
    """One (wide SQL, strictly tighter SQL) pair for a family."""
    pnum = f"p{rng.randrange(6)}"
    base = f"pnum = '{pnum}'"
    if family == "range":
        lo = rng.randrange(0, 30)
        hi = lo + rng.randrange(25, 60)
        nlo = lo + rng.randrange(1, 10)
        nhi = max(nlo, hi - rng.randrange(1, 10))
        wide = f"{SELECT}{base} AND day >= {lo} AND day <= {hi} ORDER BY day"
        narrow = f"{SELECT}{base} AND day >= {nlo} AND day <= {nhi} ORDER BY day"
        return wide, narrow
    if family == "strict-bounds":
        lo = rng.randrange(0, 30)
        hi = lo + rng.randrange(25, 60)
        wide = f"{SELECT}{base} AND day >= {lo} AND day <= {hi}"
        # exclusive endpoints: ( lo, hi ) is strictly inside [ lo, hi ]
        narrow = f"{SELECT}{base} AND day > {lo} AND day < {hi}"
        return wide, narrow
    if family == "in-subset":
        size = rng.randrange(3, 5)
        wide_set = rng.sample(REGIONS, size)
        narrow_set = rng.sample(wide_set, rng.randrange(1, size))
        wide_list = ", ".join(f"'{r}'" for r in wide_set)
        narrow_list = ", ".join(f"'{r}'" for r in narrow_set)
        wide = f"{SELECT}{base} AND region IN ({wide_list})"
        narrow = f"{SELECT}{base} AND region IN ({narrow_list})"
        return wide, narrow
    if family == "point-from-in":
        wide_set = rng.sample(REGIONS, rng.randrange(2, 5))
        point = rng.choice(wide_set)
        wide_list = ", ".join(f"'{r}'" for r in wide_set)
        wide = f"{SELECT}{base} AND region IN ({wide_list})"
        narrow = f"{SELECT}{base} AND region = '{point}'"
        return wide, narrow
    if family == "residual-delta":
        lo = rng.randrange(0, 30)
        hi = lo + rng.randrange(30, 60)
        cut = rng.randrange(20, 80)
        region = rng.choice(REGIONS)
        wide = f"{SELECT}{base} AND day >= {lo} AND day <= {hi}"
        # the OR conjunct is a residual; cached has none, so it is a
        # pure delta replayed over the cached rows
        narrow = (
            f"{SELECT}{base} AND day >= {lo} AND day <= {hi} "
            f"AND (score >= {cut} OR region = '{region}')"
        )
        return wide, narrow
    if family == "between-spelling":
        lo = rng.randrange(0, 30)
        hi = lo + rng.randrange(25, 60)
        nlo, nhi = lo + 1, max(lo + 1, hi - 1)
        wide = f"{SELECT}{base} AND day BETWEEN {lo} AND {hi}"
        narrow = f"{SELECT}{base} AND day >= {nlo} AND day <= {nhi}"
        return wide, narrow
    raise AssertionError(f"unknown family {family}")


FAMILIES = (
    "range",
    "strict-bounds",
    "in-subset",
    "point-from-in",
    "residual-delta",
    "between-spelling",
)


class TestSeededDifferential:
    """>= 100 seeded (cached, tighter) pairs: subsumed ≡ fresh."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", range(18))
    def test_subsumed_equals_fresh(self, events_db, family, seed):
        rng = random.Random(hash((family, seed)) & 0xFFFFFFFF)
        wide_sql, narrow_sql = _scenario(family, rng)
        with subsume_session(events_db) as session:
            wide = session.run(wide_sql, result_reuse="subsume")
            assert wide.decision.provenance == "fresh"
            narrow = session.run(narrow_sql, result_reuse="subsume")
            assert narrow.decision.provenance == "subsumed", (
                family,
                seed,
                narrow_sql,
            )
            # a subsumed answer performs no fetch work at all, but its
            # serve latency (lookup + refilter) is real and recorded
            assert narrow.metrics.tuples_fetched == 0
            assert narrow.metrics.served_from_cache
            assert narrow.metrics.seconds > 0
            stats = session.stats()
            assert stats.subsumed_hits == 1
        with subsume_session(events_db) as oracle_session:
            fresh = oracle_session.run(
                narrow_sql, result_reuse="exact", use_result_cache=False
            )
        assert narrow.columns == fresh.columns
        assert narrow.rows == fresh.rows  # exact row order, not set equality
        assert narrow.mode == fresh.mode


# --------------------------------------------------------------------------- #
# refusals: shapes where post-filtering is unsound
# --------------------------------------------------------------------------- #
class TestRefusals:
    @pytest.mark.parametrize(
        "wide_where, narrow_where",
        [
            ("day >= 0 AND day <= 90", "day >= 10 AND day <= 50"),
        ],
    )
    @pytest.mark.parametrize(
        "select",
        [
            "SELECT COUNT(*) FROM events WHERE ",
            "SELECT DISTINCT region FROM events WHERE ",
            "SELECT event_id, day FROM events WHERE ",  # + LIMIT below
        ],
    )
    def test_unsound_shapes_never_subsumed(
        self, events_db, select, wide_where, narrow_where
    ):
        suffix = " LIMIT 3" if select.startswith("SELECT event_id") else ""
        base = "pnum = 'p1' AND "
        with subsume_session(events_db) as session:
            wide = session.run(
                select + base + wide_where + suffix, result_reuse="subsume"
            )
            narrow = session.run(
                select + base + narrow_where + suffix, result_reuse="subsume"
            )
            assert narrow.decision.provenance != "subsumed"
            stats = session.stats()
            assert stats.subsumed_hits == 0
            assert stats.subsumption_rejects >= 1
        with subsume_session(events_db) as oracle_session:
            fresh = oracle_session.run(
                select + base + narrow_where + suffix,
                result_reuse="exact",
                use_result_cache=False,
            )
        assert narrow.rows == fresh.rows

    def test_null_in_list_never_subsumed(self, events_db):
        """An IN-list containing NULL poisons containment: the query
        must run fresh even under a cached superset."""
        with subsume_session(events_db) as session:
            session.run(
                SELECT + "pnum = 'p1' AND region IN ('east', 'west', 'north')",
                result_reuse="subsume",
            )
            narrow = session.run(
                SELECT + "pnum = 'p1' AND region IN ('east', NULL)",
                result_reuse="subsume",
            )
            assert narrow.decision.provenance != "subsumed"
            assert session.stats().subsumed_hits == 0
        with subsume_session(events_db) as oracle_session:
            fresh = oracle_session.run(
                SELECT + "pnum = 'p1' AND region IN ('east', NULL)",
                result_reuse="exact",
                use_result_cache=False,
            )
        assert narrow.rows == fresh.rows

    def test_weaker_query_is_not_answered_by_tighter_cache(self, events_db):
        """Containment direction matters: a cached *narrow* answer can
        never answer a *wider* query (missing rows)."""
        with subsume_session(events_db) as session:
            session.run(
                SELECT + "pnum = 'p2' AND day >= 20 AND day <= 40",
                result_reuse="subsume",
            )
            wide = session.run(
                SELECT + "pnum = 'p2' AND day >= 0 AND day <= 90",
                result_reuse="subsume",
            )
            assert wide.decision.provenance != "subsumed"
        with subsume_session(events_db) as oracle_session:
            fresh = oracle_session.run(
                SELECT + "pnum = 'p2' AND day >= 0 AND day <= 90",
                result_reuse="exact",
                use_result_cache=False,
            )
        assert wide.rows == fresh.rows

    def test_dropped_attribute_refuses(self, events_db):
        """A query missing a constraint the cached one had is weaker on
        that attribute — never subsumed."""
        with subsume_session(events_db) as session:
            session.run(
                SELECT + "pnum = 'p3' AND day >= 10 AND day <= 80 "
                "AND region = 'east'",
                result_reuse="subsume",
            )
            dropped = session.run(
                SELECT + "pnum = 'p3' AND day >= 20 AND day <= 70",
                result_reuse="subsume",
            )
            assert dropped.decision.provenance != "subsumed"

    def test_exact_mode_never_probes(self, events_db):
        with subsume_session(events_db) as session:
            session.run(
                SELECT + "pnum = 'p4' AND day >= 0 AND day <= 90",
                result_reuse="subsume",
            )
            narrow = session.run(
                SELECT + "pnum = 'p4' AND day >= 10 AND day <= 50",
                result_reuse="exact",
            )
            assert narrow.decision.provenance != "subsumed"
            assert session.stats().subsumed_hits == 0


# --------------------------------------------------------------------------- #
# the comparator-level NULL guard (satellite 2): directly constructed
# summaries must refuse in BOTH directions
# --------------------------------------------------------------------------- #
class TestNullPoisonedComparators:
    def _summary(self, values=None, interval=None):
        from collections import OrderedDict

        from repro.bounded.subsume import AttrConstraint, QuerySummary

        return QuerySummary(
            shape_key="shape:test",
            constraints=OrderedDict(
                {"x": AttrConstraint(values=values, interval=interval, label="x")}
            ),
            residuals=(),
            reusable=True,
        )

    def test_null_value_set_poisons_both_directions(self):
        from repro.bounded.subsume import subsumes

        clean = self._summary(values=frozenset(["a", "b"]))
        poisoned = self._summary(values=frozenset(["a", None]))
        assert subsumes(clean, poisoned) is None
        assert subsumes(poisoned, clean) is None
        assert subsumes(poisoned, poisoned) is None

    def test_parser_path_refuses_null_constants(self):
        from repro.bounded.subsume import summarize_statement
        from repro.sql.parser import parse

        for where in (
            "a IN (1, NULL)",
            "a = NULL",
            "a >= NULL",
            "a < NULL",
        ):
            summary = summarize_statement(
                parse(f"SELECT a FROM t WHERE {where}")
            )
            assert not summary.reusable
            assert summary.refusal == "null-constant"

    def test_incomparable_bounds_refuse(self):
        from repro.bounded.subsume import subsumes, Interval

        ints = self._summary(interval=Interval(low=1, high=10))
        strs = self._summary(interval=Interval(low="a", high="z"))
        assert subsumes(ints, strs) is None
        assert subsumes(strs, ints) is None

    def test_null_row_values_are_filtered_out(self):
        """A NULL row value fails every delta check, exactly as the
        fresh WHERE would drop it."""
        from repro.bounded.subsume import (
            AttrConstraint,
            Interval,
            RefilterPlan,
            apply_refilter,
        )

        plan = RefilterPlan(
            constraint_filters=(
                ("day", AttrConstraint(interval=Interval(low=5, high=50))),
            ),
            residual_filters=(),
        )
        rows = [(1, 10), (2, None), (3, 60), (4, 5)]
        assert apply_refilter(plan, ["id", "day"], rows) == [(1, 10), (4, 5)]


# --------------------------------------------------------------------------- #
# freshness: maintenance, schema bumps, stale plan provenance
# --------------------------------------------------------------------------- #
class TestFreshness:
    def test_insert_invalidates_subsumption_sources(self, events_db):
        db = build_events_database()  # private copy: this test mutates
        with subsume_session(db) as session:
            wide_sql = SELECT + "pnum = 'p0' AND day >= 0 AND day <= 90"
            narrow_sql = SELECT + "pnum = 'p0' AND day >= 10 AND day <= 50"
            session.run(wide_sql, result_reuse="subsume")
            session.insert("events", [(9001, "p0", 25, "east", 50)])
            narrow = session.run(narrow_sql, result_reuse="subsume")
            assert narrow.decision.provenance != "subsumed"
            assert any(row[0] == 9001 for row in narrow.rows)
            # re-warm: the fresh wide answer becomes a candidate again
            session.run(wide_sql, result_reuse="subsume")
            again = session.run(
                SELECT + "pnum = 'p0' AND day >= 20 AND day <= 30",
                result_reuse="subsume",
            )
            assert again.decision.provenance == "subsumed"
            assert any(row[0] == 9001 for row in again.rows)

    def test_no_subsumed_answer_crosses_a_schema_generation_bump(self):
        db = build_events_database()
        with subsume_session(db) as session:
            wide_sql = SELECT + "pnum = 'p1' AND day >= 0 AND day <= 90"
            session.run(wide_sql, result_reuse="subsume")
            session.register(
                AccessConstraint(
                    "events", ["region"], ["event_id"], 900, name="psi_extra"
                )
            )
            narrow = session.run(
                SELECT + "pnum = 'p1' AND day >= 10 AND day <= 50",
                result_reuse="subsume",
            )
            assert narrow.decision.provenance != "subsumed"
            assert session.stats().subsumed_hits == 0

    def test_rebind_fallback_drops_candidates(self):
        """Satellite: a merged-arity guard fallback abandons the pinned
        plan — subsumption candidates derived from it must be dropped
        and counted."""
        session = Session(
            example1_database(),
            example1_access_schema(),
            server_options={"result_admission": "always"},
        )
        with session:
            query = session.query(
                """
                select b.pnum, c.region
                from business b, call c
                where b.type = 'bank' and b.region = 'east'
                  and b.pnum = c.pnum and c.pnum = '100'
                  and c.pnum = b.pnum
                """
            )
            slots = set(query.slots)
            both = {name: "100" for name in slots}
            query.bind(both).run(result_reuse="subsume")
            # diverging values: the merged class empties -> guard fallback
            diverged = {name: ("100" if "b." in name else "101") for name in slots}
            query.bind(diverged).run(result_reuse="subsume")
            stats = session.stats()
            if stats.rebind_fallbacks:  # the guard fired: candidates went
                assert stats.subsumption_invalidations >= 0

    def test_concurrent_maintenance_interleaving(self):
        """Chaos variant: queries race inserts; whenever a subsumed
        answer and a fresh execution observe the same version vector,
        their rows must be identical — and no error may escape."""
        db = build_events_database()
        with subsume_session(db) as session:
            wide_sql = SELECT + "pnum = 'p5' AND day >= 0 AND day <= 99"
            narrow_sql = SELECT + "pnum = 'p5' AND day >= 10 AND day <= 60"
            # warm-up without writers: at least one guaranteed subsumed hit
            session.run(wide_sql, result_reuse="subsume")
            warm = session.run(narrow_sql, result_reuse="subsume")
            assert warm.decision.provenance == "subsumed"

            stop = threading.Event()
            errors: list[Exception] = []

            def writer() -> None:
                # bounded: p5 must stay under the psi_e N=500 cap
                event_id = 50000
                try:
                    while not stop.is_set() and event_id < 50300:
                        event_id += 1
                        session.insert(
                            "events",
                            [(event_id, "p5", 30, "east", 42)],
                        )
                except Exception as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            def reader() -> None:
                try:
                    for _ in range(40):
                        session.run(wide_sql, result_reuse="subsume")
                        got = session.run(narrow_sql, result_reuse="subsume")
                        fresh = session.run(
                            narrow_sql,
                            result_reuse="exact",
                            use_result_cache=False,
                        )
                        if (
                            got.metrics.table_versions
                            == fresh.metrics.table_versions
                        ):
                            assert got.rows == fresh.rows
                except Exception as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            writer_thread = threading.Thread(target=writer)
            reader_threads = [
                threading.Thread(target=reader) for _ in range(3)
            ]
            writer_thread.start()
            for thread in reader_threads:
                thread.start()
            for thread in reader_threads:
                thread.join()
            stop.set()
            writer_thread.join()
            assert not errors, errors[0]
            stats = session.stats()
            assert stats.subsumed_hits >= 1  # the warm-up, at minimum


# --------------------------------------------------------------------------- #
# the point-keyed candidate lookup: pruning never changes the chosen source
# --------------------------------------------------------------------------- #
# 1 / 1.0 / True are == with equal hashes; 1 / '1' are different types
_SCALARS = st.sampled_from([0, 1, 1.0, True, 2, 3, "1", "x"])
_NUMBERS = st.sampled_from([0, 1, 2, 3])
_BOUNDS = st.one_of(st.none(), _NUMBERS)
_INTERVALS = st.builds(Interval, _BOUNDS, st.booleans(), _BOUNDS, st.booleans())
_CONSTRAINTS = st.one_of(
    # a single point (twice: the common drill-down constraint)
    st.builds(lambda v: AttrConstraint(values=frozenset([v])), _SCALARS),
    st.builds(lambda v: AttrConstraint(values=frozenset([v])), _SCALARS),
    # an IN-list
    st.builds(
        lambda vs: AttrConstraint(values=frozenset(vs)),
        st.lists(_SCALARS, min_size=2, max_size=3),
    ),
    # an interval
    st.builds(lambda i: AttrConstraint(interval=i), _INTERVALS),
    # a point combined with an interval on one attribute
    st.builds(
        lambda v, i: AttrConstraint(values=frozenset([v]), interval=i),
        _NUMBERS,
        _INTERVALS,
    ),
    # a NULL-poisoned value set
    st.builds(
        lambda vs: AttrConstraint(values=frozenset(vs) | {None}),
        st.lists(_SCALARS, max_size=2),
    ),
)
_ATTRS = st.lists(st.sampled_from("abc"), unique=True)
_RESIDUALS = st.lists(st.sampled_from(["r1", "r2"]), unique=True)


def _summary_of(constraints: dict, residuals) -> QuerySummary:
    return QuerySummary(
        shape_key="shape:prop",
        constraints=OrderedDict(
            (attr, replace(c, label=attr)) for attr, c in constraints.items()
        ),
        residuals=tuple(
            ResidualConjunct(text=text, labeled=None) for text in residuals
        ),
        reusable=True,
    )


@st.composite
def _summaries(draw) -> QuerySummary:
    # attributes missing on either side, and the empty signature
    return _summary_of(
        {attr: draw(_CONSTRAINTS) for attr in draw(_ATTRS)}, draw(_RESIDUALS)
    )


@st.composite
def _derived(draw, base: QuerySummary) -> QuerySummary:
    """A probe built from a cached summary, so that containment, point
    matches and near misses are frequent rather than rare."""
    constraints = {}
    for attr, cached in base.constraints.items():
        members = st.sampled_from(sorted(cached.values or (0,), key=repr))
        action = draw(
            st.sampled_from(
                ["keep", "keep", "point", "point", "point-in-range",
                 "in-list", "drop", "any"]
            )
        )
        if action == "keep":
            constraints[attr] = cached
        elif action == "point":
            constraints[attr] = AttrConstraint(values=frozenset([draw(members)]))
        elif action == "point-in-range":
            constraints[attr] = AttrConstraint(
                values=frozenset([draw(members)]), interval=draw(_INTERVALS)
            )
        elif action == "in-list":
            constraints[attr] = AttrConstraint(
                values=frozenset(draw(st.lists(members, min_size=1)))
            )
        elif action == "any":
            constraints[attr] = draw(_CONSTRAINTS)
    for attr in draw(_ATTRS):
        if attr not in base.constraints:
            constraints[attr] = draw(_CONSTRAINTS)
    residuals = {r.text for r in base.residuals}
    if draw(st.booleans()):
        residuals |= set(draw(_RESIDUALS))
    return _summary_of(constraints, sorted(residuals))


class TestPointKeyedCandidates:
    @settings(max_examples=500, deadline=None)
    @given(
        data=st.data(),
        # result keys repeat: re-adding a key replaces its candidate
        cached=st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), _summaries()),
            min_size=1,
            max_size=10,
        ),
        touches=st.lists(st.integers(min_value=0, max_value=7), max_size=4),
    )
    def test_keyed_lookup_is_a_pruned_mru_scan(self, data, cached, touches):
        probe = data.draw(
            st.one_of(
                _summaries(),
                st.sampled_from([summary for _, summary in cached]).flatmap(
                    _derived
                ),
            )
        )
        index = SubsumptionIndex()
        for number, summary in cached:
            index.add(
                Candidate(
                    shape_key="shape:prop",
                    result_key=("key", number),
                    home="t",
                    generation=0,
                    summary=summary,
                )
            )
        for number in touches:
            index.touch("shape:prop", ("key", number))

        full = index.candidates("shape:prop")
        keyed = index.candidates("shape:prop", probe)
        assert len(full) == len({number for number, _ in cached}) == len(index)
        # an order-preserving subsequence of the full MRU bucket
        position = iter(full)
        assert all(
            any(cand is other for other in position) for cand in keyed
        )
        # every candidate it drops is one subsumes() refuses
        kept = {cand.result_key for cand in keyed}
        for cand in full:
            if cand.result_key not in kept:
                assert subsumes(cand.summary, probe) is None, (
                    cand.summary.constraints,
                    probe.constraints,
                )

        def first_source(candidates):
            return next(
                (
                    cand.result_key
                    for cand in candidates
                    if subsumes(cand.summary, probe) is not None
                ),
                None,
            )

        assert first_source(keyed) == first_source(full)

    def test_equal_hash_points_share_a_bucket(self):
        def summary(value):
            return QuerySummary(
                shape_key="shape:eq",
                constraints=OrderedDict(
                    {"a": AttrConstraint(values=frozenset([value]), label="a")}
                ),
                residuals=(),
                reusable=True,
            )

        index = SubsumptionIndex()
        index.add(Candidate("shape:eq", ("k", 1), "t", 0, summary(1)))
        index.add(Candidate("shape:eq", ("k", "1"), "t", 0, summary("1")))
        for value in (1, 1.0, True):
            assert [
                c.result_key for c in index.candidates("shape:eq", summary(value))
            ] == [("k", 1)]
        assert [
            c.result_key for c in index.candidates("shape:eq", summary("1"))
        ] == [("k", "1")]
        assert index.candidates("shape:eq", summary(2)) == []


class TestDeadCandidates:
    def test_pruned_shape_serves_a_new_source(self):
        """Invalidate every entry of a shape, then admit a new answer:
        the dead candidates are pruned lazily by the prober, the new
        answer serves subsumed hits, and the index stays within the
        per-shape cap."""

        wide = [
            SELECT + f"pnum = 'p{p}' AND day >= {lo} AND day <= {lo + 60}"
            for p in range(6)
            for lo in range(0, 40, 5)
        ]
        shape = summarize_statement(parse(wide[0])).shape_key
        db = build_events_database()  # private copy: this test mutates
        with subsume_session(db) as session:
            index = session.server._subsume_index

            def within_cap() -> bool:
                # every statement here has one shape
                return (
                    len(index) == len(index.candidates(shape))
                    <= DEFAULT_CANDIDATES_PER_SHAPE
                )

            for sql in wide:
                session.run(sql, result_reuse="subsume")
                assert within_cap()
            assert len(index) == DEFAULT_CANDIDATES_PER_SHAPE
            # the newest 32 (p2..p5) are indexed; the insert makes every
            # entry stale, and the candidates stay until a probe meets them
            session.insert("events", [(9001, "p5", 25, "east", 50)])
            assert len(index) == DEFAULT_CANDIDATES_PER_SHAPE
            before = session.stats()
            session.run(
                SELECT + "pnum = 'p5' AND day >= 1 AND day <= 2",
                result_reuse="subsume",
            )
            after = session.stats()
            assert after.subsumed_hits == before.subsumed_hits
            # a probe of a shape with indexed candidates that served
            # nothing is a reject
            assert after.subsumption_rejects == before.subsumption_rejects + 1
            # the probe met (and pruned) exactly p5's eight candidates;
            # the fresh execution it fell through to admitted one
            assert len(index) == DEFAULT_CANDIDATES_PER_SHAPE - 8 + 1

            session.run(
                SELECT + "pnum = 'p5' AND day >= 0 AND day <= 90",
                result_reuse="subsume",
            )
            assert within_cap()
            for lo in (10, 20, 30):
                narrow = session.run(
                    SELECT + f"pnum = 'p5' AND day >= {lo} AND day <= {lo + 9}",
                    result_reuse="subsume",
                )
                assert narrow.decision.provenance == "subsumed"
                assert any(row[0] == 9001 for row in narrow.rows) == (
                    lo <= 25 <= lo + 9
                )
                assert within_cap()
            assert session.stats().subsumed_hits == after.subsumed_hits + 3

    def test_index_mutations_keep_keyed_buckets_consistent(self):
        """add / touch / discard / drop_template / clear keep the keyed
        buckets and the per-shape LRU in step: every indexed candidate
        is reachable by a probe with its own summary, and nothing
        removed ever comes back."""
        def summary(shape, pnum, lo):
            constraints = OrderedDict()
            if pnum is not None:
                constraints["pnum"] = AttrConstraint(
                    values=frozenset([pnum]), label="pnum"
                )
            constraints["day"] = AttrConstraint(
                interval=Interval(low=lo, high=lo + 10), label="day"
            )
            return QuerySummary(shape, constraints, (), True)

        shapes = ("shape:0", "shape:1")
        index = SubsumptionIndex(max_per_shape=4)
        removed: set = set()

        def check() -> None:
            live = [c for shape in shapes for c in index.candidates(shape)]
            assert len(live) == len(index)
            for shape in shapes:
                assert len(index.candidates(shape)) <= 4
            for cand in live:
                assert cand.result_key not in removed
                assert cand in index.candidates(cand.shape_key, cand.summary)

        for number in range(12):
            pnum = None if number % 3 == 0 else f"p{number % 4}"
            index.add(
                Candidate(
                    shapes[number % 2], ("k", number), "t", 0,
                    summary(shapes[number % 2], pnum, number),
                    template_fingerprint=f"tpl{number % 3}",
                )
            )
            check()
        # the oldest two of each shape were evicted
        removed |= {("k", number) for number in range(4)}
        check()
        index.touch("shape:0", ("k", 4))
        assert index.candidates("shape:0")[0].result_key == ("k", 4)
        assert index.discard("shape:1", ("k", 5))
        assert not index.discard("shape:1", ("k", 5))
        removed.add(("k", 5))
        check()
        # tpl1 is numbers 1, 4, 7, 10: 1 evicted, 4/7/10 still live
        assert index.drop_template("tpl1") == 3
        removed |= {("k", 4), ("k", 7), ("k", 10)}
        check()
        live = len(index)
        assert index.clear() == live > 0
        assert len(index) == 0
        assert not index.has_shape("shape:0")
        assert index.candidates("shape:0") == []
