"""Self-tests of the benchmark's own checks.

Run from the repository root: ``python3 perfbench/selftest.py``.

They show that the oracle counts a wrong answer (and a read claiming a
table version no write produced), that a bounded answer that is right
only as a set is not reported wrong, and that span self time is a
span's duration minus what its children cover.
"""

from __future__ import annotations

import dataclasses
import unittest

import run  # clears BEAS_* and puts the repository's src on sys.path
import spans
import workloads
from oracle import Sample, answers_match
from repro.workloads.tlc.generator import generate_tlc

SCALE = 1


def _span(name, start, end, span_id, parent_id, request_id=1):
    return spans.Span(name, start, end, span_id, parent_id, request_id)


class SelfTimeTest(unittest.TestCase):
    def test_nested_fake(self):
        # request [0,100] > serving [10,60] > fetch [15,25], fetch [30,40];
        # request > write [70,90]
        fake = [
            _span(spans.ROOT, 0, 100, 1, 0),
            _span("serving", 10, 60, 2, 1),
            _span("fetch", 15, 25, 3, 2),
            _span("fetch", 30, 40, 4, 2),
            _span("write", 70, 90, 5, 1),
        ]
        own = spans.self_times(fake)
        self.assertEqual(own, {1: 30, 2: 30, 3: 10, 4: 10, 5: 20})
        self.assertEqual(sum(own.values()), 100)  # self times partition the root
        totals = spans.layer_totals(fake)
        self.assertEqual(totals["fetch"], (20, 2))
        self.assertAlmostEqual(spans.unattributed_share(fake), 0.3)

    def test_child_outside_parent_is_clipped(self):
        fake = [_span(spans.ROOT, 0, 10, 1, 0), _span("late", 5, 20, 2, 1)]
        self.assertEqual(spans.self_times(fake)[1], 5)

    def test_tracer_nests_wrapped_calls(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())
        outer()  # outside a request: no span
        self.assertEqual(tracer.spans, [])
        with tracer.request():
            outer()
        by_name = {span.name: span for span in tracer.spans}
        root = by_name[spans.ROOT]
        self.assertEqual(by_name["outer"].parent_id, root.span_id)
        self.assertEqual(by_name["inner"].parent_id, by_name["outer"].span_id)
        self.assertEqual({span.request_id for span in tracer.spans}, {root.span_id})


class OracleTest(unittest.TestCase):
    """The same phase and check path the benchmark runs, on a small
    TLC instance."""

    @classmethod
    def setUpClass(cls):
        cls.dataset = generate_tlc(SCALE, seed=7)

    def _phase(self, name: str, seconds: float):
        workload = workloads.build(name, self.dataset, 7, seconds, samples=40)
        session, queries, store = run.open_session(workload, self.dataset)
        try:
            return run.run_phase(session, queries, workload, self.dataset)
        finally:
            run.close_session(session, store)

    def test_correct_answers_pass_and_a_corrupted_one_is_counted(self):
        phase = self._phase("read-write", 0.1)
        self.assertTrue(phase.log, "the writer wrote nothing")
        self.assertEqual(run.check(phase), [])
        victim = next(s for s in phase.samples if s.rows)
        index = phase.samples.index(victim)
        phase.samples[index] = dataclasses.replace(victim, rows=victim.rows[1:])
        self.assertEqual(len(run.check(phase)), 1)

    def test_unknown_version_is_counted(self):
        phase = self._phase("read-write", 0.1)
        victim = next(s for s in phase.samples if s.call_version >= 0)
        index = phase.samples.index(victim)
        phase.samples[index] = dataclasses.replace(victim, call_version=victim.call_version + 10**6)
        self.assertEqual(len(run.check(phase)), 1)

    def test_set_semantics_for_plans_that_are_not_bag_exact(self):
        # Q1 at the template constants: the conventional engine repeats
        # a region once per matching call, the bounded plan returns it once
        q1 = workloads.Read("Q1").oracle_sql(self.dataset.params)
        session = run.Session(self.dataset.database, run.tlc_access_schema())
        try:
            result = session.query(q1).run()
        finally:
            session.close()
        self.assertFalse(result.decision.bag_exact)
        sample = Sample(q1, tuple(result.rows), bag_exact=False, call_version=-1)
        oracle = run.Oracle(self.dataset.database)
        self.assertEqual(oracle.check([sample], [], 0), [])
        as_bag = dataclasses.replace(sample, bag_exact=True)
        self.assertEqual(len(oracle.check([as_bag], [], 0)), 1)
        self.assertFalse(answers_match([("east",)], [("east",)] * 3, bag_exact=True))


if __name__ == "__main__":
    unittest.main()
