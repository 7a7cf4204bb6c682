"""Span recording for the traced run.

The shims wrap public entry points of each ``repro`` layer from outside
the package: installing them replaces a class or module attribute with a
wrapper that records a span around the original, and uninstalling puts
the original back. No ``src/`` file is touched, and the untraced run
never installs them, so it pays nothing.

A span is ``(name, start_ns, end_ns, span_id, parent_id, request_id)``
with ``time.perf_counter_ns`` timestamps. Spans are kept in memory and
written out when the run ends. A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

#: request roots: one per Session read or write the benchmark sends
ROOT = "request"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int  # 0 for a request root
    request_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans from any thread; each thread keeps its own stack of
    open spans, so a span's parent is the innermost span open on the
    thread that made the call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self):
        """A request root: every span opened inside shares its id."""
        span_id = next(self._ids)
        stack = self._stack()
        stack.append((span_id, span_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(ROOT, start, end, span_id, 0, span_id))

    def wrap(self, name: str, function):
        """``function`` recording a ``name`` span when called inside a
        request; outside one (set-up, oracle checks) it runs bare."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            if not stack:
                return function(*args, **kwargs)
            parent_id, request_id = stack[-1]
            span_id = next(self._ids)
            stack.append((span_id, request_id))
            start = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    Span(name, start, end, span_id, parent_id, request_id)
                )

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tspan_id\tparent_id\trequest_id\n")
            for s in self.spans:
                handle.write(
                    f"{s.name}\t{s.start_ns}\t{s.end_ns}\t{s.span_id}\t"
                    f"{s.parent_id}\t{s.request_id}\n"
                )


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time (ns) of every span: its duration minus the union of its
    children's intervals clipped to it."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id:
            children.setdefault(span.parent_id, []).append(span)
    result: dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start_ns):
            start = max(child.start_ns, cursor)
            end = min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration_ns - covered
    return result


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, int]]:
    """Per span name: (summed self time in ns, number of spans)."""
    own = self_times(spans)
    totals: dict[str, tuple[int, int]] = {}
    for span in spans:
        ns, count = totals.get(span.name, (0, 0))
        totals[span.name] = (ns + own[span.span_id], count + 1)
    return totals


def unattributed_share(spans: list[Span]) -> float:
    """Share of request time that no layer span covers."""
    own = self_times(spans)
    roots = [span for span in spans if span.name == ROOT]
    total = sum(span.duration_ns for span in roots)
    return sum(own[span.span_id] for span in roots) / total if total else 0.0


def _shim_targets():
    """(owner, attribute, span name) for each layer entry point."""
    from repro.access.index import AccessIndex
    from repro.beas.system import BEAS
    from repro.bounded.executor import BoundedPlanExecutor
    from repro.bounded.rebind import RebindTemplate
    from repro.distributed.fleet import ReplicaFleet
    from repro.engine.physical import ColumnarTailExecutor, PhysicalExecutor
    from repro.maintenance.incremental import MaintenanceManager
    from repro.serving import server
    from repro.storage.mmapstore import MappedAccessIndex
    from repro.storage.table import Table
    from repro.storage.wal import WriteAheadLog

    return (
        # the serving layer looks these names up in its own module
        (server, "parse", "sql.frontend"),
        (server, "statement_fingerprint", "sql.frontend"),
        (server, "subsumes", "bounded.subsume"),
        (server, "apply_refilter", "bounded.subsume"),
        (server.BEASServer, "execute", "serving"),
        (server.BEASServer, "execute_prepared", "serving"),
        (server.BEASServer, "insert", "serving.write"),
        (server.BEASServer, "delete", "serving.write"),
        (BEAS, "check", "bounded.checker"),
        (RebindTemplate, "rebind", "bounded.rebind"),
        (BoundedPlanExecutor, "execute", "bounded.execute"),
        (AccessIndex, "fetch", "access.fetch"),
        (MappedAccessIndex, "fetch", "access.fetch"),
        (PhysicalExecutor, "run", "engine.tail"),
        (ColumnarTailExecutor, "run", "engine.tail"),
        (ReplicaFleet, "execute_plan", "distributed.dispatch"),
        (MaintenanceManager, "insert", "maintenance.insert"),
        (MaintenanceManager, "delete", "maintenance.delete"),
        (Table, "delete_rows", "storage.table_delete"),
        (WriteAheadLog, "append", "storage.wal_append"),
    )


@contextmanager
def shims_installed(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block."""
    originals = []
    try:
        for owner, attribute, name in _shim_targets():
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
