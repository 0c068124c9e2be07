"""One record per query: the span tree, the resource counters and the shards.

A :class:`QueryRecord` covers one read request.  The service opens it on
the request thread (:func:`start_record`) and folds it into its metrics
registry once, when the request ends; the slow-query log and ``EXPLAIN`` /
``EXPLAIN ANALYZE`` are views of the same record.  It answers *where time
went* (spans: parse, prepare, candidate generation, matching, algebra
operators, scatter/gather) and *why* (counters: candidates generated and
pruned, intersections, index probes, rows per plan operator).

Instrumentation points anywhere below the service (engine, matchers,
cluster, algebra evaluator) reach the active record through one thread
local.  Without an active record — engine calls made outside a service —
:func:`span` returns a shared no-op and :func:`timed_iter` streams
straight through, so permanently instrumented code costs one thread-local
read per instrumentation point.  The matchers' hot loops do not even pay
that: they look the record up once per match call, tally counters in a
local dict and write the tally with one :meth:`QueryRecord.add` at the end.

The cluster scatter stage matches each shard under its *own* nested
record and turns it into a :class:`ShardRecord` — the shard's seconds and
counter dict — which the gather loop folds in with
:meth:`QueryRecord.absorb`: the shard becomes a ``cluster.scatter.shard``
span and, for every counter any shard reports, the request total is the
exact sum of the per-shard sub-records.

When the query's deadline fires, the innermost span that was open — a
stage or an algebra operator — is kept as :attr:`QueryRecord.timed_out_in`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator, Mapping

from ..errors import QueryTimeout

__all__ = [
    "QueryRecord",
    "ShardRecord",
    "SpanRecord",
    "current_record",
    "iter_spans",
    "span",
    "start_record",
    "timed_iter",
]

_LOCAL = threading.local()

#: Name of the span each absorbed shard becomes.
SHARD_SPAN = "cluster.scatter.shard"

#: Prefix of the per-plan-operator row counters (``op.<node_id>.rows``).
OP_PREFIX = "op."


class SpanRecord:
    """One finished (or in-flight) span: name, duration, attributes, children."""

    __slots__ = ("name", "seconds", "attributes", "children")

    def __init__(self, name: str, attributes: dict | None = None):
        self.name = name
        self.seconds = 0.0
        self.attributes = attributes if attributes is not None else {}
        self.children: list[SpanRecord] = []

    def as_dict(self) -> dict:
        """JSON-ready form (the ``trace`` of ``EXPLAIN``)."""
        out: dict = {"name": self.name, "seconds": round(self.seconds, 6)}
        if self.attributes:
            out.update(self.attributes)
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out

    def __repr__(self) -> str:
        return f"SpanRecord({self.name!r}, {self.seconds:.6f}s, children={len(self.children)})"


@dataclass
class ShardRecord:
    """One shard's share of a query: the seconds and counters of its match."""

    shard: int
    seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)


class _NoopSpan:
    """The shared do-nothing span returned when no record is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **attributes: object) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager for one live span on the active record."""

    __slots__ = ("_record", "span", "_start")

    def __init__(self, record: "QueryRecord", span: SpanRecord):
        self._record = record
        self.span = span
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.span.seconds = perf_counter() - self._start
        if exc_type is not None and issubclass(exc_type, QueryTimeout):
            self._record.timed_out(self.span.name)
        self._record._finish(self.span)
        return False

    def annotate(self, **attributes: object) -> "_ActiveSpan":
        self.span.attributes.update(attributes)
        return self


class QueryRecord:
    """The span tree, counters and per-shard sub-records of one query.

    ``counters`` maps dotted counter names to integer totals.  ``shards``
    maps a shard id to that shard's own counter dict; :meth:`absorb` keeps
    ``counters[name] == sum(sub[name] for sub in shards.values())`` for
    every counter appearing in any shard.
    """

    __slots__ = ("root", "counters", "shards", "timed_out_in", "_stack")

    def __init__(self, name: str = "query"):
        self.root = SpanRecord(name)
        self.counters: dict[str, int] = {}
        self.shards: dict[int, dict[str, int]] = {}
        #: Innermost span open when the deadline fired (None: no timeout).
        self.timed_out_in: str | None = None
        self._stack: list[SpanRecord] = [self.root]

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def start(self, name: str, attributes: dict | None = None) -> _ActiveSpan:
        record = SpanRecord(name, attributes)
        self._stack[-1].children.append(record)
        self._stack.append(record)
        return _ActiveSpan(self, record)

    def _finish(self, record: SpanRecord) -> None:
        # Pop back to (and past) the finished span; tolerates a child left
        # open by an abandoned generator so the stack never corrupts.
        while len(self._stack) > 1:
            if self._stack.pop() is record:
                break

    def attach(self, name: str, seconds: float, **attributes: object) -> None:
        """Attach an already-measured span under the innermost open span."""
        record = SpanRecord(name, attributes)
        record.seconds = seconds
        self._stack[-1].children.append(record)

    def annotate(self, **attributes: object) -> None:
        """Merge attributes into the innermost open span."""
        self._stack[-1].attributes.update(attributes)

    def timed_out(self, name: str) -> None:
        """Note where the deadline fired; the innermost span reports first."""
        if self.timed_out_in is None:
            self.timed_out_in = name

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #
    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def add(self, tally: Mapping[str, int]) -> None:
        """Add every counter of ``tally`` (a hot loop's local tally)."""
        counters = self.counters
        for name, amount in tally.items():
            counters[name] = counters.get(name, 0) + amount

    def absorb(self, shard: ShardRecord, **attributes: object) -> None:
        """Fold one shard's share in: a shard span plus its counters.

        A shard matched more than once (the scatter loop re-visits shards
        per star) accumulates into the same sub-record.
        """
        self.attach(SHARD_SPAN, shard.seconds, shard=shard.shard, **attributes)
        if shard.counters:
            sub = self.shards.setdefault(shard.shard, {})
            for name, amount in shard.counters.items():
                sub[name] = sub.get(name, 0) + amount
            self.add(shard.counters)

    def as_shard(self, shard: int) -> ShardRecord:
        """This (shard-side) record as the plain data the request absorbs."""
        return ShardRecord(shard, self.root.seconds, self.counters)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def operator_rows(self) -> dict[int, int]:
        """Map plan-node id -> rows produced, from ``op.<id>.rows`` counters."""
        rows: dict[int, int] = {}
        for name, value in self.counters.items():
            if name.startswith(OP_PREFIX) and name.endswith(".rows"):
                middle = name[len(OP_PREFIX) : -len(".rows")]
                if middle.isdigit():
                    rows[int(middle)] = value
        return rows

    def profile(self) -> dict:
        """Counters and per-shard counters (``EXPLAIN ANALYZE``'s ``profile``)."""
        out: dict = {"counters": dict(sorted(self.counters.items()))}
        if self.shards:
            out["shards"] = {
                str(shard): dict(sorted(counters.items()))
                for shard, counters in sorted(self.shards.items())
            }
        return out

    def stages(self) -> list[dict]:
        """The root's direct children as ``{stage, seconds, ...attrs}`` rows."""
        rows = []
        for child in self.root.children:
            row = {"stage": child.name, "seconds": round(child.seconds, 6)}
            row.update(child.attributes)
            rows.append(row)
        return rows

    def shard_timings(self) -> list[dict]:
        """Every per-shard scatter span in the tree, in execution order."""
        rows = []
        for record in iter_spans(self.root):
            if record.name == SHARD_SPAN:
                row = {"seconds": round(record.seconds, 6)}
                row.update(record.attributes)
                rows.append(row)
        return rows


def current_record() -> QueryRecord | None:
    """Return the record active on this thread, or None."""
    return getattr(_LOCAL, "record", None)


@contextmanager
def start_record(record: QueryRecord | None = None) -> Iterator[QueryRecord]:
    """Activate a record on this thread for the duration of the block.

    The root span's duration is the block's wall time.  A previously
    active record is restored on exit, so records nest (a shard's record
    shadows the request's while the shard matches inline).
    """
    if record is None:
        record = QueryRecord()
    previous = getattr(_LOCAL, "record", None)
    _LOCAL.record = record
    start = perf_counter()
    try:
        yield record
    finally:
        record.root.seconds = perf_counter() - start
        _LOCAL.record = previous


def span(name: str, **attributes: object):
    """Open a span under the active record (or a free no-op without one).

    Usage::

        with span("cluster.scatter", star_root=root) as sp:
            ...
            sp.annotate(matches=len(relation))
    """
    record = getattr(_LOCAL, "record", None)
    if record is None:
        return NOOP_SPAN
    return record.start(name, attributes if attributes else None)


def timed_iter(
    name: str, iterable: Iterable, node_id: int | None = None, **attributes: object
) -> Iterator:
    """Re-yield ``iterable``, charging it the time spent producing items.

    Generators interleave their work with their consumer's, so a plain
    ``with span(...)`` around one would charge the consumer's time to the
    producer.  This wrapper charges only the time spent *inside* ``next()``
    and attaches one completed span (with a ``rows`` count) when the
    iterator is exhausted — or abandoned early, via the ``finally``.  With
    ``node_id`` the rows are also charged to that plan operator's
    ``op.<node_id>.rows`` counter.

    Without an active record the items stream straight through.
    """
    record = getattr(_LOCAL, "record", None)
    if record is None:
        yield from iterable
        return
    total = 0.0
    rows = 0
    iterator = iter(iterable)
    try:
        while True:
            begin = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                total += perf_counter() - begin
                break
            total += perf_counter() - begin
            rows += 1
            yield item
    except QueryTimeout:
        record.timed_out(name)
        raise
    finally:
        record.attach(name, total, rows=rows, **attributes)
        if node_id is not None:
            record.count(f"{OP_PREFIX}{node_id}.rows", rows)


def iter_spans(root: SpanRecord) -> Iterator[SpanRecord]:
    """Depth-first iteration over a span tree (root included, parents first)."""
    stack = [root]
    while stack:
        record = stack.pop()
        yield record
        stack.extend(reversed(record.children))
