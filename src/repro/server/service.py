"""The engine service: caching, admission control and statistics.

:class:`EngineService` is the layer between a shared :class:`AmberEngine`
and any front end (the HTTP server, the service benchmark, tests).  It
adds what the bare engine deliberately does not have:

* an LRU **plan cache** — the prepared ``(SelectQuery, QueryMultigraph)``
  pair is memoised by query text, so repeated workloads (the paper's
  star/complex query mixes) skip parsing and query-graph construction;
* an optional bounded **result cache** for fully identical requests;
* **admission control** — at most ``max_in_flight`` queries evaluate
  concurrently, the rest are rejected with :class:`ServiceOverloaded`
  rather than piling onto the worker pool;
* per-request **timeout and row-limit enforcement** with service-wide caps;
* counters and latency percentiles surfaced by the ``/stats`` endpoint;
* **telemetry** — every read runs under one per-query record (spans and
  resource counters) that feeds a Prometheus registry behind
  ``GET /metrics``, ``EXPLAIN`` / ``EXPLAIN ANALYZE`` and a slow-query
  log, wired through :class:`~.telemetry.ServiceTelemetry`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable

from ..amber.engine import AmberEngine
from ..amber.mutation import UpdateResult, resolve_loads
from ..errors import QueryTimeout, ReproError, UnsupportedQueryError
from ..sparql.bindings import ResultSet
from ..sparql.tokenizer import SparqlSyntaxError
from ..sparql.update import LoadData, UpdateRequest, parse_update
from ..telemetry.metrics import Summary
from ..telemetry.record import QueryRecord, start_record
from .cache import LRUCache
from .rwlock import ReadWriteLock
from .telemetry import ServiceTelemetry

__all__ = [
    "SPARQL_FRAGMENT",
    "ServiceConfig",
    "ServiceOverloaded",
    "ServiceReadOnly",
    "QueryResponse",
    "ScalarResponse",
    "UpdateResponse",
    "EngineService",
    "split_analyze",
    "split_explain",
]

#: The SELECT fragment every engine behind this service answers, surfaced by
#: ``/stats`` so clients can discover capabilities without probing with
#: queries.  UPDATE coverage is reported separately under ``updates``.
SPARQL_FRAGMENT = (
    "SELECT",
    "DISTINCT",
    "LIMIT",
    "OFFSET",
    "FILTER",
    "UNION",
    "OPTIONAL",
    "BOUND",
    "REGEX",
)


class ServiceOverloaded(ReproError):
    """Raised when admission control rejects a query (too many in flight)."""


class ServiceReadOnly(ReproError):
    """Raised when an update reaches a service configured as read-only."""


@dataclass(frozen=True)
class ServiceConfig:
    """Operational limits of one :class:`EngineService`."""

    #: Per-query evaluation budget applied when the client does not ask for
    #: one; also the upper bound on client-requested timeouts.
    default_timeout_seconds: float | None = 30.0
    #: Hard cap on solution rows per query (None = unlimited).
    max_rows: int | None = 10_000
    #: Entries in the plan cache (query text -> prepared plan); 0 disables.
    plan_cache_size: int = 256
    #: Entries in the result cache; 0 (the default posture for freshness-
    #: sensitive deployments) disables result caching entirely.
    result_cache_size: int = 0
    #: Maximum concurrently evaluating queries before admission control
    #: rejects with ServiceOverloaded.
    max_in_flight: int = 8
    #: Observations kept for the latency percentiles.
    latency_window: int = 2048
    #: When True the service rejects every update with ServiceReadOnly.
    read_only: bool = False
    #: Directory LOAD sources resolve against (None = process working dir).
    load_base_dir: str | None = None
    #: Maximum updates waiting for / holding the write lock before new ones
    #: are rejected with ServiceOverloaded.  Writes serialize anyway; the cap
    #: keeps a burst of updates from pinning every HTTP worker on the lock
    #: and starving queries of pool threads.
    max_pending_updates: int = 4
    #: Fold every read's query record into the Prometheus registry and serve
    #: ``GET /metrics``.  The record itself is always kept: EXPLAIN and the
    #: slow-query log are views of it.
    metrics_enabled: bool = True
    #: JSON-lines slow-query log path (None disables the log).
    slow_query_log_path: str | None = None
    #: Threshold, in milliseconds, above which a query is logged as slow.
    slow_query_ms: float = 500.0


def split_explain(query: str) -> tuple[bool, str]:
    """Detect and strip a leading ``EXPLAIN`` keyword (case-insensitive).

    ``EXPLAIN`` is not SPARQL; it is this service's explain marker, accepted
    as a query prefix in addition to the ``explain=1`` request parameter.
    Returns ``(is_explain, query_without_prefix)``.
    """
    stripped = query.lstrip()
    if stripped[:7].upper() == "EXPLAIN" and (len(stripped) == 7 or stripped[7].isspace()):
        return True, stripped[7:].lstrip()
    return False, query


def split_analyze(query: str) -> tuple[bool, str]:
    """Detect and strip a leading ``ANALYZE`` keyword (case-insensitive).

    Applied after :func:`split_explain`, so the full ``EXPLAIN ANALYZE``
    marker selects the analyze mode: the query runs to completion and the
    plan reports actual next to estimated rows.
    Returns ``(is_analyze, query_without_prefix)``.
    """
    stripped = query.lstrip()
    if stripped[:7].upper() == "ANALYZE" and (len(stripped) == 7 or stripped[7].isspace()):
        return True, stripped[7:].lstrip()
    return False, query


@dataclass(frozen=True)
class QueryResponse:
    """One answered query: the result set plus provenance/timing."""

    result: ResultSet
    seconds: float
    from_result_cache: bool = False


@dataclass(frozen=True)
class ScalarResponse:
    """One answered count/ask request: the scalar answer plus timing."""

    value: int | bool
    seconds: float


@dataclass(frozen=True)
class UpdateResponse:
    """One applied update: the mutation counts plus timing/versioning."""

    result: UpdateResult
    seconds: float
    data_version: int


#: Terminal read status -> the ``_Counters`` field it increments.
_STATUS_COUNTERS = {
    "answered": "answered",
    "timeout": "timeouts",
    "parse_error": "parse_errors",
    "failed": "failures",
}


@dataclass
class _Counters:
    """Mutable service counters (guarded by the service lock)."""

    received: int = 0
    answered: int = 0
    parse_errors: int = 0
    invalid_parameters: int = 0
    timeouts: int = 0
    rejected: int = 0
    failures: int = 0
    in_flight: int = 0
    peak_in_flight: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "received": self.received,
            "answered": self.answered,
            "parse_errors": self.parse_errors,
            "invalid_parameters": self.invalid_parameters,
            "timeouts": self.timeouts,
            "rejected": self.rejected,
            "failures": self.failures,
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
        }


@dataclass
class _UpdateCounters:
    """Mutable write-path counters (guarded by the service lock)."""

    received: int = 0
    applied: int = 0
    errors: int = 0
    rejected: int = 0
    rejected_read_only: int = 0
    triples_inserted: int = 0
    triples_deleted: int = 0
    pending: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "received": self.received,
            "applied": self.applied,
            "errors": self.errors,
            "rejected": self.rejected,
            "rejected_read_only": self.rejected_read_only,
            "triples_inserted": self.triples_inserted,
            "triples_deleted": self.triples_deleted,
            "pending": self.pending,
        }


class EngineService:
    """A thread-safe query service over one shared :class:`AmberEngine`."""

    def __init__(self, engine: AmberEngine, config: ServiceConfig | None = None):
        self.engine = engine
        self.config = config or ServiceConfig()
        #: The plan cache in effect (ours, or one the caller pre-installed).
        self.plan_cache = LRUCache(self.config.plan_cache_size)
        # The engine consults the plan cache inside prepare(), so every
        # caller of the shared engine benefits, not only this service.  A
        # cache the caller already installed is adopted, never clobbered —
        # stats() then reports that cache (or marks it external when it
        # cannot report statistics).
        if engine.plan_cache is None:
            if self.config.plan_cache_size > 0:
                engine.plan_cache = self.plan_cache
        else:
            self.plan_cache = engine.plan_cache
        self.result_cache: LRUCache[tuple, ResultSet] = LRUCache(self.config.result_cache_size)
        self.latency = Summary(self.config.latency_window)
        self.update_latency = Summary(self.config.latency_window)
        self._counters = _Counters()
        self._update_counters = _UpdateCounters()
        self._lock = threading.Lock()
        self.telemetry = ServiceTelemetry(
            metrics_enabled=self.config.metrics_enabled,
            slow_query_log_path=self.config.slow_query_log_path,
            slow_query_ms=self.config.slow_query_ms,
        )
        # Readers (queries, snapshots) share the engine; writers (updates)
        # get it exclusively, so a query never sees a half-applied update.
        self._rwlock = ReadWriteLock(on_wait=self.telemetry.lock_wait_observer())
        self.started_at = time.time()

    # ------------------------------------------------------------------ #
    # query path
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: str,
        timeout_seconds: float | None = None,
        max_rows: int | None = None,
    ) -> QueryResponse:
        """Answer one SPARQL SELECT query under the service's limits.

        Raises :class:`ServiceOverloaded` when admission control rejects the
        request, :class:`QueryTimeout` on budget exhaustion and
        :class:`SparqlSyntaxError` / :class:`UnsupportedQueryError` on bad
        queries — the HTTP layer maps these to 503/503/400.
        """
        with self._lock:
            self._counters.received += 1
        try:
            effective_timeout = self._effective_timeout(timeout_seconds)
            effective_rows = self._effective_rows(max_rows)
        except ValueError:
            with self._lock:
                self._counters.invalid_parameters += 1
            self.telemetry.query_finished("query", "invalid")
            raise

        # The cache key carries the engine's data_version, so entries are
        # self-invalidating: a mutation — even one applied directly to the
        # shared engine, bypassing this service's update() — changes the key
        # and turns every pre-mutation entry into dead weight instead of a
        # stale answer.
        if self.config.result_cache_size > 0:
            cached = self.result_cache.get((query, effective_rows, self.engine.data_version))
            if cached is not None:
                with self._lock:
                    self._counters.answered += 1
                self.latency.observe(0.0)
                self.telemetry.query_finished("query", "answered", 0.0, query)
                return QueryResponse(result=cached, seconds=0.0, from_result_cache=True)

        def run() -> ResultSet:
            # The result-cache put happens inside the read lock, where
            # data_version cannot move: the entry is keyed by exactly the
            # engine state it was computed against.
            result = self.engine.execute(
                query, mode="select", timeout_seconds=effective_timeout, max_solutions=effective_rows
            ).result
            if self.config.result_cache_size > 0:
                self.result_cache.put((query, effective_rows, self.engine.data_version), result)
            return result

        result, seconds, _ = self._run_read("query", query, run)
        return QueryResponse(result=result, seconds=seconds)

    def count(self, query: str, timeout_seconds: float | None = None) -> ScalarResponse:
        """Answer ``engine.count`` under the same guards/accounting as execute.

        Shares the request counters and the latency recorder with the query
        path, so ``/stats`` and ``/metrics`` totals cover every read kind.
        """
        with self._lock:
            self._counters.received += 1
        try:
            effective_timeout = self._effective_timeout(timeout_seconds)
        except ValueError:
            with self._lock:
                self._counters.invalid_parameters += 1
            self.telemetry.query_finished("count", "invalid")
            raise
        value, seconds, _ = self._run_read(
            "count",
            query,
            lambda: self.engine.execute(
                query, mode="count", timeout_seconds=effective_timeout
            ).count,
        )
        return ScalarResponse(value=value, seconds=seconds)

    def ask(self, query: str, timeout_seconds: float | None = None) -> ScalarResponse:
        """Answer ``engine.ask`` under the same guards/accounting as execute."""
        with self._lock:
            self._counters.received += 1
        try:
            effective_timeout = self._effective_timeout(timeout_seconds)
        except ValueError:
            with self._lock:
                self._counters.invalid_parameters += 1
            self.telemetry.query_finished("ask", "invalid")
            raise
        value, seconds, _ = self._run_read(
            "ask",
            query,
            lambda: self.engine.execute(query, mode="ask", timeout_seconds=effective_timeout).boolean,
        )
        return ScalarResponse(value=value, seconds=seconds)

    def explain(
        self,
        query: str,
        timeout_seconds: float | None = None,
        max_rows: int | None = None,
        analyze: bool = False,
    ) -> dict:
        """Execute a query and return its plan annotated from its record.

        Accepts the query with or without a leading ``EXPLAIN`` marker (and
        an ``ANALYZE`` keyword after it).  The result cache is bypassed (a
        cached answer has no stage timings to report).  The response is
        JSON-ready: the plan outline, the span tree, per-stage and per-shard
        breakdowns, row/variable counts and the cache disposition — without
        the serialized result rows.

        With ``analyze`` (parameter or ``EXPLAIN ANALYZE`` prefix) the query
        runs to completion through the streamed operators: every plan
        operator reports ``actual_rows`` next to ``estimated_rows``, and the
        response carries the record's counter/per-shard ``profile``.
        """
        _, text = split_explain(query)
        is_analyze, text = split_analyze(text)
        analyze = analyze or is_analyze
        kind = "analyze" if analyze else "explain"
        with self._lock:
            self._counters.received += 1
        try:
            effective_timeout = self._effective_timeout(timeout_seconds)
            effective_rows = self._effective_rows(max_rows)
        except ValueError:
            with self._lock:
                self._counters.invalid_parameters += 1
            self.telemetry.query_finished(kind, "invalid")
            raise

        cache = self._cache_disposition(text)
        cache["result"] = "bypassed"

        if analyze:
            def run_analyze() -> dict:
                return self.engine.execute(
                    text, mode="analyze", timeout_seconds=effective_timeout
                ).plan

            payload, _, record = self._run_read(kind, text, run_analyze, cache=cache)
            with self._rwlock.read_locked():
                data_version = self.engine.data_version
            return {
                "query": text,
                "analyze": True,
                "seconds": round(record.root.seconds, 6),
                "rows": payload["rows"],
                "data_version": data_version,
                "cache": cache,
                "plan": payload["plan"],
                "profile": payload["profile"],
                "stages": record.stages(),
                "shards": record.shard_timings(),
                "trace": record.root.as_dict(),
            }

        def run() -> ResultSet:
            return self.engine.execute(
                text, mode="select", timeout_seconds=effective_timeout, max_solutions=effective_rows
            ).result

        result, _, record = self._run_read("explain", text, run, cache=cache)
        # The outline comes from the engine's own explain mode *outside* the
        # record (no duplicate parse/prepare spans) but under the read lock:
        # plan construction reads engine dictionaries a writer may be
        # resizing.  It carries the engine's ``match_backend``.
        with self._rwlock.read_locked():
            outline = self.engine.execute(text, mode="explain").plan
            data_version = self.engine.data_version
        return {
            "query": text,
            "analyze": False,
            # The root span's wall time: the stage spans are its direct
            # children, so their durations sum against this total (admission,
            # which no stage covers, stays out of the denominator).
            "seconds": round(record.root.seconds, 6),
            "rows": len(result),
            "variables": [variable.name for variable in result.variables],
            "data_version": data_version,
            "cache": cache,
            "plan": outline,
            "stages": record.stages(),
            "shards": record.shard_timings(),
            "trace": record.root.as_dict(),
        }

    def _run_read(
        self, kind: str, query: str, runner: Callable, cache: dict | None = None
    ) -> tuple:
        """Admission, read lock, query record and terminal accounting of one read.

        ``runner`` executes with the read lock held under a fresh
        :class:`~repro.telemetry.QueryRecord`.  Whatever the outcome — a
        timeout included — the record is folded into the telemetry once,
        here, with every span that finished or was open.  Returns
        ``(value, seconds, record)``; every terminal outcome — including
        rejection — is reported to the telemetry layer so ``/stats`` and
        ``/metrics`` totals agree.
        """
        try:
            self._admit()
        except ServiceOverloaded:
            self.telemetry.query_finished(kind, "rejected")
            raise
        if cache is None:
            cache = self._cache_disposition(query)
        record = QueryRecord()
        status = "failed"
        start = time.perf_counter()
        try:
            with start_record(record), self._rwlock.read_locked():
                value = runner()
            status = "answered"
        except QueryTimeout:
            status = "timeout"
            raise
        except (SparqlSyntaxError, UnsupportedQueryError):
            status = "parse_error"
            raise
        finally:
            self._release()
            seconds = time.perf_counter() - start
            with self._lock:
                field = _STATUS_COUNTERS[status]
                setattr(self._counters, field, getattr(self._counters, field) + 1)
            if status == "answered":
                self.latency.observe(seconds)
            self.telemetry.query_finished(
                kind, status, seconds, query, record, cache, self.engine.match_backend
            )
        return value, seconds, record

    def _cache_disposition(self, query: str) -> dict[str, str]:
        """Pre-execution plan/result cache disposition of one query text.

        Uses ``in`` (which :class:`LRUCache` answers without touching its
        hit/miss statistics) so probing never skews the cache counters.
        """
        try:
            plan = "hit" if query in self.plan_cache else "miss"
        except TypeError:  # an external cache without __contains__
            plan = "unknown"
        result = "disabled" if self.config.result_cache_size <= 0 else "miss"
        return {"plan": plan, "result": result}

    # ------------------------------------------------------------------ #
    # update path
    # ------------------------------------------------------------------ #
    def update(self, update: str) -> UpdateResponse:
        """Apply one SPARQL UPDATE request under the exclusive write lock.

        The write lock waits for in-flight queries to drain (each bounded
        by the service timeout) and blocks new ones, so readers observe
        either the pre-update or the post-update engine — never a half-
        applied state.  Parsing the update text and reading ``LOAD``
        sources happen *before* the lock is taken — readers only stall for
        the graph mutation itself, and a request whose LOAD fails is
        rejected before any of its operations apply.  On success the
        result cache is cleared (the plan cache is cleared by the engine
        itself) and write counters/latency are recorded.

        Raises :class:`ServiceReadOnly` when updates are disabled,
        :class:`SparqlSyntaxError` on malformed update text and
        :class:`repro.UpdateError` when an operation (e.g. ``LOAD``)
        cannot be executed — the HTTP layer maps these to 403/400/400.
        """
        with self._lock:
            self._update_counters.received += 1
        if self.config.read_only:
            with self._lock:
                self._update_counters.rejected_read_only += 1
            self.telemetry.update_finished("read_only")
            raise ServiceReadOnly("this service is read-only; updates are disabled")
        # Admission control for writes: updates serialize on the write lock,
        # so beyond a short queue each extra pending update just pins one
        # HTTP worker on the lock; shed the excess with a fast 503 instead.
        with self._lock:
            if self._update_counters.pending >= self.config.max_pending_updates:
                self._update_counters.rejected += 1
                self.telemetry.update_finished("rejected")
                raise ServiceOverloaded(
                    f"{self._update_counters.pending} updates pending "
                    f"(limit {self.config.max_pending_updates}); retry later"
                )
            self._update_counters.pending += 1
        start = time.perf_counter()
        try:
            request = self._prefetch_loads(parse_update(update))
            with self._rwlock.write_locked():
                result = self.engine.apply_update(request)
                data_version = self.engine.data_version
                if result.changed:
                    self.result_cache.clear()
        except Exception:
            with self._lock:
                self._update_counters.errors += 1
            self.telemetry.update_finished("error")
            raise
        finally:
            with self._lock:
                self._update_counters.pending -= 1
        seconds = time.perf_counter() - start
        self.update_latency.observe(seconds)
        with self._lock:
            self._update_counters.applied += 1
            self._update_counters.triples_inserted += result.inserted
            self._update_counters.triples_deleted += result.deleted
        self.telemetry.update_finished("applied", seconds)
        self.telemetry.triples_mutated(result.inserted, result.deleted)
        return UpdateResponse(result=result, seconds=seconds, data_version=data_version)

    def _prefetch_loads(self, request: UpdateRequest) -> UpdateRequest:
        """Resolve every LOAD operation into an in-memory triple batch.

        File I/O and RDF parsing are reader-safe, so they run outside the
        write lock; the engine then only sees ground INSERT DATA batches.
        """
        if not any(isinstance(op, LoadData) for op in request.operations):
            return request
        return UpdateRequest(operations=resolve_loads(request, self.config.load_base_dir))

    def snapshot(self, path) -> int:
        """Persist a consistent snapshot of the (possibly mutated) engine.

        Takes the read lock, so a snapshot never interleaves with a write;
        concurrent queries keep running.  Returns the file size in bytes.
        """
        from ..storage import save_engine

        with self._rwlock.read_locked():
            return save_engine(self.engine, path)

    # ------------------------------------------------------------------ #
    # limits & admission
    # ------------------------------------------------------------------ #
    def _effective_timeout(self, requested: float | None) -> float | None:
        ceiling = self.config.default_timeout_seconds
        if requested is None:
            return ceiling
        # NaN would poison min() and the deadline comparison (never expires),
        # silently handing out an unbounded budget — reject it with the rest.
        if not math.isfinite(requested) or requested <= 0:
            raise ValueError("timeout must be a positive finite number")
        return min(requested, ceiling) if ceiling is not None else requested

    def _effective_rows(self, requested: int | None) -> int | None:
        ceiling = self.config.max_rows
        if requested is None:
            return ceiling
        if requested <= 0:
            raise ValueError("max rows must be positive")
        return min(requested, ceiling) if ceiling is not None else requested

    def retry_after_seconds(self, kind: str = "query") -> int:
        """Advisory ``Retry-After`` for admission-control rejections (503s).

        Derived from the observed p50 latency of the rejected path: by the
        median request's service time, capacity has likely freed up.  Floored
        at one second — both because tighter client retry loops would defeat
        the point of shedding load, and because an idle service has no
        latency sample yet.
        """
        recorder = self.update_latency if kind == "update" else self.latency
        p50 = recorder.percentile(0.50)
        return max(1, math.ceil(p50)) if p50 is not None else 1

    def _admit(self) -> None:
        with self._lock:
            if self._counters.in_flight >= self.config.max_in_flight:
                self._counters.rejected += 1
                raise ServiceOverloaded(
                    f"{self._counters.in_flight} queries in flight "
                    f"(limit {self.config.max_in_flight}); retry later"
                )
            self._counters.in_flight += 1
            self._counters.peak_in_flight = max(
                self._counters.peak_in_flight, self._counters.in_flight
            )

    def _release(self) -> None:
        with self._lock:
            self._counters.in_flight -= 1

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def prometheus(self) -> str | None:
        """Render the Prometheus text exposition, or None when disabled.

        Gauges and mirrored cache counters are synchronised at scrape time;
        request counters and histograms accumulate as requests finish.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return None
        with self._lock:
            in_flight = self._counters.in_flight
        telemetry.sync_gauges(time.time() - self.started_at, in_flight, self.engine.data_version)
        if hasattr(self.plan_cache, "stats"):
            stats = self.plan_cache.stats()
            telemetry.sync_cache("plan", stats.hits, stats.misses)
        stats = self.result_cache.stats()
        telemetry.sync_cache("result", stats.hits, stats.misses)
        return telemetry.registry.expose()

    def close(self) -> None:
        """Release telemetry resources (the slow-query log file handle)."""
        self.telemetry.close()

    def stats(self) -> dict:
        """A JSON-serializable snapshot for the ``/stats`` endpoint."""
        with self._lock:
            counters = self._counters.as_dict()
            update_counters = self._update_counters.as_dict()
        report = self.engine.build_report
        # Engine internals are read under the read lock: statistics()
        # iterates the adjacency/attribute dicts a concurrent update may be
        # resizing, which would raise mid-iteration.
        with self._rwlock.read_locked():
            engine_stats = self.engine.statistics()
            data_version = self.engine.data_version
            match_backend = self.engine.match_backend
            cluster = None
            if hasattr(self.engine, "shard_stats"):
                cluster = {
                    "shards": self.engine.shard_count,
                    "per_shard": self.engine.shard_stats(),
                }
            planner = getattr(self.engine, "planner", None)
            planner_stats = planner.stats_dict() if planner is not None else None
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "engine": engine_stats,
            "match_backend": match_backend,
            "cluster": cluster,
            "planner": planner_stats,
            "data_version": data_version,
            "build_report": report.as_dict() if report is not None else None,
            "queries": counters,
            "updates": {
                **update_counters,
                "read_only": self.config.read_only,
                "latency": self.update_latency.snapshot(),
                # Always 0: the signature index is exact after every update.
                # Kept because perfbench/run.py reads it.
                "signature_stale": 0,
                "lock": self._rwlock.snapshot(),
            },
            "latency": self.latency.snapshot(),
            "plan_cache": (
                self.plan_cache.stats().as_dict()
                if hasattr(self.plan_cache, "stats")
                else {"external": True}
            ),
            "result_cache": self.result_cache.stats().as_dict(),
            "limits": {
                "default_timeout_seconds": self.config.default_timeout_seconds,
                "max_rows": self.config.max_rows,
                "max_in_flight": self.config.max_in_flight,
            },
            "telemetry": {
                "metrics_enabled": self.telemetry.enabled,
                "slow_query_log": (
                    str(self.telemetry.slow_log.path)
                    if self.telemetry.slow_log is not None
                    else None
                ),
                "slow_query_ms": (
                    self.telemetry.slow_log.threshold_ms
                    if self.telemetry.slow_log is not None
                    else None
                ),
                "slow_queries": (
                    int(self.telemetry.slow_queries_total.value())
                    if self.telemetry.enabled
                    else None
                ),
            },
            "sparql_fragment": list(SPARQL_FRAGMENT),
        }
