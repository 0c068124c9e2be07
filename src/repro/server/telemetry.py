"""Service-side telemetry: the registry, the record fold and the slow-query log.

:class:`ServiceTelemetry` owns everything observable about one
:class:`~repro.server.EngineService`:

* a per-service :class:`~repro.telemetry.MetricsRegistry` (no process
  globals — tests build many services per process) with the request
  counters, latency/stage histograms and gauges behind ``GET /metrics``;
* the **fold**: every read runs under one
  :class:`~repro.telemetry.QueryRecord`, and :meth:`query_finished` folds
  the finished record into the registry in a single pass — its spans into
  the stage and per-shard histograms, its counters into the
  ``repro_query_*_total`` families;
* the optional :class:`~repro.telemetry.SlowQueryLog`, whose entries are
  views of the same record.

``metrics_enabled`` (``--metrics on|off``) is the one switch: off, the
registry is left untouched and ``GET /metrics`` answers 404, while the
record still backs ``EXPLAIN`` and the slow-query log.

The metric families:

====================================  ==========================================
``repro_queries_total``               read requests by ``kind`` (query/count/
                                      ask/explain) and terminal ``status``
``repro_query_seconds``               end-to-end latency histogram by ``kind``
``repro_updates_total``               update requests by terminal ``status``
``repro_update_seconds``              update latency histogram
``repro_triples_mutated_total``       inserted/deleted triples by ``op``
``repro_stage_seconds``               per-stage latency histogram by ``stage``
                                      (span names: ``sparql.parse``,
                                      ``engine.match``, ``cluster.scatter`` …)
                                      and ``backend`` (the match backend on
                                      matching stages, else empty)
``repro_query_candidates_total``      matcher candidates by ``backend`` and
                                      ``stage`` (generated/pruned), from
                                      per-query records
``repro_query_intersections_total``   sorted-set/array intersections by
                                      ``backend``
``repro_query_index_probes_total``    index probes by ``backend`` and ``index``
                                      (attribute/signature/neighborhood)
``repro_query_operator_rows_total``   rows produced by plan operators, by
                                      ``backend``
``repro_query_solutions_total``       matcher-emitted embeddings by ``backend``
``repro_scatter_shard_seconds``       per-shard star-matching time by ``shard``
``repro_rwlock_wait_seconds``         reader/writer lock wait by ``side``
``repro_cache_requests_total``        plan/result cache lookups by ``cache``
                                      and ``outcome`` (mirrored at scrape time)
``repro_slow_queries_total``          requests that crossed the slow threshold
``repro_in_flight_queries``           currently evaluating queries (gauge)
``repro_uptime_seconds``              service uptime (gauge)
``repro_data_version``                engine mutation counter (gauge)
====================================  ==========================================
"""

from __future__ import annotations

from ..telemetry.metrics import MetricsRegistry
from ..telemetry.record import SHARD_SPAN, QueryRecord, iter_spans
from ..telemetry.slowlog import SlowQueryLog

__all__ = ["ServiceTelemetry"]


class ServiceTelemetry:
    """Metrics registry + record fold + slow-query log of one service."""

    def __init__(
        self,
        metrics_enabled: bool = True,
        slow_query_log_path: str | None = None,
        slow_query_ms: float = 500.0,
    ):
        self.enabled = metrics_enabled
        self.slow_log = (
            SlowQueryLog(slow_query_log_path, slow_query_ms)
            if slow_query_log_path is not None
            else None
        )
        self.registry = MetricsRegistry()
        reg = self.registry
        self.queries_total = reg.counter(
            "repro_queries_total",
            "Read requests by kind (query/count/ask/explain) and terminal status.",
            labelnames=("kind", "status"),
        )
        self.query_seconds = reg.histogram(
            "repro_query_seconds",
            "End-to-end read-request latency in seconds, by kind.",
            labelnames=("kind",),
        )
        self.updates_total = reg.counter(
            "repro_updates_total", "Update requests by terminal status.", labelnames=("status",)
        )
        self.update_seconds = reg.histogram(
            "repro_update_seconds", "End-to-end update latency in seconds."
        )
        self.triples_mutated_total = reg.counter(
            "repro_triples_mutated_total",
            "Triples inserted/deleted by applied updates, by op.",
            labelnames=("op",),
        )
        self.stage_seconds = reg.histogram(
            "repro_stage_seconds",
            "Per-stage time in seconds, labelled by span name and match backend.",
            labelnames=("stage", "backend"),
        )
        self.scatter_shard_seconds = reg.histogram(
            "repro_scatter_shard_seconds",
            "Per-shard star-matching time in seconds during cluster scatter.",
            labelnames=("shard",),
        )
        self.query_candidates_total = reg.counter(
            "repro_query_candidates_total",
            "Matcher candidates by backend and stage (generated/pruned), "
            "accumulated from per-query records.",
            labelnames=("backend", "stage"),
        )
        self.query_intersections_total = reg.counter(
            "repro_query_intersections_total",
            "Sorted-set/posting-array intersections run by the matcher, by backend.",
            labelnames=("backend",),
        )
        self.query_index_probes_total = reg.counter(
            "repro_query_index_probes_total",
            "Index probes by backend and index (attribute/signature/neighborhood).",
            labelnames=("backend", "index"),
        )
        self.query_operator_rows_total = reg.counter(
            "repro_query_operator_rows_total",
            "Rows produced by algebra plan operators, by backend.",
            labelnames=("backend",),
        )
        self.query_solutions_total = reg.counter(
            "repro_query_solutions_total",
            "Embeddings emitted by the matching core, by backend.",
            labelnames=("backend",),
        )
        self.rwlock_wait_seconds = reg.histogram(
            "repro_rwlock_wait_seconds",
            "Time spent waiting for the engine reader-writer lock, by side.",
            labelnames=("side",),
        )
        self.cache_requests_total = reg.counter(
            "repro_cache_requests_total",
            "Cache lookups by cache (plan/result) and outcome (hit/miss).",
            labelnames=("cache", "outcome"),
        )
        self.slow_queries_total = reg.counter(
            "repro_slow_queries_total", "Requests that crossed the slow-query threshold."
        )
        self.in_flight = reg.gauge(
            "repro_in_flight_queries", "Queries currently evaluating (admission-controlled)."
        )
        self.uptime_seconds = reg.gauge("repro_uptime_seconds", "Service uptime in seconds.")
        self.data_version = reg.gauge(
            "repro_data_version", "Engine mutation counter (bumped per applied update batch)."
        )

    def lock_wait_observer(self):
        """The ``ReadWriteLock`` ``on_wait`` hook, or None when metrics are off."""
        if not self.enabled:
            return None

        def observe(side: str, seconds: float) -> None:
            self.rwlock_wait_seconds.observe(seconds, side=side)

        return observe

    # ------------------------------------------------------------------ #
    # request accounting
    # ------------------------------------------------------------------ #
    def query_finished(
        self,
        kind: str,
        status: str,
        seconds: float | None = None,
        query: str | None = None,
        record: QueryRecord | None = None,
        cache: dict | None = None,
        backend: str = "",
    ) -> None:
        """Record one terminal read request (all statuses, incl. rejections).

        ``seconds`` is only observed into the latency histogram when the
        request actually evaluated (answered), matching the ``/stats``
        latency summary.  ``record`` — the request's query record, None
        when the request never evaluated — is folded into the registry
        here, and slow-log entries are written here too, so the
        query/count/ask/explain paths all share one disposition point.
        """
        if self.enabled:
            self.queries_total.inc(kind=kind, status=status)
            if seconds is not None and status == "answered":
                self.query_seconds.observe(seconds, kind=kind)
            if record is not None:
                self._fold(record, backend)
        if (
            self.slow_log is not None
            and seconds is not None
            and query is not None
            and status in ("answered", "timeout")
            and self.slow_log.should_log(seconds)
        ):
            if self.enabled:
                self.slow_queries_total.inc()
            self.slow_log.log(
                query, seconds, kind=kind, status=status, record=record, cache=cache
            )

    def _fold(self, record: QueryRecord, backend: str) -> None:
        """Fold one finished record into the stage, shard and counter families.

        The root's wall time is not a stage: the service records it as
        ``repro_query_seconds`` (it also covers admission and cache
        probing).  ``backend`` labels the counter samples with the match
        backend that produced them; unknown counter names are skipped here
        but still appear verbatim in EXPLAIN ANALYZE and slow-log entries.
        """
        root = record.root
        for node in iter_spans(root):
            if node is root:
                continue
            if node.name == SHARD_SPAN:
                self.scatter_shard_seconds.observe(
                    node.seconds, shard=str(node.attributes.get("shard", ""))
                )
            else:
                self.stage_seconds.observe(
                    node.seconds,
                    stage=node.name,
                    backend=str(node.attributes.get("backend", "")),
                )
        operator_rows = 0
        for name, value in record.counters.items():
            if not value:
                continue
            if name.startswith("op.") and name.endswith(".rows"):
                operator_rows += value
            elif name == "candidates.generated":
                self.query_candidates_total.inc(value, backend=backend, stage="generated")
            elif name == "candidates.pruned":
                self.query_candidates_total.inc(value, backend=backend, stage="pruned")
            elif name == "intersections":
                self.query_intersections_total.inc(value, backend=backend)
            elif name.startswith("index.") and name.endswith("_probes"):
                index = name[len("index.") : -len("_probes")]
                self.query_index_probes_total.inc(value, backend=backend, index=index)
            elif name == "solutions.emitted":
                self.query_solutions_total.inc(value, backend=backend)
        if operator_rows:
            self.query_operator_rows_total.inc(operator_rows, backend=backend)

    def update_finished(self, status: str, seconds: float | None = None) -> None:
        """Record one terminal update request."""
        if self.enabled:
            self.updates_total.inc(status=status)
            if seconds is not None and status == "applied":
                self.update_seconds.observe(seconds)

    def triples_mutated(self, inserted: int, deleted: int) -> None:
        if self.enabled:
            if inserted:
                self.triples_mutated_total.inc(inserted, op="insert")
            if deleted:
                self.triples_mutated_total.inc(deleted, op="delete")

    # ------------------------------------------------------------------ #
    # scrape-time synchronisation
    # ------------------------------------------------------------------ #
    def sync_gauges(self, uptime: float, in_flight: int, data_version: int) -> None:
        self.uptime_seconds.set(round(uptime, 3))
        self.in_flight.set(in_flight)
        self.data_version.set(data_version)

    def sync_cache(self, cache: str, hits: int, misses: int) -> None:
        """Mirror a cache's own monotone hit/miss counters into the registry.

        The LRU caches keep exact counters already; re-counting them here
        per lookup would double the bookkeeping, so the totals are copied
        at scrape time instead.
        """
        self.cache_requests_total.set_total(hits, cache=cache, outcome="hit")
        self.cache_requests_total.set_total(misses, cache=cache, outcome="miss")

    def close(self) -> None:
        """Release the slow-query log file handle (idempotent)."""
        if self.slow_log is not None:
            self.slow_log.close()
