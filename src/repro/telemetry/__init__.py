"""End-to-end telemetry: the per-query record, metrics and the slow-query log.

The subsystem is dependency-free and engine-agnostic:

* :mod:`repro.telemetry.record` — one :class:`QueryRecord` per query: the
  span tree (stages, algebra operators, per-shard scatter timings), the
  resource counters (candidates, intersections, index probes, rows per
  operator) and per-shard sub-records, behind one thread local whose
  instrumentation points are no-ops when no record is active;
* :mod:`repro.telemetry.metrics` — counters/gauges/histograms with
  Prometheus text exposition, plus the windowed :class:`Summary` backing
  the ``/stats`` latency JSON;
* :mod:`repro.telemetry.slowlog` — a JSON-lines slow-query log.

The server layer (:mod:`repro.server`) opens a record for every read and
folds it into the registry once, when the request ends; ``GET /metrics``
scrapes the registry, and ``EXPLAIN`` / ``EXPLAIN ANALYZE`` and the
slow-query log serialize views of the same record.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
    nearest_rank,
    parse_exposition,
    summarize_latencies,
    validate_exposition,
)
from .record import (
    QueryRecord,
    ShardRecord,
    SpanRecord,
    current_record,
    iter_spans,
    span,
    start_record,
    timed_iter,
)
from .slowlog import SlowQueryLog

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Summary",
    "nearest_rank",
    "parse_exposition",
    "summarize_latencies",
    "validate_exposition",
    "QueryRecord",
    "ShardRecord",
    "SpanRecord",
    "current_record",
    "iter_spans",
    "span",
    "start_record",
    "timed_iter",
    "SlowQueryLog",
]
