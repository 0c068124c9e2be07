"""A structured JSON-lines slow-query log.

Every query whose end-to-end latency crosses the configured threshold is
appended to the log file as one JSON object per line — machine-parseable
(``jq``-able) and safe to tail.  The service fills each entry with the
query text, outcome and cache disposition plus views of the query's
:class:`~repro.telemetry.record.QueryRecord` — stage and shard breakdowns,
the counter profile and, for a timeout, the span the deadline fired in —
so a slow query can be diagnosed without reproducing it.

Writes are serialized under a lock and flushed per entry; the file is
opened lazily on first write and re-opened after :meth:`SlowQueryLog.close`
(snapshot/rotation friendly).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import IO

from .record import QueryRecord

__all__ = ["SlowQueryLog"]

#: Query text longer than this is truncated in log entries: the log is a
#: diagnostic stream, not an archive, and a generated complex-50 query can
#: run to many kilobytes.
MAX_QUERY_CHARS = 4096


class SlowQueryLog:
    """Thread-safe JSON-lines appender gated by a latency threshold."""

    def __init__(self, path: str | Path, threshold_ms: float = 500.0):
        if threshold_ms < 0:
            raise ValueError("slow-query threshold must be >= 0")
        self.path = Path(path)
        self.threshold_ms = threshold_ms
        self._lock = threading.Lock()
        self._file: IO[str] | None = None

    def should_log(self, seconds: float) -> bool:
        """True when a query of ``seconds`` end-to-end latency qualifies."""
        return seconds * 1000.0 >= self.threshold_ms

    def log(
        self,
        query: str,
        seconds: float,
        kind: str = "query",
        status: str = "answered",
        record: QueryRecord | None = None,
        cache: dict | None = None,
    ) -> dict:
        """Append one entry (unconditionally — callers gate on should_log).

        The stage and shard breakdowns, the counter ``profile`` and — for a
        timeout — ``timed_out_in`` (the innermost span open when the
        deadline fired) are views of the query's record.  Returns the entry
        that was written, which tests and callers can inspect without
        re-reading the file.
        """
        entry: dict = {
            "ts": round(time.time(), 3),
            "kind": kind,
            "status": status,
            "seconds": round(seconds, 6),
            "threshold_ms": self.threshold_ms,
            "query": query[:MAX_QUERY_CHARS],
            "truncated": len(query) > MAX_QUERY_CHARS,
            "cache": cache or {},
            "stages": record.stages() if record is not None else [],
            "shards": record.shard_timings() if record is not None else [],
        }
        if record is not None:
            if record.counters:
                entry["profile"] = record.profile()
            if record.timed_out_in is not None:
                entry["timed_out_in"] = record.timed_out_in
        line = json.dumps(entry, ensure_ascii=False, separators=(",", ":"))
        with self._lock:
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")
            self._file.write(line + "\n")
            self._file.flush()
        return entry

    def close(self) -> None:
        """Close the underlying file (reopened lazily on the next write)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
