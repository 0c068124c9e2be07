"""The SPARQL query service: caching service layer + HTTP front end.

This package turns a built :class:`~repro.AmberEngine` into a long-running
process in the paper's "build once, query many" spirit:

* :class:`EngineService` — plan/result caching, admission control, stats,
  Prometheus metrics, ``EXPLAIN`` and the slow-query log;
* :class:`SparqlHTTPServer` / :func:`serve` — the SPARQL Protocol-style
  HTTP front end (``/sparql``, ``/stats``, ``/metrics``, ``/health``);
* ``python -m repro.server data.nt`` — the command-line launcher.
"""

from .cache import CacheStats, LRUCache
from .http import SparqlHTTPServer, SparqlRequestHandler, serve
from .rwlock import ReadWriteLock
from .service import (
    EngineService,
    QueryResponse,
    ScalarResponse,
    ServiceConfig,
    ServiceOverloaded,
    ServiceReadOnly,
    UpdateResponse,
    split_explain,
)
from .telemetry import ServiceTelemetry

__all__ = [
    "CacheStats",
    "LRUCache",
    "EngineService",
    "QueryResponse",
    "ScalarResponse",
    "UpdateResponse",
    "ServiceConfig",
    "ServiceOverloaded",
    "ServiceReadOnly",
    "ServiceTelemetry",
    "ReadWriteLock",
    "SparqlHTTPServer",
    "SparqlRequestHandler",
    "serve",
    "split_explain",
]
