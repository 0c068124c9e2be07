"""SPARQL Protocol-style HTTP front end over an :class:`EngineService`.

Implements the subset of the W3C SPARQL 1.1 Protocol that matches the
engine's SELECT/UPDATE fragments:

* ``GET /sparql?query=...`` and ``POST /sparql`` (urlencoded form or raw
  ``application/sparql-query`` body) answer SELECT queries over the full
  supported fragment — basic graph patterns composed with FILTER, UNION
  and OPTIONAL (the ``sparql_fragment`` field of ``/stats`` lists it);
* ``POST /update`` (urlencoded ``update=`` form or raw
  ``application/sparql-update`` body) applies INSERT DATA / DELETE DATA /
  LOAD under the service's writer lock and returns the mutation counts;
* results serialize as ``application/sparql-results+json`` (default) or
  ``text/csv`` — chosen by the ``format`` parameter or the Accept header;
* ``GET /stats`` exposes the service counters, cache statistics, latency
  percentiles, write/lock statistics and the offline-stage
  :class:`BuildReport`;
* ``GET /metrics`` serves the Prometheus text exposition (404 when the
  service was configured with ``metrics_enabled=False``);
* ``?explain=1`` on ``/sparql`` — or a query prefixed with ``EXPLAIN`` —
  returns the annotated plan (stage timings, per-shard scatter timings,
  cardinalities, cache disposition) as JSON instead of the result rows;
* ``?analyze=1`` — or an ``EXPLAIN ANALYZE`` query prefix — additionally
  runs the query to completion through the streamed operators: every plan
  operator reports estimated *and* actual row counts and the response
  carries the record's candidate/probe/intersection counters (per shard on
  a cluster engine);
* ``GET /health`` is a trivial liveness probe.

Requests run on a bounded worker pool (stdlib only); error mapping is
parse/execution error -> 400, read-only rejection -> 403, query timeout /
admission rejection -> 503.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..amber.engine import AmberEngine
from ..amber.mutation import UpdateError
from ..errors import QueryTimeout, UnsupportedQueryError
from ..sparql.bindings import ResultSet
from ..sparql.tokenizer import SparqlSyntaxError
from .service import (
    EngineService,
    ServiceConfig,
    ServiceOverloaded,
    ServiceReadOnly,
    split_analyze,
    split_explain,
)

__all__ = ["SparqlHTTPServer", "SparqlRequestHandler", "serve"]

JSON_MEDIA_TYPE = "application/sparql-results+json"
CSV_MEDIA_TYPE = "text/csv; charset=utf-8"
PROMETHEUS_MEDIA_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Upper bound on POST bodies; a query has no business being larger, and the
#: body is buffered in memory before parsing, so the cap guards the process.
MAX_REQUEST_BODY_BYTES = 1 << 20


class SparqlRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request against the shared engine service."""

    server_version = f"repro-sparql/{__version__}"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        if url.path == "/sparql":
            self._handle_query(parse_qs(url.query))
        elif url.path == "/update":
            self._send_error_json(405, "MethodNotAllowed", "updates must be POSTed")
        elif url.path == "/stats":
            self._send_json(200, self.server.service.stats())
        elif url.path == "/metrics":
            exposition = self.server.service.prometheus()
            if exposition is None:
                self._send_error_json(404, "MetricsDisabled", "metrics are disabled")
            else:
                self._send_body(200, exposition.encode("utf-8"), PROMETHEUS_MEDIA_TYPE)
        elif url.path == "/health":
            self._send_json(200, {"status": "ok"})
        else:
            self._send_error_json(404, "NotFound", f"no handler for {url.path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        if url.path == "/sparql":
            params = self._read_post_params(url, raw_body_key="query")
            if params is not None:
                self._handle_query(params)
        elif url.path == "/update":
            params = self._read_post_params(url, raw_body_key="update")
            if params is not None:
                self._handle_update(params)
        else:
            self._send_error_json(404, "NotFound", f"no handler for {url.path}")

    def _read_post_params(self, url, raw_body_key: str) -> dict[str, list[str]] | None:
        """Merge query-string and POST-body parameters; None after an error reply.

        A raw (non-form) body is the SPARQL protocol's "via POST directly"
        form: the whole body is the query or update text, stored under
        ``raw_body_key``.
        """
        try:
            # Clamp: a negative declared length would turn rfile.read() into
            # a read-to-EOF that blocks a worker until the idle timeout.
            length = max(0, int(self.headers.get("Content-Length", 0)))
        except ValueError:
            length = 0
        if length > MAX_REQUEST_BODY_BYTES:
            # The unread body would be misread as the next request on a
            # kept-alive connection; drop the connection instead.
            self.close_connection = True
            self._send_error_json(
                413,
                "PayloadTooLarge",
                f"request body of {length} bytes exceeds the "
                f"{MAX_REQUEST_BODY_BYTES}-byte limit",
            )
            return None
        body = self.rfile.read(length).decode("utf-8", errors="replace") if length else ""
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip().lower()
        params = parse_qs(url.query)
        if content_type == "application/x-www-form-urlencoded":
            form = parse_qs(body)
            for key, values in form.items():
                params.setdefault(key, values)
        elif body:
            params.setdefault(raw_body_key, [body])
        return params

    # ------------------------------------------------------------------ #
    # query handling
    # ------------------------------------------------------------------ #
    def _handle_query(self, params: dict[str, list[str]]) -> None:
        query = (params.get("query") or [None])[0]
        if not query:
            self._send_error_json(400, "MissingQuery", "no 'query' parameter supplied")
            return
        try:
            timeout = self._float_param(params, "timeout")
            max_rows = self._int_param(params, "max_rows")
        except ValueError as exc:
            self._send_error_json(400, "BadParameter", str(exc))
            return
        explain_param = (params.get("explain") or [""])[0].lower() in ("1", "true", "yes", "on")
        analyze_param = (params.get("analyze") or [""])[0].lower() in ("1", "true", "yes", "on")
        explain_prefix, rest = split_explain(query)
        analyze_prefix, _ = split_analyze(rest) if explain_prefix else (False, rest)
        service: EngineService = self.server.service
        try:
            if explain_param or explain_prefix or analyze_param:
                self._send_json(
                    200,
                    service.explain(
                        query,
                        timeout_seconds=timeout,
                        max_rows=max_rows,
                        analyze=analyze_param or analyze_prefix,
                    ),
                )
                return
            response = service.execute(query, timeout_seconds=timeout, max_rows=max_rows)
        except (SparqlSyntaxError, UnsupportedQueryError, ValueError) as exc:
            self._send_error_json(400, type(exc).__name__, str(exc))
            return
        except QueryTimeout as exc:
            self._send_error_json(503, "QueryTimeout", str(exc))
            return
        except ServiceOverloaded as exc:
            # Retry-After tracks the median query latency: the sensible
            # moment to retry is when in-flight work has likely drained.
            self._send_error_json(
                503, "ServiceOverloaded", str(exc), retry_after=service.retry_after_seconds("query")
            )
            return
        except Exception as exc:  # pragma: no cover - defensive: keep the pool alive
            self._send_error_json(500, type(exc).__name__, str(exc))
            return
        self._send_result(response.result, params)

    # ------------------------------------------------------------------ #
    # update handling
    # ------------------------------------------------------------------ #
    def _handle_update(self, params: dict[str, list[str]]) -> None:
        update = (params.get("update") or [None])[0]
        if not update:
            self._send_error_json(400, "MissingUpdate", "no 'update' parameter supplied")
            return
        service: EngineService = self.server.service
        try:
            response = service.update(update)
        except ServiceReadOnly as exc:
            self._send_error_json(403, "ServiceReadOnly", str(exc))
            return
        except ServiceOverloaded as exc:
            self._send_error_json(
                503,
                "ServiceOverloaded",
                str(exc),
                retry_after=service.retry_after_seconds("update"),
            )
            return
        except (SparqlSyntaxError, UnsupportedQueryError, UpdateError, ValueError) as exc:
            self._send_error_json(400, type(exc).__name__, str(exc))
            return
        except Exception as exc:  # pragma: no cover - defensive: keep the pool alive
            self._send_error_json(500, type(exc).__name__, str(exc))
            return
        self._send_json(
            200,
            {
                **response.result.as_dict(),
                "data_version": response.data_version,
                "seconds": round(response.seconds, 6),
            },
        )

    def _send_result(self, result: ResultSet, params: dict[str, list[str]]) -> None:
        fmt = (params.get("format") or [None])[0]
        if fmt is None:
            accept = self.headers.get("Accept", "")
            fmt = "csv" if "text/csv" in accept else "json"
        fmt = fmt.lower()
        if fmt == "csv":
            self._send_body(200, result.to_csv().encode("utf-8"), CSV_MEDIA_TYPE)
        elif fmt == "json":
            payload = result.to_sparql_json().encode("utf-8")
            self._send_body(200, payload, JSON_MEDIA_TYPE)
        else:
            self._send_error_json(400, "BadFormat", f"unknown result format {fmt!r} (json, csv)")

    # ------------------------------------------------------------------ #
    # parameter parsing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _float_param(params: dict[str, list[str]], name: str) -> float | None:
        raw = (params.get(name) or [None])[0]
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"parameter {name!r} must be a number, got {raw!r}") from None

    @staticmethod
    def _int_param(params: dict[str, list[str]], name: str) -> int | None:
        raw = (params.get(name) or [None])[0]
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"parameter {name!r} must be an integer, got {raw!r}") from None

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #
    def _send_body(self, status: int, payload: bytes, content_type: str, **headers: object) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-").title(), str(value))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, document: dict, **headers: object) -> None:
        payload = json.dumps(document, ensure_ascii=False).encode("utf-8")
        self._send_body(status, payload, "application/json; charset=utf-8", **headers)

    def _send_error_json(
        self, status: int, error: str, message: str, retry_after: int | None = None
    ) -> None:
        headers = {"retry_after": retry_after} if retry_after is not None else {}
        self._send_json(status, {"error": error, "message": message}, **headers)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", False):
            super().log_message(format, *args)


class SparqlHTTPServer(HTTPServer):
    """An HTTP server dispatching requests onto a bounded thread pool.

    Unlike ``ThreadingHTTPServer`` (one unbounded thread per connection) the
    pool keeps the worker count fixed; the service's admission control then
    bounds concurrent *evaluation* below that.
    """

    def __init__(
        self,
        address: tuple[str, int],
        service: EngineService,
        workers: int = 8,
        quiet: bool = False,
        idle_connection_timeout: float | None = 30.0,
    ):
        self.service = service
        self.quiet = quiet
        self.idle_connection_timeout = idle_connection_timeout
        self._executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="sparql-worker")
        super().__init__(address, SparqlRequestHandler)

    def process_request(self, request, client_address) -> None:
        # Bound reads on kept-alive connections: without a socket timeout an
        # idle HTTP/1.1 client would pin one pool worker forever; on expiry
        # handle_one_request closes the connection and frees the worker.
        if self.idle_connection_timeout is not None:
            request.settimeout(self.idle_connection_timeout)
        self._executor.submit(self._work, request, client_address)

    def _work(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:  # pragma: no cover - socket-level failures
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        self._executor.shutdown(wait=False, cancel_futures=True)
        # Safe even when the service keeps running: the slow-query log
        # reopens lazily on its next write.
        self.service.close()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(
    engine_or_service: AmberEngine | EngineService,
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 16,
    config: ServiceConfig | None = None,
    quiet: bool = False,
) -> SparqlHTTPServer:
    """Build a ready-to-run server (call ``serve_forever()`` on the result).

    ``workers`` should exceed the service's ``max_in_flight`` so that excess
    requests reach admission control and get a fast 503 instead of queueing
    for a worker (the defaults are 16 workers over 8 in flight).
    """
    if isinstance(engine_or_service, EngineService):
        if config is not None:
            raise ValueError(
                "pass config when handing over an engine; an EngineService "
                "already carries its own ServiceConfig"
            )
        service = engine_or_service
    else:
        service = EngineService(engine_or_service, config)
    return SparqlHTTPServer((host, port), service, workers=workers, quiet=quiet)
