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

Requests run on a bounded worker pool over ``socketserver``, whose HTTP/1.1
subset (keep-alive, ``Expect: 100-continue``, heads of at most 100 lines of
64 KiB, ``Content-Length`` bodies up to 1 MiB) spares the process
``http.server`` and with it ``http.client``, ``email`` and ``ssl``.  Error
mapping is parse/execution error -> 400, read-only rejection -> 403, query
timeout / admission rejection -> 503; a protocol error (400, 413, 414, 431,
505, 501 for an unknown method or any ``Transfer-Encoding``) gets the same
JSON body, then the connection closes.
"""

from __future__ import annotations

import json
import re
import socketserver
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
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
#: Caps on the request head, the ones ``http.server`` applies.
MAX_LINE_BYTES = 1 << 16
MAX_HEADERS = 100

_VERSION = re.compile(r"HTTP/(\d{1,9})\.(\d{1,9})", re.ASCII)
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
#: Escapes control characters of a logged request line, as ``http.server`` does.
_CONTROL_CHARS = str.maketrans({c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))})


def _http_date(timestamp: float) -> str:
    """``timestamp`` as an IMF-fixdate (``Sun, 06 Nov 1994 08:49:37 GMT``), in any locale."""
    t = time.gmtime(timestamp)
    return time.strftime(f"{_DAYS[t.tm_wday]}, %d {_MONTHS[t.tm_mon - 1]} %Y %H:%M:%S GMT", t)


class _Headers(dict):
    """Request header fields under lower-cased names; ``get`` ignores case."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class _ProtocolError(Exception):
    """``(status, error, message)`` of a refused request: a JSON reply, then a close."""


class SparqlRequestHandler(socketserver.StreamRequestHandler):
    """One keep-alive HTTP connection against the shared engine service."""

    server_version = f"repro-sparql/{__version__}"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self.requestline = ""
                try:
                    if not self._read_request():
                        return
                except _ProtocolError as exc:
                    self._send_error_json(*exc.args, connection="close")
                    return
                getattr(self, "do_" + self.command)()
        except OSError:  # idle timeout, or the client went away
            pass

    def _read_request(self) -> bool:
        """Read one request's head and body; False when the client closed first."""
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _ProtocolError(414, "URITooLong", f"request line over {MAX_LINE_BYTES} bytes")
        self.requestline = line.decode("iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) != 3:
            raise _ProtocolError(400, "BadRequest", f"bad request line {self.requestline!r}")
        self.command, self.path, self.request_version = words
        version = _VERSION.fullmatch(self.request_version)
        if version is None:
            raise _ProtocolError(400, "BadRequest", f"bad version {self.request_version!r}")
        if int(version[1]) != 1:
            raise _ProtocolError(505, "VersionNotSupported", f"{self.request_version} not served")
        if self.path.startswith("//"):  # would read as a network location
            self.path = "/" + self.path.lstrip("/")
        self.headers = headers = _Headers()
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise _ProtocolError(431, "HeaderTooLarge", f"header over {MAX_LINE_BYTES} bytes")
            if not line:
                return False
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _ProtocolError(400, "BadRequest", f"malformed header {line[:80]!r}")
            key, value = name.lower(), value.strip()
            if headers.setdefault(key, value) != value and key == "content-length":
                raise _ProtocolError(400, "BadRequest", "conflicting Content-Length headers")
        else:
            raise _ProtocolError(431, "HeaderTooLarge", f"more than {MAX_HEADERS} headers")
        http10 = int(version[2]) == 0
        tokens = {token.strip().lower() for token in headers.get("Connection", "").split(",")}
        self.close_connection = "keep-alive" not in tokens if http10 else "close" in tokens
        if not hasattr(self, "do_" + self.command):
            raise _ProtocolError(501, "NotImplemented", f"method {self.command!r} not served")
        if "transfer-encoding" in headers:
            raise _ProtocolError(501, "NotImplemented", "Transfer-Encoding is not served")
        length = headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _ProtocolError(400, "BadRequest", f"bad Content-Length {length!r}")
        length = int(length)
        if length > MAX_REQUEST_BODY_BYTES:
            # Unread, the body would be misread as the next request.
            message = f"request body of {length} bytes exceeds {MAX_REQUEST_BODY_BYTES} bytes"
            raise _ProtocolError(413, "PayloadTooLarge", message)
        if not http10 and headers.get("Expect", "").lower() == "100-continue":
            self.wfile.write(f"{self.protocol_version} 100 Continue\r\n\r\n".encode("latin-1"))
        self.body = self.rfile.read(length)
        return len(self.body) == length

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - named after the method
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

    def do_POST(self) -> None:  # noqa: N802 - named after the method
        url = urlsplit(self.path)
        if url.path == "/sparql":
            self._handle_query(self._read_post_params(url, raw_body_key="query"))
        elif url.path == "/update":
            self._handle_update(self._read_post_params(url, raw_body_key="update"))
        else:
            self._send_error_json(404, "NotFound", f"no handler for {url.path}")

    def _read_post_params(self, url, raw_body_key: str) -> dict[str, list[str]]:
        """Merge query-string and POST-body parameters.

        A raw (non-form) body is the SPARQL protocol's "via POST directly"
        form: the whole body is the query or update text, stored under
        ``raw_body_key``.
        """
        body = self.body.decode("utf-8", errors="replace")
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
            timeout = self._number_param(params, "timeout", float)
            max_rows = self._number_param(params, "max_rows", int)
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
    def _number_param(params: dict[str, list[str]], name: str, kind: type) -> float | int | None:
        raw = (params.get(name) or [None])[0]
        if raw is None:
            return None
        try:
            return kind(raw)
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise ValueError(f"parameter {name!r} must be {noun}, got {raw!r}") from None

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #
    def _send_body(self, status: int, payload: bytes, content_type: str, **headers: object) -> None:
        lines = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.server_version} Python/{sys.version.split()[0]}",
            f"Date: {_http_date(time.time())}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
        ]
        lines += [f"{name.replace('_', '-').title()}: {value}" for name, value in headers.items()]
        self.log_request(status)
        # Head and body leave in two writes, as http.server sends them.
        self.wfile.write("\r\n".join([*lines, "", ""]).encode("latin-1"))
        self.wfile.write(payload)

    def _send_json(self, status: int, document: dict, **headers: object) -> None:
        payload = json.dumps(document, ensure_ascii=False).encode("utf-8")
        self._send_body(status, payload, "application/json; charset=utf-8", **headers)

    def _send_error_json(
        self, status: int, error: str, message: str, retry_after: int | None = None, **headers
    ) -> None:
        if retry_after is not None:
            headers["retry_after"] = retry_after
        self._send_json(status, {"error": error, "message": message}, **headers)

    def log_request(self, status: int) -> None:
        """One access-log line on stderr, in ``http.server``'s format."""
        if self.server.quiet:
            return
        now = time.localtime()
        stamp = time.strftime(f"%d/{_MONTHS[now.tm_mon - 1]}/%Y %H:%M:%S", now)
        message = f'"{self.requestline}" {status} -'.translate(_CONTROL_CHARS)
        sys.stderr.write(f"{self.client_address[0]} - - [{stamp}] {message}\n")


class SparqlHTTPServer(socketserver.TCPServer):
    """An HTTP server dispatching requests onto a bounded thread pool.

    Unlike ``ThreadingHTTPServer`` (one unbounded thread per connection) the
    pool keeps the worker count fixed; the service's admission control then
    bounds concurrent *evaluation* below that.
    """

    allow_reuse_address = True

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
        # the handler's keep-alive loop ends and frees the worker.
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
