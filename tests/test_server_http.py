"""End-to-end tests of the HTTP front end (real sockets, stdlib client)."""

from __future__ import annotations

import http.client
import json
import platform
import random
import re
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from email.utils import parsedate_to_datetime

import pytest

from repro import AmberEngine, __version__
from repro.server import EngineService, ServiceConfig, SparqlHTTPServer, serve

QUERY = "PREFIX y: <http://dbpedia.org/ontology/> SELECT ?p WHERE { ?p y:wasBornIn ?c . }"


@pytest.fixture(scope="module")
def server(paper_store):
    engine = AmberEngine.from_store(paper_store)
    service = EngineService(engine, ServiceConfig(plan_cache_size=32, result_cache_size=0))
    server = serve(service, host="127.0.0.1", port=0, workers=4, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def get(server, path: str, **params):
    url = server.url + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


def get_error(server, path: str, **params) -> tuple[int, dict]:
    url = server.url + path + ("?" + urllib.parse.urlencode(params) if params else "")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(url, timeout=10)
    return excinfo.value.code, json.loads(excinfo.value.read())


class TestSparqlEndpoint:
    def test_get_returns_w3c_json(self, server):
        status, headers, body = get(server, "/sparql", query=QUERY)
        assert status == 200
        assert headers["Content-Type"] == "application/sparql-results+json"
        document = json.loads(body)
        assert document["head"]["vars"] == ["p"]
        values = {b["p"]["value"] for b in document["results"]["bindings"]}
        assert values == {
            "http://dbpedia.org/resource/Christopher_Nolan",
            "http://dbpedia.org/resource/Amy_Winehouse",
        }
        assert all(b["p"]["type"] == "uri" for b in document["results"]["bindings"])

    def test_get_csv_format(self, server):
        status, headers, body = get(server, "/sparql", query=QUERY, format="csv")
        assert status == 200
        assert headers["Content-Type"].startswith("text/csv")
        lines = body.decode().split("\r\n")
        assert lines[0] == "p"
        assert "http://dbpedia.org/resource/Amy_Winehouse" in lines

    def test_accept_header_negotiates_csv(self, server):
        url = server.url + "/sparql?" + urllib.parse.urlencode({"query": QUERY})
        request = urllib.request.Request(url, headers={"Accept": "text/csv"})
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/csv")

    def test_post_form_encoded(self, server):
        data = urllib.parse.urlencode({"query": QUERY}).encode()
        request = urllib.request.Request(
            server.url + "/sparql",
            data=data,
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            document = json.load(response)
        assert len(document["results"]["bindings"]) == 2

    def test_post_raw_sparql_body(self, server):
        request = urllib.request.Request(
            server.url + "/sparql",
            data=QUERY.encode(),
            headers={"Content-Type": "application/sparql-query"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            document = json.load(response)
        assert len(document["results"]["bindings"]) == 2

    def test_repeated_queries_hit_plan_cache(self, server):
        before = server.service.plan_cache.stats().hits
        for _ in range(3):
            get(server, "/sparql", query=QUERY)
        assert server.service.plan_cache.stats().hits >= before + 2


class TestErrorMapping:
    def test_missing_query_is_400(self, server):
        code, document = get_error(server, "/sparql")
        assert code == 400
        assert document["error"] == "MissingQuery"

    def test_parse_error_is_400(self, server):
        code, document = get_error(
            server, "/sparql", query="SELECT ?x WHERE { ?x <http://e/p> ?o . } GROUP BY ?x"
        )
        assert code == 400
        assert "GROUP BY" in document["message"]

    def test_algebra_query_is_served_with_unbound_cells(self, server):
        query = (
            "PREFIX x: <http://dbpedia.org/resource/> "
            "PREFIX y: <http://dbpedia.org/ontology/> "
            "SELECT ?p ?band WHERE { ?p y:wasBornIn x:London . "
            "OPTIONAL { ?p y:wasPartOf ?band . } "
            "FILTER(?p != x:Nobody) }"
        )
        status, headers, body = get(server, "/sparql", query=query)
        assert status == 200
        document = json.loads(body)
        assert document["head"]["vars"] == ["p", "band"]
        bindings = {b["p"]["value"]: b.get("band") for b in document["results"]["bindings"]}
        # Amy Winehouse has a band; Christopher Nolan's ?band stays unbound
        # and the W3C serializer simply omits the cell.
        assert bindings["http://dbpedia.org/resource/Amy_Winehouse"] == {
            "type": "uri",
            "value": "http://dbpedia.org/resource/Music_Band",
        }
        assert bindings["http://dbpedia.org/resource/Christopher_Nolan"] is None

    def test_bad_parameter_is_400(self, server):
        code, document = get_error(server, "/sparql", query=QUERY, timeout="soon")
        assert code == 400
        assert document["error"] == "BadParameter"

    def test_timeout_is_503(self, server):
        code, document = get_error(server, "/sparql", query=QUERY, timeout="1e-9")
        assert code == 503
        assert document["error"] == "QueryTimeout"

    def test_unknown_path_is_404(self, server):
        code, document = get_error(server, "/nope")
        assert code == 404

    def test_unknown_format_is_400(self, server):
        code, document = get_error(server, "/sparql", query=QUERY, format="xml")
        assert code == 400
        assert document["error"] == "BadFormat"

    def test_errors_do_not_kill_the_pool(self, server):
        get_error(server, "/sparql", query="not sparql at all {{{")
        status, _, _ = get(server, "/sparql", query=QUERY)
        assert status == 200


class TestOperationalEndpoints:
    def test_health(self, server):
        status, _, body = get(server, "/health")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_stats_exposes_build_report_and_caches(self, server):
        get(server, "/sparql", query=QUERY)
        status, headers, body = get(server, "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["build_report"]["triples"] > 0
        assert stats["queries"]["received"] >= 1
        assert stats["plan_cache"]["capacity"] == 32
        assert "p50_seconds" in stats["latency"]


class TestRetryAfter:
    """Admission-control 503s advertise when to retry, from observed p50."""

    @pytest.fixture()
    def overloaded_server(self, paper_store):
        engine = AmberEngine.from_store(paper_store)
        config = ServiceConfig(max_in_flight=0, max_pending_updates=0)
        service = EngineService(engine, config)
        server = serve(service, host="127.0.0.1", port=0, workers=2, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def _rejected(self, server, path, data=None):
        url = server.url + path
        request = urllib.request.Request(url, data=data)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        return excinfo.value

    def test_query_rejection_has_retry_after_floor(self, overloaded_server):
        error = self._rejected(
            overloaded_server, "/sparql?" + urllib.parse.urlencode({"query": QUERY})
        )
        assert error.code == 503
        assert error.headers["Retry-After"] == "1"

    def test_update_rejection_has_retry_after(self, overloaded_server):
        body = urllib.parse.urlencode(
            {"update": "INSERT DATA { <http://e/s> <http://e/p> <http://e/o> }"}
        ).encode()
        error = self._rejected(overloaded_server, "/update", data=body)
        assert error.code == 503
        assert error.headers["Retry-After"] == "1"

    def test_retry_after_tracks_observed_p50(self, overloaded_server):
        service = overloaded_server.service
        for seconds in (2.4, 2.4, 2.6):
            service.latency.observe(seconds)
        error = self._rejected(
            overloaded_server, "/sparql?" + urllib.parse.urlencode({"query": QUERY})
        )
        assert error.headers["Retry-After"] == "3"
        for seconds in (4.2, 4.2, 4.8):
            service.update_latency.observe(seconds)
        body = urllib.parse.urlencode(
            {"update": "INSERT DATA { <http://e/s> <http://e/p> <http://e/o> }"}
        ).encode()
        error = self._rejected(overloaded_server, "/update", data=body)
        assert error.headers["Retry-After"] == "5"


class TestRequestLimits:
    def test_oversized_post_body_is_413(self, server):
        request = urllib.request.Request(
            server.url + "/sparql",
            data=b"x",  # tiny actual body; the declared length is what counts
            headers={
                "Content-Type": "application/sparql-query",
                "Content-Length": str(64 * 1024 * 1024),
            },
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413
        assert json.loads(excinfo.value.read())["error"] == "PayloadTooLarge"

    def test_negative_content_length_does_not_hang_a_worker(self, server):
        # A negative declared length must not turn into a read-to-EOF.
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.putrequest("POST", "/sparql", skip_accept_encoding=True)
            connection.putheader("Content-Type", "application/sparql-query")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()  # must answer, not block
            assert response.status == 400  # a malformed Content-Length
        finally:
            connection.close()


# --------------------------------------------------------------------------- #
# the HTTP/1.1 transport, on raw sockets
# --------------------------------------------------------------------------- #
HEALTH = b"GET /health HTTP/1.1\r\nHost: test\r\n"


def exchange(server, raw: bytes, half_close: bool = True) -> bytes:
    """Send ``raw`` on a fresh connection; everything read until the server closes.

    ``half_close`` ends the request stream so that a server waiting for
    more bytes sees end-of-file.  A reset while sending or reading counts as
    the server's close: it may refuse a request before reading all of it.
    """
    chunks = []
    with socket.create_connection(server.server_address[:2], timeout=10) as sock:
        try:
            sock.sendall(raw)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except (BrokenPipeError, ConnectionResetError):
            pass
    return b"".join(chunks)


def parse_responses(data: bytes) -> list[tuple[int, list[tuple[str, str]], bytes]]:
    """Split a byte stream into ``(status, header pairs, body)`` responses."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"response head without an end: {data[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        match = re.fullmatch(r"HTTP/1\.1 (\d{3}) [A-Za-z -]+", status_line)
        assert match, f"bad status line {status_line!r}"
        headers = [tuple(line.split(": ", 1)) for line in lines]
        length = int(dict(headers).get("Content-Length", 0))
        responses.append((int(match[1]), headers, rest[:length]))
        data = rest[length:]
    return responses


class TestHttpTransport:
    def test_two_requests_share_one_http11_connection(self, server):
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            connection.request("GET", "/health")
            first = connection.getresponse()
            assert (first.status, json.loads(first.read())) == (200, {"status": "ok"})
            sock = connection.sock
            connection.request("GET", "/sparql?" + urllib.parse.urlencode({"query": QUERY}))
            second = connection.getresponse()
            assert second.status == 200
            assert len(json.loads(second.read())["results"]["bindings"]) == 2
            assert connection.sock is sock
        finally:
            connection.close()

    def test_pipelined_requests_are_answered_in_order(self, server):
        responses = parse_responses(
            exchange(server, HEALTH + b"\r\n" + b"GET /nope HTTP/1.1\r\n\r\n")
        )
        assert [status for status, _, _ in responses] == [200, 404]

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /health HTTP/1.0\r\n\r\n",
            HEALTH + b"Connection: close\r\n\r\n",
            b"GET /health HTTP/1.1\r\nConnection: Keep-Alive, close\r\n\r\n",
        ],
        ids=["http10", "connection-close", "close-in-a-list"],
    )
    def test_connection_closes_after_the_response(self, server, request_bytes):
        # No half-close: only the server's own close ends the read.
        responses = parse_responses(exchange(server, request_bytes, half_close=False))
        assert [status for status, _, _ in responses] == [200]

    def test_http10_keep_alive_stays_open(self, server):
        keep_alive = b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        responses = parse_responses(exchange(server, keep_alive * 2))
        assert [status for status, _, _ in responses] == [200, 200]

    def test_expect_100_continue_precedes_the_final_response(self, server):
        body = urllib.parse.urlencode({"query": QUERY}).encode()
        head = (
            b"POST /sparql HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n"
            b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(body)
        )
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.sendall(head)
            interim = sock.recv(65536)  # sent before the body exists
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        [(status, _, payload)] = parse_responses(b"".join(chunks))
        assert status == 200
        assert len(json.loads(payload)["results"]["bindings"]) == 2

    def test_response_head_format(self, server):
        [(status, headers, payload)] = parse_responses(
            exchange(server, HEALTH + b"Connection: close\r\n\r\n")
        )
        assert status == 200
        assert [name for name, _ in headers] == [
            "Server",
            "Date",
            "Content-Type",
            "Content-Length",
        ]
        fields = dict(headers)
        assert fields["Server"] == f"repro-sparql/{__version__} Python/{platform.python_version()}"
        assert re.fullmatch(
            r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d{2} "
            r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
            r"\d{2}:\d{2}:\d{2} GMT",
            fields["Date"],
        )
        assert abs(parsedate_to_datetime(fields["Date"]).timestamp() - time.time()) < 60
        assert fields["Content-Type"] == "application/json; charset=utf-8"
        assert fields["Content-Length"] == str(len(payload)) == "16"

    def test_chunked_body_gets_one_json_501_and_a_close(self, server):
        query = urllib.parse.urlencode({"query": QUERY}).encode()
        chunked = (
            b"POST /sparql HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n\r\n"
            + b"%x\r\n" % len(query)
            + query
            + b"\r\n0\r\n\r\n"
        )
        data = exchange(server, chunked, half_close=False)
        [(status, headers, payload)] = parse_responses(data)
        assert status == 501
        assert ("Connection", "close") in headers
        assert json.loads(payload)["error"] == "NotImplemented"

    def test_idle_connection_is_closed_and_its_worker_freed(self, paper_store):
        service = EngineService(AmberEngine.from_store(paper_store))
        idle_server = SparqlHTTPServer(
            ("127.0.0.1", 0), service, workers=1, quiet=True, idle_connection_timeout=0.3
        )
        thread = threading.Thread(target=idle_server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(idle_server.server_address[:2], timeout=10) as idle:
                started = time.monotonic()
                assert idle.recv(1) == b""  # the server hung up on the silent client
                assert time.monotonic() - started < 5
            # The only worker is free again.
            responses = parse_responses(
                exchange(idle_server, HEALTH + b"\r\n", half_close=False)
            )
            assert [status for status, _, _ in responses] == [200]
        finally:
            idle_server.shutdown()
            idle_server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()


def hostile_requests(seed: int) -> list[bytes]:
    """About 200 malformed requests: hand-picked shapes, then seeded noise."""
    rng = random.Random(seed)
    post = b"POST /sparql HTTP/1.1\r\nContent-Type: application/sparql-query\r\n"
    picked = [
        b"GET /health HTTP/1.1",
        b"GET /health",
        b"GET",
        HEALTH,
        b"\r\n",
        b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
        b"GET /health HTTP/0.9\r\n\r\n",
        b"GET /health HTTP/2.0\r\n\r\n",
        b"GET /health HTTP/1\r\n\r\n",
        b"GET /health HTTPS/1.1\r\n\r\n",
        b"GET /health HTTP/1.1 extra\r\n\r\n",
        b"GET /health\r\n\r\n",
        HEALTH + b"".join(b"X-Header-%d: v\r\n" % i for i in range(101)) + b"\r\n",
        HEALTH + b"X-Big: " + b"v" * (70 * 1024) + b"\r\n\r\n",
        HEALTH + b"no colon in this header line\r\n\r\n",
        HEALTH + b": no name\r\n\r\n",
        HEALTH + b" Folded: line\r\n\r\n",
        post + b"Content-Length: abc\r\n\r\nSELECT",
        post + b"Content-Length: -5\r\n\r\n",
        post + b"Content-Length: 1e3\r\n\r\n",
        post + b"Content-Length: \xb2\r\n\r\n",
        post + b"Content-Length: 99999999999999999999\r\n\r\n",
        post + b"Content-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
        post + b"Content-Length: 50\r\n\r\nshort",
        post + b"Transfer-Encoding: gzip\r\n\r\n",
        b"BREW /pot HTTP/1.1\r\n\r\n",
        b"DELETE /sparql HTTP/1.1\r\n\r\n",
        b"HEAD /health HTTP/1.1\r\n\r\n",
        b"get /health HTTP/1.1\r\n\r\n",
        b"\x00\x01\x02 / HTTP/1.1\r\n\r\n",
    ]
    valid = HEALTH + b"Accept: */*\r\n\r\n"
    noise = []
    while len(picked) + len(noise) < 200:
        kind = rng.randrange(3)
        if kind == 0:
            noise.append(rng.randbytes(rng.randrange(1, 600)))
        elif kind == 1:
            noise.append(valid[: rng.randrange(1, len(valid))])
        else:
            mutated = bytearray(valid)
            for _ in range(rng.randrange(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            noise.append(bytes(mutated))
    return picked + noise


class TestHostileInput:
    def test_malformed_requests_get_json_errors_or_a_clean_close(self, server):
        for raw in hostile_requests(seed=7):
            data = exchange(server, raw)
            assert b"<html" not in data.lower(), raw[:80]
            for status, headers, payload in parse_responses(data):
                assert status != 500 and (status < 500 or status in (501, 505)), raw[:80]
                if status >= 400:
                    assert dict(headers)["Content-Type"].startswith("application/json")
                    assert "error" in json.loads(payload), raw[:80]
        status, _, body = get(server, "/health")
        assert (status, json.loads(body)) == (200, {"status": "ok"})

    @pytest.mark.parametrize(
        ("request_bytes", "expected"),
        [
            (b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /health HTTP/0.9\r\n\r\n", 505),
            (b"GET /health HTTP/2.0\r\n\r\n", 505),
            (b"GET /health\r\n\r\n", 400),
            (HEALTH + b"".join(b"X-%d: v\r\n" % i for i in range(101)) + b"\r\n", 431),
            (HEALTH + b"X-Big: " + b"v" * (70 * 1024) + b"\r\n\r\n", 431),
            (HEALTH + b"no colon\r\n\r\n", 400),
            (b"POST /sparql HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"BREW /pot HTTP/1.1\r\n\r\n", 501),
        ],
        ids=[
            "long-line",
            "http09",
            "http2",
            "two-words",
            "101-headers",
            "70k-header",
            "no-colon",
            "bad-length",
            "unknown-method",
        ],
    )
    def test_protocol_errors_map_to_their_status(self, server, request_bytes, expected):
        [(status, headers, payload)] = parse_responses(exchange(server, request_bytes))
        assert status == expected
        assert ("Connection", "close") in headers
        assert set(json.loads(payload)) == {"error", "message"}

    def test_exactly_100_headers_are_accepted(self, server):
        headers = b"".join(b"X-%d: v\r\n" % i for i in range(99))  # plus Host
        [(status, _, _)] = parse_responses(exchange(server, HEALTH + headers + b"\r\n"))
        assert status == 200
