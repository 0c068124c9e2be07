"""End-to-end tests of the HTTP front end (real sockets, stdlib client)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import AmberEngine
from repro.server import EngineService, ServiceConfig, serve

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
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        try:
            connection.putrequest("POST", "/sparql", skip_accept_encoding=True)
            connection.putheader("Content-Type", "application/sparql-query")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()  # must answer, not block
            assert response.status == 400  # empty body -> MissingQuery
        finally:
            connection.close()
