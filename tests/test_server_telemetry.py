"""End-to-end tests of the service telemetry: /metrics, EXPLAIN, slow log.

Covers the observability surface over real HTTP sockets (reusing the
``test_server_http`` idiom) plus direct ``EngineService`` calls where
the HTTP layer would only add noise (count/ask totals agreement).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import AmberEngine
from repro.cluster import ShardedEngine
from repro.errors import QueryTimeout
from repro.server import EngineService, ServiceConfig, serve
from repro.telemetry import parse_exposition, validate_exposition
from repro.timing import Deadline

pytestmark = pytest.mark.metrics

QUERY = "PREFIX y: <http://dbpedia.org/ontology/> SELECT ?p WHERE { ?p y:wasBornIn ?c . }"
COMPLEX_QUERY = """
PREFIX x: <http://dbpedia.org/resource/>
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?p ?c ?l WHERE {
  ?p y:wasBornIn ?c .
  OPTIONAL { ?c y:locatedIn ?l . }
  FILTER (?p != x:NoSuchPerson)
}
"""


def make_service(paper_store, **config) -> EngineService:
    engine = AmberEngine.from_store(paper_store)
    defaults = dict(plan_cache_size=32, result_cache_size=0)
    defaults.update(config)
    return EngineService(engine, ServiceConfig(**defaults))


@pytest.fixture()
def service(paper_store):
    service = make_service(paper_store)
    yield service
    service.close()


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


def scrape(service: EngineService) -> dict[str, dict]:
    text = service.prometheus()
    assert text is not None
    return parse_exposition(text)


def counter_total(families: dict, name: str, **labels) -> float:
    """Sum the samples named ``name`` (e.g. a histogram's ``*_count`` series)."""
    total = 0.0
    for family in families.values():
        for sample_name, sample_labels, value in family["samples"]:
            if sample_name == name and all(sample_labels.get(k) == v for k, v in labels.items()):
                total += value
    return total


class TestMetricsEndpoint:
    def test_scrape_is_valid_exposition(self, server):
        get(server, "/sparql", query=QUERY)
        status, headers, body = get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = parse_exposition(body.decode())
        for family in (
            "repro_queries_total",
            "repro_query_seconds",
            "repro_updates_total",
            "repro_stage_seconds",
            "repro_cache_requests_total",
            "repro_in_flight_queries",
            "repro_uptime_seconds",
        ):
            assert family in families, f"missing metric family {family}"

    def test_query_counters_and_stage_histograms_advance(self, server):
        _, _, before_body = get(server, "/metrics")
        before = parse_exposition(before_body.decode())
        for _ in range(3):
            get(server, "/sparql", query=QUERY)
        _, _, after_body = get(server, "/metrics")
        after = parse_exposition(after_body.decode())
        delta = counter_total(
            after, "repro_queries_total", kind="query", status="answered"
        ) - counter_total(before, "repro_queries_total", kind="query", status="answered")
        assert delta == 3
        # Stage histograms observe once per traced stage per query.
        match_delta = counter_total(
            after, "repro_stage_seconds_count", stage="engine.match"
        ) - counter_total(before, "repro_stage_seconds_count", stage="engine.match")
        assert match_delta == 3

    def test_metrics_disabled_returns_404(self, paper_store):
        service = make_service(paper_store, metrics_enabled=False)
        server = serve(service, host="127.0.0.1", port=0, workers=2, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/metrics", timeout=10)
            assert excinfo.value.code == 404
            assert service.prometheus() is None
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_sharded_engine_reports_per_shard_scatter_timings(self, paper_engine):
        engine = ShardedEngine.build(paper_engine.data, 2)
        service = EngineService(engine, ServiceConfig(plan_cache_size=8, result_cache_size=0))
        try:
            service.execute(QUERY)
            families = scrape(service)
            shard_counts = {
                labels["shard"]: value
                for name, labels, value in families["repro_scatter_shard_seconds"]["samples"]
                if name == "repro_scatter_shard_seconds_count"
            }
            assert set(shard_counts) == {"0", "1"}
            assert all(count >= 1 for count in shard_counts.values())
        finally:
            service.close()


class TestStatsMetricsAgreement:
    def test_all_query_kinds_count_in_both_surfaces(self, service):
        service.execute(QUERY)
        service.count(QUERY)
        service.ask(QUERY)
        with pytest.raises(Exception):
            service.execute("SELECT nonsense {")
        stats = service.stats()
        families = scrape(service)
        metrics_received = counter_total(families, "repro_queries_total")
        assert stats["queries"]["received"] == metrics_received == 4
        metrics_answered = counter_total(families, "repro_queries_total", status="answered")
        assert stats["queries"]["answered"] == metrics_answered == 3
        # count()/ask() feed the same latency recorder as execute().
        assert stats["latency"]["count"] == 3
        assert counter_total(families, "repro_query_seconds_count") == 3

    def test_scalar_kinds_are_distinguished_in_metrics(self, service):
        service.count(QUERY)
        service.ask(QUERY)
        service.ask(QUERY)
        families = scrape(service)
        assert counter_total(families, "repro_queries_total", kind="count") == 1
        assert counter_total(families, "repro_queries_total", kind="ask") == 2

    def test_cache_requests_mirror_lru_stats(self, service):
        for _ in range(4):
            service.execute(QUERY)
        families = scrape(service)
        plan_stats = service.plan_cache.stats()
        assert (
            counter_total(families, "repro_cache_requests_total", cache="plan", outcome="hit")
            == plan_stats.hits
        )
        assert (
            counter_total(families, "repro_cache_requests_total", cache="plan", outcome="miss")
            == plan_stats.misses
        )

    def test_stats_reports_telemetry_config(self, service):
        telemetry = service.stats()["telemetry"]
        assert telemetry["metrics_enabled"] is True
        assert telemetry["slow_query_log"] is None
        assert telemetry["slow_query_ms"] is None  # reported only with a log configured
        # The per-query record is always on: no tracing/profiling switches.
        assert "tracing" not in telemetry
        assert "profiling" not in telemetry


class TestExplain:
    def test_http_explain_param(self, server):
        status, _, body = get(server, "/sparql", query=QUERY, explain=1)
        assert status == 200
        document = json.loads(body)
        assert document["rows"] == 2
        assert document["variables"] == ["p"]
        assert {stage["stage"] for stage in document["stages"]} >= {"engine.match"}
        assert document["plan"]["op"] == "bgp"

    def test_http_explain_prefix(self, server):
        status, _, body = get(server, "/sparql", query="EXPLAIN " + QUERY)
        assert status == 200
        document = json.loads(body)
        assert document["rows"] == 2
        assert document["query"].lstrip().upper().startswith("PREFIX")

    def test_explain_algebra_plan_tree(self, service):
        document = service.explain(COMPLEX_QUERY)
        plan = document["plan"]
        # OPTIONAL + FILTER compiles to algebra: the outline nests operators.
        ops = set()

        def walk(node):
            ops.add(node["op"])
            for key in ("child", "left", "right"):
                if key in node:
                    walk(node[key])
            for branch in node.get("branches", ()):
                walk(branch)

        walk(plan)
        assert "leftjoin" in ops
        assert "bgp" in ops

    def test_explain_stage_timings_sum_to_total(self, paper_store):
        # Fresh service: cold plan cache, so parse/prepare/match all run.
        service = make_service(paper_store)
        try:
            document = service.explain(COMPLEX_QUERY)
            total = document["seconds"]
            stage_sum = sum(stage["seconds"] for stage in document["stages"])
            assert total > 0.0
            # Within 10% of the traced total (plus a microsecond floor so
            # sub-millisecond queries cannot flake on scheduler jitter).
            assert abs(total - stage_sum) <= max(0.1 * total, 5e-4)
            stage_names = [stage["stage"] for stage in document["stages"]]
            assert "sparql.parse" in stage_names
            assert "sparql.prepare" in stage_names
        finally:
            service.close()

    def test_explain_works_with_metrics_off(self, paper_store):
        service = make_service(paper_store, metrics_enabled=False)
        try:
            document = service.explain(QUERY)
            assert document["rows"] == 2
            assert document["stages"]  # EXPLAIN reads the record, not the registry
            assert document["trace"]["name"] == "query"
        finally:
            service.close()

    def test_explain_counts_toward_query_totals(self, service):
        service.explain(QUERY)
        families = scrape(service)
        assert counter_total(families, "repro_queries_total", kind="explain") == 1
        assert service.stats()["queries"]["received"] == 1


class TestSlowQueryLog:
    def test_slow_queries_are_logged_as_json_lines(self, paper_store, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        service = make_service(paper_store, slow_query_log_path=str(log_path), slow_query_ms=0.0)
        try:
            service.execute(QUERY)
            service.execute(COMPLEX_QUERY)
        finally:
            service.close()
        lines = log_path.read_text().splitlines()
        assert len(lines) == 2
        entries = [json.loads(line) for line in lines]
        for entry in entries:
            assert entry["kind"] == "query"
            assert entry["status"] == "answered"
            assert entry["seconds"] >= 0.0
            assert entry["threshold_ms"] == 0.0
            stage_names = {stage["stage"] for stage in entry["stages"]}
            assert "engine.match" in stage_names
        assert entries[0]["query"].lstrip().startswith("PREFIX")

    def test_fast_queries_stay_out_of_the_log(self, paper_store, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        service = make_service(
            paper_store, slow_query_log_path=str(log_path), slow_query_ms=60_000.0
        )
        try:
            service.execute(QUERY)
        finally:
            service.close()
        assert not log_path.exists() or log_path.read_text() == ""

    def test_timed_out_read_keeps_its_record(self, paper_store, tmp_path, monkeypatch):
        """A timeout's log entry names where the deadline fired, with its stages."""
        log_path = tmp_path / "slow.jsonl"
        service = make_service(paper_store, slow_query_log_path=str(log_path), slow_query_ms=0.0)

        def expire(self):
            raise QueryTimeout("forced")

        monkeypatch.setattr(Deadline, "check", expire)
        try:
            with pytest.raises(QueryTimeout):
                service.execute(COMPLEX_QUERY)
            families = scrape(service)
        finally:
            service.close()
        (entry,) = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert entry["status"] == "timeout"
        stage_names = [stage["stage"] for stage in entry["stages"]]
        assert "sparql.parse" in stage_names
        assert "engine.match" in stage_names
        assert entry["timed_out_in"].startswith(("algebra.", "amber.", "engine."))
        assert (
            counter_total(families, "repro_stage_seconds_count", stage="engine.match") == 1
        )

    def test_slow_query_counter_tracks_log(self, paper_store, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        service = make_service(paper_store, slow_query_log_path=str(log_path), slow_query_ms=0.0)
        try:
            service.execute(QUERY)
            service.execute(QUERY)
            families = scrape(service)
            assert counter_total(families, "repro_slow_queries_total") == 2
            assert service.stats()["telemetry"]["slow_queries"] == 2
        finally:
            service.close()


class TestResourceAccounting:
    """The per-query profile surface: metric families, ANALYZE, slow log."""

    def test_profile_families_feed_from_every_read(self, service):
        service.execute(QUERY)
        service.explain(COMPLEX_QUERY, analyze=True)
        text = service.prometheus()
        validate_exposition(text)
        families = parse_exposition(text)
        backend = service.engine.match_backend
        assert counter_total(
            families, "repro_query_candidates_total", backend=backend, stage="generated"
        ) > 0
        assert counter_total(families, "repro_query_solutions_total", backend=backend) > 0
        assert counter_total(families, "repro_query_operator_rows_total", backend=backend) > 0
        assert counter_total(families, "repro_query_index_probes_total", backend=backend) > 0

    def test_profile_families_round_trip_through_parser(self, service):
        """Every counter family survives an expose -> parse -> validate cycle."""
        service.execute(QUERY)
        text = service.prometheus()
        validate_exposition(text)
        families = parse_exposition(text)
        for family in (
            "repro_query_candidates_total",
            "repro_query_intersections_total",
            "repro_query_index_probes_total",
            "repro_query_operator_rows_total",
            "repro_query_solutions_total",
        ):
            assert family in families, f"missing metric family {family}"
            assert families[family]["type"] == "counter"

    def test_plain_reads_feed_counter_families(self, service):
        service.execute(QUERY)
        families = scrape(service)
        assert counter_total(families, "repro_query_candidates_total") > 0

    def test_service_explain_analyze_response(self, service):
        response = service.explain(QUERY, analyze=True)
        assert response["analyze"] is True
        assert response["rows"] == len(service.engine.query(QUERY))
        assert response["plan"]["actual_rows"] == response["rows"]
        assert response["plan"]["estimated_rows"] >= 1
        assert response["profile"]["counters"]
        json.dumps(response)  # JSON-ready end to end

    def test_plain_explain_reports_analyze_false(self, service):
        response = service.explain(QUERY)
        assert response["analyze"] is False
        assert "profile" not in response

    def test_http_analyze_param(self, server):
        status, _, body = get(server, "/sparql", query=QUERY, analyze="1")
        assert status == 200
        document = json.loads(body)
        assert document["analyze"] is True
        assert document["plan"]["actual_rows"] == document["rows"]

    def test_http_explain_analyze_prefix(self, server):
        status, _, body = get(server, "/sparql", query="EXPLAIN ANALYZE " + QUERY)
        assert status == 200
        document = json.loads(body)
        assert document["analyze"] is True
        assert "actual_rows" in document["plan"]

    def test_slow_log_carries_profile(self, paper_store, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        service = make_service(paper_store, slow_query_log_path=str(log_path), slow_query_ms=0.0)
        try:
            service.execute(QUERY)
        finally:
            service.close()
        entry = json.loads(log_path.read_text().splitlines()[0])
        assert entry["profile"]["counters"]["candidates.generated"] > 0
        assert "timed_out_in" not in entry  # answered, not timed out
