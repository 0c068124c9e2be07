"""Unit tests for the service layer: caches, limits, admission, stats."""

from __future__ import annotations

import threading

import pytest

from repro import AmberEngine, QueryTimeout
from repro.server import EngineService, LRUCache, ServiceConfig, ServiceOverloaded
from repro.telemetry import Summary

QUERY = "PREFIX y: <http://dbpedia.org/ontology/> SELECT ?p WHERE { ?p y:wasBornIn ?c . }"
OTHER = "PREFIX y: <http://dbpedia.org/ontology/> SELECT ?p WHERE { ?p y:livedIn ?c . }"


class TestLRUCache:
    def test_get_put_and_recency_eviction(self):
        cache: LRUCache[str, int] = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_stats_counters(self):
        cache: LRUCache[str, int] = LRUCache(1)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert stats.size == 1 and stats.capacity == 1
        assert stats.hit_rate == 0.5

    def test_zero_capacity_disables(self):
        cache: LRUCache[str, int] = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_overwrite_keeps_size(self):
        cache: LRUCache[str, int] = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 7)
        assert cache.get("a") == 7
        assert len(cache) == 1


class TestLatencySummary:
    def test_percentiles_over_window(self):
        recorder = Summary(window=100)
        for value in range(1, 101):
            recorder.observe(value / 100)
        snap = recorder.snapshot()
        assert snap["count"] == 100
        assert snap["p50_seconds"] == pytest.approx(0.5, abs=0.02)
        assert snap["p99_seconds"] == pytest.approx(0.99, abs=0.02)

    def test_empty_snapshot(self):
        snap = Summary().snapshot()
        assert snap["count"] == 0
        assert snap["p50_seconds"] is None


@pytest.fixture()
def service(paper_store) -> EngineService:
    engine = AmberEngine.from_store(paper_store)
    return EngineService(engine, ServiceConfig(plan_cache_size=8, result_cache_size=8))


class TestEngineService:
    def test_repeated_query_hits_plan_cache(self, paper_store):
        engine = AmberEngine.from_store(paper_store)
        service = EngineService(engine, ServiceConfig(plan_cache_size=8, result_cache_size=0))
        first = service.execute(QUERY)
        second = service.execute(QUERY)
        assert first.result.same_solutions(second.result)
        stats = service.plan_cache.stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_plan_cache_shared_with_engine(self, service):
        service.execute(QUERY)
        # The hook lives on the engine: direct engine use hits the same cache.
        service.engine.query(QUERY)
        assert service.plan_cache.stats().hits >= 1

    def test_result_cache_round_trip(self, service):
        first = service.execute(QUERY)
        second = service.execute(QUERY)
        assert not first.from_result_cache
        assert second.from_result_cache
        assert second.result is first.result

    def test_result_cache_disabled_by_default(self, paper_store):
        service = EngineService(AmberEngine.from_store(paper_store))
        service.execute(QUERY)
        assert not service.execute(QUERY).from_result_cache

    def test_row_cap_enforced(self, paper_store):
        service = EngineService(
            AmberEngine.from_store(paper_store), ServiceConfig(max_rows=1)
        )
        assert len(service.execute(QUERY).result) == 1
        # Client-requested limits above the cap are clamped, below it honoured.
        assert len(service.execute(QUERY, max_rows=50).result) == 1

    def test_timeout_counted(self, service):
        with pytest.raises(QueryTimeout):
            service.execute(QUERY, timeout_seconds=1e-9)
        assert service.stats()["queries"]["timeouts"] == 1

    def test_parse_error_counted(self, service):
        from repro.sparql.tokenizer import SparqlSyntaxError

        with pytest.raises(SparqlSyntaxError):
            service.execute("SELECT ?x WHERE { ?x <http://e/p> ?o . } ORDER BY ?x")
        assert service.stats()["queries"]["parse_errors"] == 1

    def test_invalid_limits_rejected(self, service):
        with pytest.raises(ValueError):
            service.execute(QUERY, timeout_seconds=-1)
        with pytest.raises(ValueError):
            service.execute(QUERY, max_rows=0)

    def test_admission_control_rejects_excess(self, paper_store):
        engine = AmberEngine.from_store(paper_store)
        service = EngineService(engine, ServiceConfig(max_in_flight=1, result_cache_size=0))
        entered = threading.Event()
        release = threading.Event()
        real_execute = engine.execute

        def blocking_execute(*args, **kwargs):
            entered.set()
            release.wait(timeout=5)
            return real_execute(*args, **kwargs)

        engine.execute = blocking_execute  # instance attribute shadows the method
        try:
            worker = threading.Thread(target=lambda: service.execute(QUERY), daemon=True)
            worker.start()
            assert entered.wait(timeout=5)
            with pytest.raises(ServiceOverloaded):
                service.execute(OTHER)
        finally:
            release.set()
            worker.join(timeout=5)
            del engine.execute
        stats = service.stats()["queries"]
        assert stats["rejected"] == 1
        assert stats["answered"] == 1
        assert stats["in_flight"] == 0

    def test_stats_shape(self, service):
        service.execute(QUERY)
        stats = service.stats()
        assert stats["build_report"]["triples"] > 0
        assert stats["engine"]["vertices"] > 0
        assert stats["queries"]["received"] == 1
        assert stats["latency"]["count"] == 1
        assert set(stats["plan_cache"]) >= {"hits", "misses", "size", "capacity"}
        assert stats["limits"]["max_in_flight"] == service.config.max_in_flight


class TestPlanCacheAdoption:
    def test_caller_installed_cache_is_adopted_not_clobbered(self, paper_store):
        engine = AmberEngine.from_store(paper_store)
        mine: LRUCache = LRUCache(4)
        engine.plan_cache = mine
        service = EngineService(engine, ServiceConfig(plan_cache_size=8))
        assert engine.plan_cache is mine
        assert service.plan_cache is mine
        service.execute(QUERY)
        assert mine.stats().misses == 1

    def test_disabled_plan_cache_leaves_engine_cache_alone(self, paper_store):
        engine = AmberEngine.from_store(paper_store)
        mine: LRUCache = LRUCache(4)
        engine.plan_cache = mine
        EngineService(engine, ServiceConfig(plan_cache_size=0))
        assert engine.plan_cache is mine


class TestReviewRegressions:
    def test_nan_timeout_rejected(self, service):
        with pytest.raises(ValueError):
            service.execute(QUERY, timeout_seconds=float("nan"))
        with pytest.raises(ValueError):
            service.execute(QUERY, timeout_seconds=float("inf"))

    def test_custom_plan_cache_reported_as_external(self, paper_store):
        class DictPlanCache:
            def __init__(self):
                self.entries = {}

            def get(self, key):
                return self.entries.get(key)

            def put(self, key, value):
                self.entries[key] = value

        engine = AmberEngine.from_store(paper_store)
        engine.plan_cache = DictPlanCache()
        service = EngineService(engine)
        service.execute(QUERY)
        assert service.stats()["plan_cache"] == {"external": True}
        assert QUERY in engine.plan_cache.entries

    def test_serve_rejects_config_with_service(self, paper_store):
        from repro.server import serve

        service = EngineService(AmberEngine.from_store(paper_store))
        with pytest.raises(ValueError):
            serve(service, port=0, config=ServiceConfig())


class TestInvalidParameterCounting:
    def test_invalid_parameters_visible_in_stats(self, service):
        with pytest.raises(ValueError):
            service.execute(QUERY, timeout_seconds=float("nan"))
        with pytest.raises(ValueError):
            service.execute(QUERY, max_rows=-3)
        queries = service.stats()["queries"]
        assert queries["received"] == 2
        assert queries["invalid_parameters"] == 2
        assert queries["answered"] == 0
