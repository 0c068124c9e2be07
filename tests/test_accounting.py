"""Per-query resource accounting: record counters, EXPLAIN ANALYZE, shard rollup.

Covers the counter half of :class:`repro.telemetry.QueryRecord`, the
engine's ``analyze`` execute mode (estimated *and* actual rows on every
plan operator), backend parity of the plan tree shape, the scalar-fallback
counter, and the per-shard sub-record rollup invariant on the cluster
engine at several shard counts.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import AmberEngine
from repro.amber import vectorized
from repro.cluster import ShardedEngine
from repro.telemetry import QueryRecord, ShardRecord, current_record, start_record

pytestmark = pytest.mark.metrics

PREFIXES = """
PREFIX x: <http://dbpedia.org/resource/>
PREFIX y: <http://dbpedia.org/ontology/>
"""

BGP_QUERY = PREFIXES + "SELECT ?p ?c WHERE { ?p y:wasBornIn ?c . }"
OPTIONAL_QUERY = PREFIXES + (
    "SELECT ?p ?c ?w WHERE { ?p y:wasBornIn ?c . OPTIONAL { ?p y:livedIn ?w . } }"
)
UNION_QUERY = PREFIXES + (
    "SELECT ?p WHERE { { ?p y:wasBornIn x:London . } UNION { ?p y:diedIn x:London . } }"
)
FILTER_QUERY = PREFIXES + (
    "SELECT ?p ?c WHERE { ?p y:wasBornIn ?c . FILTER (?p != x:NoSuchPerson) }"
)
ALGEBRA_QUERIES = (OPTIONAL_QUERY, UNION_QUERY, FILTER_QUERY)


def iter_outline(node: dict):
    """Preorder walk over a plan-outline dict tree."""
    yield node
    for key in ("left", "right", "child"):
        child = node.get(key)
        if isinstance(child, dict):
            yield from iter_outline(child)
    for branch in node.get("branches", ()):
        yield from iter_outline(branch)


def outline_shape(node: dict):
    """The backend-independent structure: operators, ids and nesting only."""
    shape = {"op": node["op"], "id": node["id"]}
    for key in ("left", "right", "child"):
        child = node.get(key)
        if isinstance(child, dict):
            shape[key] = outline_shape(child)
    if "branches" in node:
        shape["branches"] = [outline_shape(branch) for branch in node["branches"]]
    return shape


class TestRecordCounters:
    def test_no_record_outside_a_request(self):
        assert current_record() is None

    def test_count_accumulates_and_reads_operator_rows(self):
        record = QueryRecord()
        with start_record(record) as active:
            assert active is record
            assert current_record() is record
            record.count("candidates.generated", 3)
            record.count("candidates.generated", 2)
            record.count("intersections")
            record.count("op.0.rows", 4)
        assert current_record() is None
        assert record.counters["candidates.generated"] == 5
        assert record.counters["intersections"] == 1
        assert record.operator_rows() == {0: 4}

    def test_records_nest_and_restore(self):
        with start_record() as outer:
            outer.count("outer.only")
            with start_record() as inner:
                current_record().count("inner.only")
            assert current_record() is outer
            current_record().count("outer.only")
        assert outer.counters == {"outer.only": 2}
        assert inner.counters == {"inner.only": 1}

    def test_absorb_keeps_rollup_invariant(self):
        record = QueryRecord()
        record.absorb(ShardRecord(0, 0.5, {"candidates.generated": 3, "intersections": 1}))
        record.absorb(ShardRecord(1, 0.25, {"candidates.generated": 4}), matches=2)
        for name in ("candidates.generated", "intersections"):
            total = sum(sub.get(name, 0) for sub in record.shards.values())
            assert record.counters[name] == total
        payload = record.profile()
        assert payload["counters"]["candidates.generated"] == 7
        assert payload["shards"]["1"] == {"candidates.generated": 4}
        assert record.shard_timings() == [
            {"seconds": 0.5, "shard": 0},
            {"seconds": 0.25, "shard": 1, "matches": 2},
        ]

    def test_add_merges_a_tally(self):
        record = QueryRecord()
        record.count("a")
        record.add({"a": 2, "b": 3})
        assert record.counters == {"a": 3, "b": 3}

    def test_shard_record_survives_pickling(self):
        with start_record() as record:
            record.count("candidates.generated", 9)
        shipped = pickle.loads(pickle.dumps(record.as_shard(2)))
        assert shipped == ShardRecord(2, record.root.seconds, {"candidates.generated": 9})


class TestAnalyzeMode:
    def test_analyze_reports_estimates_and_actuals(self, paper_engine):
        outcome = paper_engine.execute(OPTIONAL_QUERY, mode="analyze")
        payload = outcome.plan
        assert payload["match_backend"] == paper_engine.match_backend
        expected = len(paper_engine.query(OPTIONAL_QUERY))
        assert payload["rows"] == expected
        nodes = list(iter_outline(payload["plan"]))
        assert {node["op"] for node in nodes} >= {"leftjoin", "bgp"}
        for node in nodes:
            assert node["estimated_rows"] >= 0
            assert node["actual_rows"] >= 0
        root = payload["plan"]
        assert root["actual_rows"] == expected
        assert payload["profile"]["counters"]
        json.dumps(payload)  # the whole response must be JSON-ready

    def test_plain_bgp_analyze(self, paper_engine):
        payload = paper_engine.execute(BGP_QUERY, mode="analyze").plan
        root = payload["plan"]
        assert root["op"] == "bgp"
        assert root["actual_rows"] == payload["rows"] == len(paper_engine.query(BGP_QUERY))
        assert root["estimated_rows"] >= 1

    def test_explain_carries_estimates_but_no_actuals(self, paper_engine):
        outline = paper_engine.execute(OPTIONAL_QUERY, mode="explain").plan
        for node in iter_outline(outline["plan"] if "plan" in outline else outline):
            if node.get("op") in ("bgp", "join", "leftjoin", "union", "filter", "empty"):
                assert "actual_rows" not in node
                assert node.get("estimated_rows", 0) >= 0

    def test_analyze_counts_matcher_work(self, paper_engine):
        counters = paper_engine.execute(BGP_QUERY, mode="analyze").plan["profile"]["counters"]
        assert counters.get("candidates.generated", 0) > 0
        assert counters.get("solutions.emitted", 0) > 0

    def test_library_calls_leave_no_record_behind(self, paper_engine):
        paper_engine.execute(OPTIONAL_QUERY, mode="analyze")
        paper_engine.query(OPTIONAL_QUERY)
        assert current_record() is None


class TestScalarFallback:
    """Both routes from the vectorized to the scalar matcher are recorded."""

    #: Two core vertices (?p, ?c), so the frontier expands at least once.
    CHAIN_QUERY = PREFIXES + (
        "SELECT ?p ?s ?w WHERE { ?p y:wasBornIn ?c . ?c y:hasStadium ?s . ?p y:livedIn ?w . }"
    )

    @pytest.fixture()
    def engine(self, paper_store):
        return AmberEngine.from_store(paper_store, backend="vectorized")

    @staticmethod
    def match_span(record: QueryRecord):
        (match,) = [child for child in record.root.children if child.name == "engine.match"]
        return match

    def test_frontier_budget_fallback(self, engine, monkeypatch):
        expected = engine.query(self.CHAIN_QUERY).to_table()
        monkeypatch.setattr(vectorized, "MAX_EXPANSION", 0)
        with start_record() as record:
            rows = engine.query(self.CHAIN_QUERY).to_table()
        assert len(engine.query(self.CHAIN_QUERY)) == 2
        assert rows == expected
        assert record.counters[vectorized.FALLBACK_COUNTER] >= 1
        assert self.match_span(record).attributes["fallback"] == "frontier_budget"
        payload = engine.execute(self.CHAIN_QUERY, mode="analyze").plan
        assert payload["profile"]["counters"][vectorized.FALLBACK_COUNTER] == 1

    def test_an_overflowing_frontier_is_built_once(self, engine, monkeypatch):
        calls = []
        frontier = vectorized.VectorizedMatcher._columnar_frontier

        def counting_frontier(self, *args):
            calls.append(1)
            return frontier(self, *args)

        monkeypatch.setattr(vectorized.VectorizedMatcher, "_columnar_frontier", counting_frontier)
        monkeypatch.setattr(vectorized, "MAX_EXPANSION", 0)
        with start_record() as record:
            assert len(engine.query(self.CHAIN_QUERY)) == 2
        assert len(calls) == 1
        assert record.counters[vectorized.FALLBACK_COUNTER] == 1
        assert self.match_span(record).attributes["fallback"] == "frontier_budget"
        calls.clear()
        assert engine.count(self.CHAIN_QUERY) == 2
        assert engine.count(self.CHAIN_QUERY + " LIMIT 1") == 1
        assert engine.count(self.CHAIN_QUERY + " OFFSET 1") == 1
        assert len(calls) == 3

    def test_small_limit_fallback(self, engine):
        with start_record() as record:
            engine.query(BGP_QUERY, max_solutions=1)
        assert record.counters[vectorized.FALLBACK_COUNTER] == 1
        assert self.match_span(record).attributes["fallback"] == "small_limit"

    def test_columnar_match_records_no_fallback(self, engine):
        with start_record() as record:
            engine.query(OPTIONAL_QUERY)
        assert vectorized.FALLBACK_COUNTER not in record.counters
        assert "fallback" not in self.match_span(record).attributes


class TestBackendParity:
    @pytest.fixture(scope="class")
    def engines(self, paper_store):
        return {
            backend: AmberEngine.from_store(paper_store, backend=backend)
            for backend in ("scalar", "vectorized")
        }

    @pytest.mark.parametrize("query", ALGEBRA_QUERIES + (BGP_QUERY,))
    def test_explain_tree_shapes_identical(self, engines, query):
        """The backend changes leaf costs, never the shape of the plan tree."""
        outlines = {
            backend: engine.execute(query, mode="explain").plan
            for backend, engine in engines.items()
        }
        scalar, vectorized = outlines["scalar"], outlines["vectorized"]
        assert scalar["match_backend"] == "scalar"
        assert vectorized["match_backend"] == "vectorized"
        scalar_root = scalar.get("plan", scalar)
        vectorized_root = vectorized.get("plan", vectorized)
        assert outline_shape(scalar_root) == outline_shape(vectorized_root)

    @pytest.mark.parametrize("query", ALGEBRA_QUERIES)
    def test_analyze_actuals_agree_across_backends(self, engines, query):
        payloads = {
            backend: engine.execute(query, mode="analyze").plan
            for backend, engine in engines.items()
        }
        scalar, vectorized = payloads["scalar"], payloads["vectorized"]
        assert outline_shape(scalar["plan"]) == outline_shape(vectorized["plan"])
        actuals = {
            backend: {node["id"]: node["actual_rows"] for node in iter_outline(payload["plan"])}
            for backend, payload in payloads.items()
        }
        assert actuals["scalar"] == actuals["vectorized"]


@pytest.mark.cluster
class TestShardRollup:
    @pytest.mark.parametrize("shard_count", (1, 2, 3))
    def test_shard_subrecords_roll_up(self, paper_engine, shard_count):
        sharded = ShardedEngine.build(paper_engine.data, shard_count)
        payload = sharded.execute(OPTIONAL_QUERY, mode="analyze").plan
        assert payload["rows"] == len(paper_engine.query(OPTIONAL_QUERY))
        profile = payload["profile"]
        shards = profile.get("shards", {})
        assert shards, f"no per-shard sub-records with {shard_count} shards"
        names = {name for sub in shards.values() for name in sub}
        assert names, "shard sub-records recorded no counters"
        for name in names:
            total = sum(sub.get(name, 0) for sub in shards.values())
            assert profile["counters"][name] == total, (
                f"rollup broken for {name!r} with {shard_count} shards"
            )

    def test_sharded_estimates_sum_over_shards(self, paper_engine):
        with ShardedEngine.build(paper_engine.data, 2) as sharded:
            sharded_payload = sharded.execute(BGP_QUERY, mode="analyze").plan
        assert sharded_payload["plan"]["estimated_rows"] >= 1
        assert sharded_payload["plan"]["actual_rows"] == len(paper_engine.query(BGP_QUERY))
