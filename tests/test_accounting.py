"""Per-query resource accounting: profiles, EXPLAIN ANALYZE, shard rollup.

Covers the :mod:`repro.telemetry.accounting` primitives, the engine's
``analyze`` execute mode (estimated *and* actual rows on every plan
operator), backend parity of the plan tree shape, and the per-shard
sub-profile rollup invariant on the cluster engine under every executor.
"""

from __future__ import annotations

import json

import pytest

from repro import AmberEngine
from repro.cluster import ShardedEngine
from repro.telemetry import (
    QueryProfile,
    count,
    count_rows,
    current_profile,
    merge_counters,
    start_profile,
)

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


class TestQueryProfile:
    def test_helpers_are_noops_without_active_profile(self):
        assert current_profile() is None
        count("candidates.generated", 3)  # must not raise, must not record
        count_rows(7, 2)
        assert current_profile() is None

    def test_count_accumulates_and_groups(self):
        profile = QueryProfile()
        with start_profile(profile) as active:
            assert active is profile
            assert current_profile() is profile
            count("candidates.generated", 3)
            count("candidates.generated", 2)
            count("intersections")
            count_rows(0, 4)
        assert current_profile() is None
        assert profile.counters["candidates.generated"] == 5
        assert profile.counters["intersections"] == 1
        assert profile.operator_rows() == {0: 4}

    def test_profiles_nest_and_restore(self):
        outer = QueryProfile()
        with start_profile(outer):
            count("outer.only")
            with start_profile() as inner:
                count("inner.only")
            assert current_profile() is outer
            count("outer.only")
        assert outer.counters == {"outer.only": 2}
        assert inner.counters == {"inner.only": 1}

    def test_absorb_shard_keeps_rollup_invariant(self):
        profile = QueryProfile()
        profile.absorb_shard(0, {"candidates.generated": 3, "intersections": 1})
        profile.absorb_shard(1, {"candidates.generated": 4})
        for name in ("candidates.generated", "intersections"):
            total = sum(sub.get(name, 0) for sub in profile.shards.values())
            assert profile.counters[name] == total
        payload = profile.as_dict()
        assert payload["counters"]["candidates.generated"] == 7
        assert payload["shards"]["1"] == {"candidates.generated": 4}

    def test_merge_counters(self):
        into = {"a": 1}
        merge_counters(into, {"a": 2, "b": 3})
        assert into == {"a": 3, "b": 3}


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
    @pytest.mark.parametrize("executor", ("serial", "thread", "process"))
    def test_shard_subprofiles_roll_up(self, paper_engine, executor):
        with ShardedEngine.build(
            paper_engine.data, 2, executor=executor, workers=2
        ) as sharded:
            payload = sharded.execute(OPTIONAL_QUERY, mode="analyze").plan
            assert payload["rows"] == len(paper_engine.query(OPTIONAL_QUERY))
            profile = payload["profile"]
            shards = profile.get("shards", {})
            assert shards, f"no per-shard sub-profiles under the {executor} executor"
            names = {name for sub in shards.values() for name in sub}
            assert names, "shard sub-profiles recorded no counters"
            for name in names:
                total = sum(sub.get(name, 0) for sub in shards.values())
                assert profile["counters"][name] == total, (
                    f"rollup broken for {name!r} under {executor}"
                )

    def test_sharded_estimates_sum_over_shards(self, paper_engine):
        with ShardedEngine.build(paper_engine.data, 2, executor="serial") as sharded:
            sharded_payload = sharded.execute(BGP_QUERY, mode="analyze").plan
        assert sharded_payload["plan"]["estimated_rows"] >= 1
        assert sharded_payload["plan"]["actual_rows"] == len(paper_engine.query(BGP_QUERY))
