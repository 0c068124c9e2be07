"""Cost-based planner tests: ordering, build sides, re-planning, feedback.

Three layers:

* pure planner unit tests over hand-estimated compiled trees — block order
  follows estimates under the connectivity preference, join/leftjoin build
  sides track the smaller estimated side and flip when the sizes flip;
* engine integration — EXPLAIN carries the decisions, a ``data_version``
  bump re-plans, ``EXPLAIN ANALYZE`` feedback tightens the next plan's
  estimates, the cluster surfaces scatter order and pushdown decisions;
* a differential check (``-m differential``) that planner decisions never
  change a result multiset: every engine with the planner enabled must
  agree with the same engine planner-off, over joins, OPTIONAL and UNION.
"""

from __future__ import annotations

import pytest

from repro import AmberEngine, IRI, QueryTimeout, Triple
from repro.baselines import NestedLoopEngine
from repro.cluster import ShardedEngine
from repro.cluster.scatter import plan_scatter, plan_stars, should_push
from repro.multigraph import build_data_multigraph
from repro.rdf.dataset import TripleStore
from repro.server import LRUCache
from repro.sparql.bindings import Binding
from repro.sparql.eval import (
    BGPNode,
    JoinNode,
    LeftJoinNode,
    compile_pattern,
    evaluate_plan,
    iter_plan_nodes,
)
from repro.sparql.parser import parse_sparql
from repro.sparql.planner import MAX_SHAPES, QueryPlanner, shape_key
from repro.timing import Deadline

E = "http://e/"


def _iri(name: str) -> IRI:
    return IRI(E + name)


def _compiled_root(query: str):
    return compile_pattern(parse_sparql(query).where).root


def _planned(query: str, estimates: dict[int, int | None]):
    planner = QueryPlanner()
    root, decisions = planner.plan(
        _compiled_root(query), lambda block: estimates[block.index], 0
    )
    return root, decisions, planner


#: Three chained blocks: ?x p ?y | ?y q ?z | ?z r ?w — blocks 0/2 are not
#: directly joinable (no shared variable), so ordering must respect
#: connectivity or introduce a cross product.
CHAIN = (
    "SELECT * WHERE { "
    f"{{ ?x <{E}p> ?y . }} {{ ?y <{E}q> ?z . }} {{ ?z <{E}r> ?w . }} "
    "}"
)

TWO_BLOCKS = f"SELECT * WHERE {{ {{ ?x <{E}p> ?y . }} {{ ?y <{E}q> ?z . }} }}"

OPTIONAL_QUERY = f"SELECT * WHERE {{ ?x <{E}p> ?y . OPTIONAL {{ ?y <{E}q> ?z . }} }}"


class TestPlannerRewrite:
    def test_block_order_follows_estimates(self):
        _, decisions, _ = _planned(CHAIN, {0: 80, 1: 1, 2: 40})
        assert decisions.block_order == [1, 2, 0]
        assert decisions.reordered is True

    def test_connectivity_beats_raw_cost(self):
        # Block 0 (?x p ?y) is cheapest after the seed, but does not share
        # a variable with block 2 (?z r ?w); the greedy must pick block 1
        # to stay connected.
        _, decisions, _ = _planned(CHAIN, {0: 2, 1: 80, 2: 1})
        assert decisions.block_order == [2, 1, 0]

    def test_no_estimates_keeps_syntactic_order(self):
        root, decisions, _ = _planned(CHAIN, {0: None, 1: None, 2: None})
        assert decisions.block_order == [0, 1, 2]
        assert decisions.reordered is False
        for node in iter_plan_nodes(root):
            if isinstance(node, JoinNode):
                assert node.build == "left"

    def test_node_ids_renumbered_preorder(self):
        root, _, _ = _planned(CHAIN, {0: 80, 1: 1, 2: 40})
        assert [node.node_id for node in iter_plan_nodes(root)] == list(
            range(len(list(iter_plan_nodes(root))))
        )

    def test_join_build_side_flips_when_sizes_flip(self):
        # Chain forces order [0, 1, 2]; the outer join's left subtree
        # estimate is max(1, 8) = 8 against block 2's own estimate.
        root, decisions, _ = _planned(CHAIN, {0: 1, 1: 8, 2: 2})
        assert decisions.block_order == [0, 1, 2]
        assert isinstance(root, JoinNode)
        assert root.build == "right"  # left subtree (8) > right block (2)
        assert root.left.build == "left"
        flipped, _, _ = _planned(CHAIN, {0: 1, 1: 2, 2: 8})
        assert flipped.build == "left"  # left subtree (2) <= right block (8)

    def test_leftjoin_build_side_flips_when_sizes_flip(self):
        root, _, _ = _planned(OPTIONAL_QUERY, {0: 10, 1: 2})
        assert isinstance(root, LeftJoinNode)
        assert root.build == "right"
        flipped, _, _ = _planned(OPTIONAL_QUERY, {0: 2, 1: 10})
        assert flipped.build == "left"

    def test_shape_key_is_order_insensitive(self):
        forward = _compiled_root(TWO_BLOCKS)
        backward = _compiled_root(
            f"SELECT * WHERE {{ {{ ?y <{E}q> ?z . }} {{ ?x <{E}p> ?y . }} }}"
        )
        assert shape_key(forward) == shape_key(backward)

    def test_replan_counted_on_data_version_bump(self):
        planner = QueryPlanner()
        root = _compiled_root(TWO_BLOCKS)
        planner.plan(root, lambda block: 1, 0)
        planner.plan(_compiled_root(TWO_BLOCKS), lambda block: 1, 0)
        assert planner.stats.memo_hits == 1
        assert planner.stats.replanned == 0
        planner.plan(_compiled_root(TWO_BLOCKS), lambda block: 1, 1)
        assert planner.stats.replanned == 1

    def test_disabled_planner_is_a_passthrough(self):
        planner = QueryPlanner(enabled=False)
        root = _compiled_root(CHAIN)
        planned, decisions = planner.plan(root, lambda block: 1, 0)
        assert planned is root
        assert decisions is None
        assert planner.stats.planned == 0


class TestFeedback:
    def test_observation_corrects_the_next_plan(self):
        planner = QueryPlanner()
        root = _compiled_root(TWO_BLOCKS)
        shape = shape_key(root)
        _, first = planner.plan(root, lambda block: {0: 1, 1: 1}[block.index], 0)
        assert first.block_order == [0, 1]
        # Block 0 actually produced 100 rows against an estimate of 1.
        planner.observe(shape, {0: (1, 100)})
        _, second = planner.plan(
            _compiled_root(TWO_BLOCKS), lambda block: {0: 1, 1: 1}[block.index], 0
        )
        assert second.block_order == [1, 0]
        assert 0 in second.corrected_blocks
        assert second.block_estimates[0] > second.block_estimates[1]

    def test_corrected_is_clamped(self):
        planner = QueryPlanner()
        planner.observe("s", {0: (1, 10**9)})
        assert planner.corrected("s", 0, 1) == 1024
        planner2 = QueryPlanner()
        planner2.observe("s", {0: (10**9, 0)})
        assert planner2.corrected("s", 0, 1024) == 1

    def test_shape_memory_is_bounded_and_keeps_recent_feedback(self):
        planner = QueryPlanner()
        recent = shape_key(_compiled_root(TWO_BLOCKS))
        planner.observe(recent, {0: (1, 100)})
        for i in range(MAX_SHAPES + 500):
            # Shape keys embed constants: every text is a new shape.
            query = f'SELECT * WHERE {{ ?x <{E}p> ?y . OPTIONAL {{ ?y <{E}q> "c{i}" . }} }}'
            planner.plan(_compiled_root(query), lambda block: 1, 0)
            if i % 100 == 0:
                # Re-planning keeps the shape recent without new feedback.
                planner.plan(_compiled_root(TWO_BLOCKS), lambda block: 1, 0)
        assert len(planner._shapes) == MAX_SHAPES
        assert planner.corrected(recent, 0, 1) == 100
        planner.observe("oldest", {0: (1, 100)})
        for i in range(MAX_SHAPES):
            planner.observe(f"shape-{i}", {0: (1, 1)})
        assert planner.corrected("oldest", 0, 1) == 1  # evicted: raw estimate


def _chain_triples() -> list[Triple]:
    """p fans out (8 edges, 8 targets); q and r bottleneck through t0/u0.

    The per-block smallest-posting estimates are therefore 8 / 1 / 1 for
    the CHAIN query's three blocks, so a cost-ordered plan starts with the
    q-block, not the syntactically first p-block.
    """
    triples = [Triple(_iri(f"s{i}"), _iri("p"), _iri(f"t{i}")) for i in range(8)]
    triples.append(Triple(_iri("t0"), _iri("q"), _iri("u0")))
    triples.extend(Triple(_iri("u0"), _iri("r"), _iri(f"v{i}")) for i in range(4))
    return triples


class TestEngineIntegration:
    @pytest.fixture()
    def engine(self) -> AmberEngine:
        return AmberEngine.from_triples(_chain_triples())

    def test_explain_shows_order_build_and_estimates(self, engine):
        outline = engine.explain(CHAIN)
        planner = outline["planner"]
        # The unique q-block goes first; estimates decide the rest.
        assert planner["block_order"][0] == 1
        assert set(planner["build_sides"].values()) <= {"left", "right"}
        assert outline["op"] == "join"
        assert "build" in outline
        assert all(
            estimate is not None for estimate in planner["block_estimates"].values()
        )

    def test_analyze_feedback_tightens_estimates(self, engine):
        def block_gap(outline: dict) -> int:
            gaps = []

            def walk(node: dict) -> None:
                if node.get("op") == "bgp" and "estimated_rows" in node:
                    gaps.append(abs(node["estimated_rows"] - node["actual_rows"]))
                for key in ("left", "right", "child"):
                    if isinstance(node.get(key), dict):
                        walk(node[key])
                for branch in node.get("branches", ()):
                    walk(branch)

            walk(outline)
            return max(gaps)

        first = engine.execute(CHAIN, mode="analyze").plan
        assert engine.planner.stats.observations > 0
        second = engine.execute(CHAIN, mode="analyze").plan
        assert block_gap(second["plan"]) <= block_gap(first["plan"])

    def test_replan_fires_on_data_version_bump(self, engine):
        engine.plan_cache = LRUCache(capacity=8)
        engine.prepare(CHAIN)
        engine.prepare(CHAIN)  # plan-cache hit: the planner must not re-run
        assert engine.planner.stats.planned == 1
        engine.insert_triples([Triple(_iri("s99"), _iri("p"), _iri("t0"))])
        assert engine.data_version == 1
        engine.prepare(CHAIN)
        assert engine.planner.stats.planned == 2
        assert engine.planner.stats.replanned == 1

    def test_planner_decisions_change_no_results(self, engine):
        planned = engine.query(CHAIN).as_multiset()
        unplanned_engine = AmberEngine.from_triples(_chain_triples())
        unplanned_engine.planner = None
        unplanned = unplanned_engine.query(CHAIN).as_multiset()
        assert planned == unplanned
        assert sum(planned.values()) > 0


class TestClusterPlanning:
    @pytest.fixture()
    def cluster(self) -> ShardedEngine:
        data = build_data_multigraph(_chain_triples())
        with ShardedEngine.build(data, 2) as engine:
            yield engine

    def test_explain_carries_scatter_plan(self, cluster):
        outline = cluster.explain(f"SELECT * WHERE {{ ?x <{E}p> ?y . ?y <{E}q> ?z . ?z <{E}r> ?w . }}")
        scatter = outline["scatter"]
        stars = scatter["stars"]
        assert len(stars) >= 2
        assert stars[0]["pushdown"] is False
        assert all(star["estimated_anchors"] is not None for star in stars)
        # Cost order: the first star must not be the most expensive one.
        anchors = [star["estimated_anchors"] for star in stars]
        assert anchors[0] == min(anchors)

    def test_algebra_explain_carries_scatter_and_planner(self, cluster):
        outline = cluster.explain(CHAIN)
        assert "planner" in outline
        found = []

        def walk(node: dict) -> None:
            if node.get("op") == "bgp":
                found.append("scatter" in node)
            for key in ("left", "right", "child"):
                if isinstance(node.get(key), dict):
                    walk(node[key])
            for branch in node.get("branches", ()):
                walk(branch)

        walk(outline)
        assert found and all(found)

    def test_pushdown_counters_recorded(self, cluster):
        plan = cluster.execute(
            f"SELECT * WHERE {{ ?x <{E}p> ?y . ?y <{E}q> ?z . ?z <{E}r> ?w . }}",
            mode="analyze",
        ).plan
        counters = plan["profile"]["counters"]
        pushdown = {
            name: value for name, value in counters.items() if "pushdown" in name
        }
        assert sum(pushdown.values()) >= 1

    def test_cluster_matches_single_engine(self, cluster):
        single = AmberEngine.from_triples(_chain_triples())
        query = f"SELECT * WHERE {{ ?x <{E}p> ?y . ?y <{E}q> ?z . ?z <{E}r> ?w . }}"
        assert cluster.query(query).as_multiset() == single.query(query).as_multiset()


class TestScatterDecisions:
    def _qgraph(self, query: str):
        engine = AmberEngine.from_triples(_chain_triples())
        _, plan = engine.prepare(query)
        return plan

    def test_plan_scatter_orders_by_estimate(self):
        qgraph = self._qgraph(
            f"SELECT * WHERE {{ ?x <{E}p> ?y . ?y <{E}q> ?z . ?z <{E}r> ?w . }}"
        )
        component = set(qgraph.vertices)
        stars = plan_stars(qgraph, component)
        assert len(stars) >= 2
        costs = {star.root: 100 + star.root for star in stars}
        cheapest = stars[-1].root
        costs[cheapest] = 1
        plan = plan_scatter(qgraph, component, lambda root: costs[root])
        assert plan.stars[0].root == cheapest
        assert plan.pushdown[plan.stars[0].root] is False
        assert any(plan.pushdown[star.root] for star in plan.stars[1:])

    def test_should_push_skips_disjoint_and_oversized_frontiers(self):
        qgraph = self._qgraph(f"SELECT * WHERE {{ ?x <{E}p> ?y . ?y <{E}q> ?z . }}")
        component = set(qgraph.vertices)
        star = plan_stars(qgraph, component)[0]
        assert should_push(star, {}, 10) is False
        disjoint = {9999: frozenset({1, 2, 3})}
        assert should_push(star, disjoint, 10) is False
        # Root pinned by the frontier: always push.
        rooted = {star.root: frozenset({1, 2})}
        assert should_push(star, rooted, 10) is True
        if star.leaves:
            leaf = star.leaves[0]
            tight = {leaf: frozenset({1})}
            assert should_push(star, tight, 10) is True
            huge = {leaf: frozenset(range(100))}
            assert should_push(star, huge, 3) is False


class _CountingDeadline(Deadline):
    """A deadline that expires after a fixed number of ``check()`` calls."""

    def __init__(self, budget: int) -> None:
        super().__init__(None)
        self.budget = budget
        self.calls = 0

    def check(self) -> None:
        self.calls += 1
        if self.calls > self.budget:
            raise QueryTimeout("budget exhausted")


class TestSkewedJoinDeadline:
    def test_huge_bucket_honours_deadline(self):
        """Regression: the probe loop over one skewed bucket must check time.

        Both sides bind ?x and ?s/?o, but ?x is certain on only one side's
        patterns here — we construct the skew directly: every build row
        lands in one bucket and every merge conflicts, so without the
        inner-loop check the join spins through the whole bucket after the
        outer check passed.
        """
        x = parse_sparql(f"SELECT * WHERE {{ {{ ?a <{E}p> ?b . }} {{ ?c <{E}q> ?d . }} }}")
        root = compile_pattern(x.where).root
        assert isinstance(root, JoinNode)
        left_rows = [
            Binding({"a": _iri(f"v{i}"), "b": _iri("shared")}) for i in range(5000)
        ]
        right_rows = [Binding({"c": _iri("only"), "d": _iri("one")})]

        def solver(block: BGPNode):
            return left_rows if block.index == 0 else right_rows

        # Budget covers materialising the build side (one check per row)
        # plus the outer probe check, but not a 5000-element bucket scan.
        deadline = _CountingDeadline(len(left_rows) + 50)
        with pytest.raises(QueryTimeout):
            evaluate_plan(root, solver, deadline)


def _differential_store() -> list[Triple]:
    triples = _chain_triples()
    triples.append(Triple(_iri("t0"), _iri("tag"), _iri("n1")))
    triples.append(Triple(_iri("u0"), _iri("tag"), _iri("n1")))
    return triples


_DIFFERENTIAL_QUERIES = [
    CHAIN,
    TWO_BLOCKS,
    OPTIONAL_QUERY,
    f"SELECT * WHERE {{ {{ ?x <{E}p> ?y . }} UNION {{ ?x <{E}r> ?y . }} }}",
    (
        f"SELECT * WHERE {{ {{ ?x <{E}p> ?y . }} {{ ?y <{E}tag> ?t . }} "
        f"OPTIONAL {{ ?y <{E}q> ?z . }} }}"
    ),
]

_ENGINE_BUILDERS = [
    pytest.param(lambda: AmberEngine.from_triples(_differential_store(), backend="scalar"),
                 id="amber-scalar"),
    pytest.param(
        lambda: AmberEngine.from_triples(_differential_store(), backend="vectorized"),
        id="amber-vectorized",
    ),
    pytest.param(
        lambda: ShardedEngine.build(build_data_multigraph(_differential_store()), 2),
        id="cluster-2",
    ),
    pytest.param(
        lambda: NestedLoopEngine(TripleStore(_differential_store())), id="nested-loop"
    ),
]


@pytest.mark.differential
class TestPlannerDifferential:
    """Planner on vs planner off: identical multisets on every engine."""

    @pytest.mark.parametrize("build", _ENGINE_BUILDERS)
    @pytest.mark.parametrize("query", _DIFFERENTIAL_QUERIES)
    def test_decisions_never_change_results(self, build, query):
        planned_engine = build()
        unplanned_engine = build()
        unplanned_engine.planner = None
        try:
            planned = planned_engine.query(query).as_multiset()
            unplanned = unplanned_engine.query(query).as_multiset()
            assert planned == unplanned
        finally:
            for engine in (planned_engine, unplanned_engine):
                close = getattr(engine, "close", None)
                if close is not None:
                    close()
