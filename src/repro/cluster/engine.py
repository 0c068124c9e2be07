"""The sharded engine: scatter–gather SPARQL answering over N shards.

:class:`ShardedEngine` exposes the :class:`~repro.amber.engine.AmberEngine`
query/count/prepare API over N shards produced by
:func:`~repro.cluster.partition.partition_data`.  One query proceeds as:

1. **plan** — the query multigraph is built once against the shared
   dictionaries (through :class:`ClusterCatalog`) and each connected
   component is covered by star subqueries (:func:`~.scatter.plan_stars`);
2. **scatter** — every (star, shard) pair is matched in turn on the
   request's thread, each shard anchoring star roots to the data vertices
   it *owns*: ownership is a partition, so the union of per-shard results
   is exactly the global star relation with no duplicates from halo
   replication;
3. **gather** — the star relations are hash-joined on their shared query
   vertices (smallest-first, connectivity-aware order) and private
   satellite sets stay factored until the final embedding expansion.

FILTER / UNION / OPTIONAL queries run per *BGP block*: the shared
:class:`~repro.amber.engine.QueryEngineBase` algebra path scatters each
block of the compiled pattern through steps 1–3 above (one scatter–gather
round per block, all under one deadline) and combines the block solution
multisets with the engine-independent operators of
:mod:`repro.sparql.eval` at the gather side — so the cluster serves the
full fragment with the same per-star scatter as a conjunctive query.

The result multiset is identical to a single ``AmberEngine`` on the same
data — the property and differential tests assert this over arbitrary
update interleavings.

Thread safety matches the single engine: queries may run concurrently (each
on its caller's thread), but mutations require the caller to exclude
readers (the query service wraps both in its reader-writer lock).
"""

from __future__ import annotations

import time
import weakref
from itertools import product
from typing import Iterator, Sequence

from ..amber.engine import AmberEngine, BuildReport, PlanCache, QueryEngineBase
from ..amber.matching import MatcherConfig
from ..index.manager import IndexSet
from ..multigraph.builder import DataMultigraph
from ..multigraph.query_graph import QueryMultigraph
from ..rdf.terms import IRI, BlankNode
from ..sparql.bindings import Binding
from ..sparql.planner import QueryPlanner
from ..telemetry.record import current_record, span, start_record, timed_iter
from ..timing import Deadline
from .mutation import ClusterMutator
from .partition import ShardedData, partition_data
from .scatter import (
    ScatterPlan,
    StarMatch,
    StarQuery,
    match_star,
    plan_scatter,
    should_push,
)

__all__ = ["ClusterCatalog", "ShardedEngine"]

#: Sentinel marking a shard that owns no member of a root-pinning frontier:
#: it cannot anchor any match of the star, so its scatter is skipped.
_SKIP_SHARD = object()


class _OwnedGraphView:
    """Graph facade answering lookups from the owning shard of each vertex.

    A shard owns the complete neighbourhood and attribute set of its owned
    vertices, so delegating per-vertex questions to the owner is exact.
    """

    def __init__(self, shards: Sequence[DataMultigraph], owner: dict[int, int]):
        self._shards = shards
        self._owner = owner

    def _graph_of(self, vertex: int):
        shard = self._owner.get(vertex)
        return None if shard is None else self._shards[shard].graph

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._owner

    def attributes(self, vertex: int) -> frozenset[int]:
        graph = self._graph_of(vertex)
        return frozenset() if graph is None else graph.attributes(vertex)

    def has_edge(self, source: int, target: int, edge_type: int | None = None) -> bool:
        graph = self._graph_of(source)
        return False if graph is None else graph.has_edge(source, target, edge_type)

    def neighbors(self, vertex: int) -> set[int]:
        graph = self._graph_of(vertex)
        return set() if graph is None else graph.neighbors(vertex)


class ClusterCatalog:
    """The cluster-wide view a query needs: dictionaries plus owner lookups.

    Duck-types the :class:`DataMultigraph` surface used by query-graph
    construction and binding translation, without materialising the union
    graph: structural questions go to the owning shard, id translation to
    the shared dictionaries.
    """

    def __init__(self, shards: Sequence[DataMultigraph], owner: dict[int, int], triple_count: int):
        self.shards = list(shards)
        self.owner = owner
        self.triple_count = triple_count
        self.dictionaries = self.shards[0].dictionaries
        self.graph = _OwnedGraphView(self.shards, owner)

    def vertex_id(self, entity: IRI | BlankNode) -> int | None:
        """Return the vertex id of an IRI/blank node, or None when absent."""
        return self.dictionaries.vertices.get(entity)

    def entity(self, vertex_id: int) -> IRI | BlankNode:
        """Inverse vertex mapping ``Mv^-1``."""
        return self.dictionaries.vertex_entity(vertex_id)

    def edge_type_id(self, predicate: IRI) -> int | None:
        """Return the edge-type id of a predicate, or None when absent."""
        return self.dictionaries.edge_types.get(predicate)

    def attribute_id(self, predicate, literal) -> int | None:
        """Return the attribute id of a ``<predicate, literal>`` pair, or None."""
        return self.dictionaries.attributes.get((predicate, literal))


class ShardedEngine(QueryEngineBase):
    """Scatter–gather engine over N halo-replicated shards."""

    name = "AMbER-cluster"

    def __init__(
        self,
        shards: Sequence[AmberEngine],
        owner: dict[int, int],
        triple_count: int,
        config: MatcherConfig | None = None,
        plan_cache: PlanCache | None = None,
        build_report: BuildReport | None = None,
    ):
        if not shards:
            raise ValueError("a sharded engine needs at least one shard")
        self.shards = list(shards)
        self.owner = owner
        self.data = ClusterCatalog([engine.data for engine in self.shards], owner, triple_count)
        self.config = config or MatcherConfig()
        self.plan_cache = plan_cache
        self.build_report = build_report
        self.data_version = 0
        #: Cost-based algebra planner, fed by the summed shard estimates.
        self.planner = QueryPlanner()
        #: Scatter plans memoised per compiled query graph (weak keys: an
        #: entry dies with its plan-cache eviction) and data_version.
        self._scatter_plans: "weakref.WeakKeyDictionary[QueryMultigraph, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self.mutator = ClusterMutator(self)

    # ------------------------------------------------------------------ #
    # matching backend (delegated to the shard engines)
    # ------------------------------------------------------------------ #
    @property
    def match_backend(self) -> str:
        """The shard engines' matching backend (they always agree)."""
        return self.shards[0].match_backend

    @match_backend.setter
    def match_backend(self, value) -> None:
        for engine in self.shards:
            engine.match_backend = value

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        data: DataMultigraph,
        shard_count: int,
        config: MatcherConfig | None = None,
        hub_threshold: int | None = None,
        backend=None,
    ) -> "ShardedEngine":
        """Partition ``data`` and build one indexed engine per shard."""
        start = time.perf_counter()
        sharded = partition_data(data, shard_count, hub_threshold)
        partition_seconds = time.perf_counter() - start

        start = time.perf_counter()
        engines = [
            AmberEngine(
                shard,
                IndexSet.build(shard),
                config=config,
                backend=backend,
            )
            for shard in sharded.shards
        ]
        index_seconds = time.perf_counter() - start

        stats = data.statistics()
        report = BuildReport(
            database_seconds=partition_seconds,
            index_seconds=index_seconds,
            triples=stats["triples"],
            vertices=stats["vertices"],
            edges=stats["edges"],
            edge_types=stats["edge_types"],
            attributes=stats["attributes"],
            index_items=sum(
                engine.indexes.report.total_items if engine.indexes.report else 0
                for engine in engines
            ),
        )
        return cls(engines, sharded.owner, sharded.triple_count, config=config, build_report=report)

    @classmethod
    def from_sharded_data(
        cls,
        sharded: ShardedData,
        config: MatcherConfig | None = None,
        backend=None,
    ) -> "ShardedEngine":
        """Build shard engines over already-partitioned data."""
        engines = [
            AmberEngine(shard, IndexSet.build(shard), config=config, backend=backend)
            for shard in sharded.shards
        ]
        return cls(engines, sharded.owner, sharded.triple_count, config=config)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------ #
    # scatter–gather matching
    # ------------------------------------------------------------------ #
    def _component_rows(
        self,
        qgraph: QueryMultigraph,
        component: set[int],
        deadline: Deadline,
        timeout_seconds: float | None,
        max_solutions: int | None,
    ) -> Iterator[Binding]:
        """One component: scatter stars in estimated-cost order, join, expand.

        Stars run as waves — every shard matches the current star before
        the next one starts — ordered cheapest-estimated-first under a connectivity
        constraint (:func:`~.scatter.plan_scatter`).  The values each query
        vertex can still take (its semi-join *frontier*) are pushed into
        the next wave's scatter when the planner expects it to restrict,
        so an unconstrained interior star only evaluates anchors that some
        already-joined star can reach; a star whose own anchor set is
        already narrower than the frontier skips the per-anchor
        intersections instead.
        """
        splan = self._scatter_plan(qgraph, component)
        record = current_record()
        states: list[_JoinState] | None = None
        frontier: dict[int, frozenset[int]] = {}
        for star in splan.stars:
            push = should_push(star, frontier, splan.estimates.get(star.root))
            if record is not None and frontier:
                record.count(
                    "cluster.pushdown.applied" if push else "cluster.pushdown.skipped"
                )
            with span(
                "cluster.scatter",
                star_root=star.root,
                shards=self.shard_count,
                pushdown=push,
            ) as sp:
                relation = self._scatter_star(
                    qgraph, star, frontier if push else None, deadline
                )
                sp.annotate(matches=len(relation))
            with span("cluster.join", star_root=star.root) as sp:
                states = _join_star(star, relation, states, deadline)
                if states:
                    frontier = _frontier_of(states, deadline)
                sp.annotate(
                    states=len(states),
                    frontier=sum(len(values) for values in frontier.values()) if states else 0,
                )
            if not states:
                return
        for assigned in timed_iter("cluster.expand", _expand_embeddings(states or [], deadline)):
            yield Binding(
                {
                    qgraph.variable_of(query_vertex): self.data.entity(data_vertex)
                    for query_vertex, data_vertex in assigned.items()
                }
            )

    def _scatter_plan(self, qgraph: QueryMultigraph, component: set[int]) -> ScatterPlan:
        """Cost-ordered star cover with per-star frontier-pushdown decisions.

        Constrained roots (attributes or IRI constraints) sum cheap
        per-shard posting/neighbourhood bounds exactly — ownership
        partitions the anchors, so the cluster-wide figure is the plain
        sum.  Unconstrained roots need a signature-synopsis scan, whose
        cost grows with the shard count when run everywhere; one shard is
        probed instead and scaled by the shard count (hash partitioning
        spreads vertices uniformly), keeping planning overhead flat as
        shards are added.  Plans are memoised per compiled query graph and
        ``data_version``, so EXPLAIN ANALYZE and repeated executions of a
        cached plan do not re-estimate.
        """
        key = (self.data_version, tuple(sorted(component)))
        memo = self._scatter_plans.setdefault(qgraph, {})
        cached = memo.get(key)
        if cached is not None:
            return cached

        def root_estimate(root: int) -> int:
            vertex = qgraph.vertices[root]
            if vertex.attributes or vertex.iri_constraints:
                return sum(
                    engine.matcher.cardinality_estimate(vertex, qgraph)
                    for engine in self.shards
                )
            probe = self.shards[root % self.shard_count]
            return probe.matcher.cardinality_estimate(vertex, qgraph) * self.shard_count

        plan = plan_scatter(qgraph, component, root_estimate)
        memo[key] = plan
        return plan

    def _bgp_outline_extras(self, qgraph: QueryMultigraph) -> dict | None:
        """EXPLAIN annotation: the scatter plan(s) of one BGP's components."""
        components = qgraph.connected_components()
        if not components:
            return None
        plans = [self._scatter_plan(qgraph, component).as_dict() for component in components]
        return {"scatter": plans[0] if len(plans) == 1 else plans}

    def _scatter_star(
        self,
        qgraph: QueryMultigraph,
        star: StarQuery,
        restrict: dict[int, frozenset[int]] | None,
        deadline: Deadline,
    ) -> list[StarMatch]:
        """Match one star on every shard; return the union relation.

        Ownership partitions the anchors, so concatenating per-shard results
        in shard order is the exact, duplicate-free global star relation.
        ``restrict`` is the semi-join frontier when the scatter plan decided
        to push it down, None otherwise.

        The shards match one after another on the request's thread, each
        under its own nested query record, and return their matches with a
        :class:`~repro.telemetry.ShardRecord` (the shard's seconds and
        counters).  The request record, when there is one, absorbs each.
        """
        record = current_record()
        relation: list[StarMatch] = []
        for shard, where in enumerate(self._shard_restricts(star, restrict or None)):
            if where is _SKIP_SHARD:
                continue
            with start_record() as shard_record:
                matches = match_star(
                    self.shards[shard], qgraph, star, self.owner, shard, deadline, where
                )
            if record is not None:
                record.absorb(shard_record.as_shard(shard), matches=len(matches))
            relation.extend(matches)
        return relation

    def _shard_restricts(
        self, star: StarQuery, restrict: dict[int, frozenset[int]] | None
    ) -> list:
        """Per-shard views of one star wave's semi-join frontier.

        When the frontier pins the star's root, its members are split by
        owner once here instead of every shard filtering the full set —
        the owned-anchor check partitions across the cluster, and a shard
        owning no frontier member is skipped outright (it cannot anchor
        any match).  Leaf frontiers are not owner-partitioned (a leaf
        candidate may live in any shard's halo), so they pass through.
        """
        if restrict is None or star.root not in restrict:
            return [restrict] * self.shard_count
        slices: list[set[int]] = [set() for _ in range(self.shard_count)]
        owner = self.owner
        for vertex in restrict[star.root]:
            shard = owner.get(vertex)
            if shard is not None:
                slices[shard].add(vertex)
        return [
            {**restrict, star.root: frozenset(members)} if members else _SKIP_SHARD
            for members in slices
        ]

    def _estimate_block_rows(self, qgraph: QueryMultigraph) -> int | None:
        """Sum of per-shard smallest-posting bounds.

        Each shard estimates the block against its own attribute postings
        (its share of a vertex's candidates); ownership partitions the
        anchors, so the cluster-wide bound is the plain sum.
        """
        estimates = [engine._estimate_block_rows(qgraph) for engine in self.shards]
        if any(estimate is None for estimate in estimates):
            return None
        return sum(estimates)

    # ------------------------------------------------------------------ #
    # close / context manager: nothing to release
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Do nothing: the engine holds no threads, processes or files."""

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> dict[str, int]:
        """Cluster-wide dataset statistics, identical to a single engine's.

        Each edge is counted at the shard owning its source vertex, each
        attribute at the shard owning its carrier — halo replicas are
        excluded, so the numbers match an unsharded build exactly.
        """
        edges = 0
        edge_pairs = 0
        edge_types: set[int] = set()
        attributed = 0
        for shard_index, engine in enumerate(self.shards):
            graph = engine.data.graph
            for vertex in graph.vertices():
                if self.owner.get(vertex) != shard_index:
                    continue
                if graph.attribute_count(vertex):
                    attributed += 1
                targets = graph.out_neighbors(vertex)
                edge_pairs += len(targets)
                for types in targets.values():
                    edges += len(types)
                    edge_types.update(types)
        return {
            "vertices": len(self.owner),
            "edges": edges,
            "edge_pairs": edge_pairs,
            "edge_types": len(edge_types),
            "attributed_vertices": attributed,
            "triples": self.data.triple_count,
            "attributes": len(self.data.dictionaries.attributes),
        }

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard materialisation statistics for the ``/stats`` endpoint."""
        owned = [0] * self.shard_count
        for shard in self.owner.values():
            owned[shard] += 1
        stats = []
        for index, engine in enumerate(self.shards):
            graph = engine.data.graph
            stats.append(
                {
                    "shard": index,
                    "owned_vertices": owned[index],
                    "vertices": graph.vertex_count(),
                    "edges": graph.multi_edge_count(),
                    "triples": engine.data.triple_count,
                    "data_version": engine.data_version,
                }
            )
        return stats

    def __repr__(self) -> str:
        stats = self.statistics()
        return (
            f"ShardedEngine(shards={self.shard_count}, vertices={stats['vertices']}, "
            f"edges={stats['edges']})"
        )


# --------------------------------------------------------------------------- #
# gather: joining star relations with factored satellite sets
# --------------------------------------------------------------------------- #
#: One partially joined solution: concrete root assignments plus candidate
#: domains for query vertices not yet anchored (satellites and roots of
#: stars still to come).
_JoinState = tuple[dict[int, int], dict[int, frozenset[int]]]


def _join_star(
    star: StarQuery,
    relation: list[StarMatch],
    states: list[_JoinState] | None,
    deadline: Deadline,
) -> list[_JoinState]:
    """Fold one star relation into the partial solutions.

    The relation has exactly one match per anchor (anchors are globally
    unique thanks to ownership dedup), so probing by root value is a plain
    hash lookup; leaf candidate sets are intersected into the state's
    domains, never expanded.
    """
    by_anchor = {match.anchor: match for match in relation}
    if states is None:
        states = [({}, {})]
    merged: list[_JoinState] = []
    for assigned, domains in states:
        deadline.check()
        root = star.root
        if root in assigned:
            anchored = by_anchor.get(assigned[root])
            pool = [anchored] if anchored is not None else []
        elif root in domains:
            pool = [
                by_anchor[anchor] for anchor in sorted(domains[root]) if anchor in by_anchor
            ]
        else:
            pool = [by_anchor[anchor] for anchor in sorted(by_anchor)]
        for match in pool:
            new_assigned = dict(assigned)
            new_assigned[root] = match.anchor
            new_domains = dict(domains)
            new_domains.pop(root, None)
            consistent = True
            for leaf, candidates in zip(star.leaves, match.leaves):
                if leaf in new_assigned:
                    if new_assigned[leaf] not in candidates:
                        consistent = False
                        break
                elif leaf in new_domains:
                    narrowed = new_domains[leaf] & candidates
                    if not narrowed:
                        consistent = False
                        break
                    new_domains[leaf] = narrowed
                else:
                    new_domains[leaf] = candidates
            if consistent:
                merged.append((new_assigned, new_domains))
    return merged


def _frontier_of(states: list[_JoinState], deadline: Deadline) -> dict[int, frozenset[int]]:
    """The values every seen query vertex can still take, across all states."""
    pools: dict[int, set[int]] = {}
    for assigned, domains in states:
        deadline.check()
        for vertex, value in assigned.items():
            pools.setdefault(vertex, set()).add(value)
        for vertex, values in domains.items():
            pools.setdefault(vertex, set()).update(values)
    return {vertex: frozenset(values) for vertex, values in pools.items()}


def _expand_embeddings(states: list[_JoinState], deadline: Deadline) -> Iterator[dict[int, int]]:
    """Expand the remaining satellite domains into full embeddings (GenEmb).

    After every star has joined, all roots are assigned; the surviving
    domains belong to private satellites, whose Cartesian product gives
    the component's embeddings.
    """
    for assigned, domains in states:
        if not domains:
            yield assigned
            continue
        satellites = sorted(domains)
        pools = [sorted(domains[v]) for v in satellites]
        for combo in product(*pools):
            deadline.check()
            full = dict(assigned)
            full.update(zip(satellites, combo))
            yield full
