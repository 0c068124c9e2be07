"""Degree-aware hash partitioning of a data multigraph into shards.

Each shard *owns* a disjoint subset of the data vertices and materialises
the **1-hop halo** of that subset: every edge incident on an owned vertex
(in either direction) plus the attribute sets of the halo endpoints those
edges drag in.  The consequence the cluster engine relies on everywhere:

* an owned vertex has its *complete* neighbourhood — edges, multi-edge
  signature and adjacency rows of ``N`` — inside its shard, so any star subquery rooted
  at it evaluates shard-locally and exactly;
* halo vertices carry their full attribute sets, so satellite-leaf
  attribute refinement is also exact shard-locally.

Ownership assignment is a **degree-aware hash**: ordinary vertices are
placed by the stable modulo hash of their dense vertex id, while hub
vertices (degree at or above ``hub_threshold``) are placed greedily on the
currently lightest shard.  Hubs drag their whole neighbourhood into the
shard as halo, so spreading them by accumulated degree weight keeps the
replication factor and per-shard work balanced on the skewed degree
distributions the paper's datasets exhibit.  The assignment is a pure
function of the graph, so partitioning is deterministic across processes.

All shards share the *same* :class:`GraphDictionaries` instance: vertex,
edge-type and attribute ids are global, which is what lets partial star
matches from different shards be hash-joined without translation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..multigraph.builder import DataMultigraph

__all__ = ["ShardedData", "assign_owners", "default_owner", "partition_data"]


def default_owner(vertex: int, shard_count: int) -> int:
    """The stable hash placement used for non-hub (and newly created) vertices."""
    return vertex % shard_count


def assign_owners(
    data: DataMultigraph, shard_count: int, hub_threshold: int | None = None
) -> dict[int, int]:
    """Map every vertex of ``data`` to its owning shard.

    ``hub_threshold`` (default: ``max(8, 4 * average degree)``) separates
    hash-placed ordinary vertices from greedily balanced hubs.
    """
    if shard_count < 1:
        raise ValueError("shard count must be at least 1")
    graph = data.graph
    vertices = sorted(graph.vertices())
    if hub_threshold is None:
        average = (2 * graph.edge_count() / len(vertices)) if vertices else 0.0
        hub_threshold = max(8, int(4 * average))

    owner: dict[int, int] = {}
    loads = [0] * shard_count
    hubs: list[int] = []
    for vertex in vertices:
        degree = graph.degree(vertex)
        if degree >= hub_threshold:
            hubs.append(vertex)
        else:
            shard = default_owner(vertex, shard_count)
            owner[vertex] = shard
            loads[shard] += degree + 1
    # Heaviest hubs first onto the lightest shard; ties resolved by shard
    # index so the placement is deterministic.
    hubs.sort(key=lambda v: (-graph.degree(v), v))
    for vertex in hubs:
        shard = min(range(shard_count), key=lambda s: (loads[s], s))
        owner[vertex] = shard
        loads[shard] += graph.degree(vertex) + 1
    return owner


@dataclass
class ShardedData:
    """The output of partitioning: per-shard multigraphs plus the ownership map."""

    shards: list[DataMultigraph]
    owner: dict[int, int]
    #: Global triple count (each triple counted once, at its owning shard).
    triple_count: int

    @property
    def shard_count(self) -> int:
        return len(self.shards)


def partition_data(
    data: DataMultigraph, shard_count: int, hub_threshold: int | None = None
) -> ShardedData:
    """Split ``data`` into ``shard_count`` shards with 1-hop halo replication.

    The shard multigraphs share ``data``'s dictionaries (ids stay global);
    each shard's ``triple_count`` counts the triples it *materialises*,
    halo-replicated attributes included, which is what its incremental
    mutation primitives maintain.
    """
    owner = assign_owners(data, shard_count, hub_threshold)
    graph = data.graph
    shards = [DataMultigraph(dictionaries=data.dictionaries) for _ in range(shard_count)]

    for vertex in sorted(graph.vertices()):
        shards[owner[vertex]].graph.copy_edges(graph, vertex)

    # Attributes: every vertex present in a shard (owned or halo) carries its
    # full attribute set, so leaf refinement stays exact shard-locally.
    for shard in shards:
        for vertex in sorted(shard.graph.vertices()):
            for attribute in sorted(graph.attributes(vertex)):
                shard.graph.add_attribute(vertex, attribute)
        shard.triple_count = shard.graph.multi_edge_count() + sum(
            shard.graph.attribute_count(vertex) for vertex in shard.graph.vertices()
        )
    return ShardedData(shards=shards, owner=owner, triple_count=data.triple_count)
