"""Vertex neighbourhood index ``N`` (Section 4.3): per-vertex OTIL tries.

For every data vertex the index keeps two OTIL structures (Ordered Trie
with Inverted Lists, after Terrovitis et al.): ``N+`` for incoming edges
and ``N-`` for outgoing edges.  Each ordered multi-edge incident on the
vertex is inserted as a root-to-node path, and every edge type keeps an
inverted list of the neighbour vertices it reaches.

The query operation is the one used throughout Algorithms 1-4: given an
already-matched data vertex ``v``, a direction and a required multi-edge
``T'``, return every neighbour ``v'`` such that ``T'`` is a subset of the
edge types between ``v'`` and ``v`` in that direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..multigraph.graph import Multigraph
from ..multigraph.query_graph import INCOMING, OUTGOING
from .columnar import as_sorted_array

__all__ = ["OtilNode", "Otil", "NeighborhoodIndex"]


@dataclass
class OtilNode:
    """One trie node keyed by an edge type, with its inverted list of neighbours."""

    edge_type: int
    neighbors: set[int] = field(default_factory=set)
    children: dict[int, "OtilNode"] = field(default_factory=dict)


class Otil:
    """Ordered Trie with Inverted Lists for the multi-edges of one vertex side."""

    def __init__(self) -> None:
        self._roots: dict[int, OtilNode] = {}
        #: Flat inverted list: edge type -> neighbours having that type.
        self._postings: dict[int, set[int]] = {}
        self._neighbor_edges: dict[int, frozenset[int]] = {}
        #: Lazily built sorted posting arrays (vectorized backend); entries
        #: are dropped per edge type on insert, and a mutated vertex gets a
        #: whole fresh Otil from ``NeighborhoodIndex.refresh_vertex`` anyway.
        self._arrays: dict[int, object] = {}

    def insert(self, neighbor: int, edge_types: Iterable[int]) -> None:
        """Insert the ordered multi-edge between this vertex and ``neighbor``."""
        ordered = sorted(set(edge_types))
        if not ordered:
            return
        self._neighbor_edges[neighbor] = frozenset(ordered)
        for edge_type in ordered:
            self._arrays.pop(edge_type, None)
        level = self._roots
        for edge_type in ordered:
            node = level.get(edge_type)
            if node is None:
                node = OtilNode(edge_type)
                level[edge_type] = node
            node.neighbors.add(neighbor)
            level = node.children
        for edge_type in ordered:
            self._postings.setdefault(edge_type, set()).add(neighbor)

    def neighbors_with(self, edge_types: Iterable[int]) -> set[int]:
        """Return neighbours whose multi-edge contains every type in ``edge_types``."""
        required = sorted(set(edge_types))
        if not required:
            return set(self._neighbor_edges)
        postings = [self._postings.get(edge_type) for edge_type in required]
        if any(p is None for p in postings):
            return set()
        postings.sort(key=len)
        result = set(postings[0])
        for posting in postings[1:]:
            result &= posting
            if not result:
                break
        return result

    def posting_array(self, edge_type: int):
        """Sorted int64 array of neighbours carrying ``edge_type`` (memoised).

        The columnar face of the flat inverted list: batch candidate
        intersection runs ``np.intersect1d`` over these instead of Python
        set algebra.
        """
        array = self._arrays.get(edge_type)
        if array is None:
            array = as_sorted_array(self._postings.get(edge_type, ()))
            self._arrays[edge_type] = array
        return array

    def multi_edge(self, neighbor: int) -> frozenset[int]:
        """Return the full multi-edge shared with ``neighbor`` (empty if none)."""
        return self._neighbor_edges.get(neighbor, frozenset())

    def neighbor_count(self) -> int:
        """Return the number of neighbours indexed."""
        return len(self._neighbor_edges)

    def node_count(self) -> int:
        """Return the number of trie nodes (for size reporting)."""
        count = 0
        stack = list(self._roots.values())
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def __len__(self) -> int:
        return len(self._neighbor_edges)


class NeighborhoodIndex:
    """The ensemble of per-vertex OTIL pairs ``(N+, N-)``."""

    def __init__(self, graph: Multigraph | None = None):
        self._incoming: dict[int, Otil] = {}
        self._outgoing: dict[int, Otil] = {}
        if graph is not None:
            self.build(graph)

    def build(self, graph: Multigraph) -> "NeighborhoodIndex":
        """Build the OTIL pair for every data vertex."""
        self._incoming.clear()
        self._outgoing.clear()
        for vertex in graph.vertices():
            incoming = Otil()
            for neighbor, types in graph.in_neighbors(vertex).items():
                incoming.insert(neighbor, types)
            outgoing = Otil()
            for neighbor, types in graph.out_neighbors(vertex).items():
                outgoing.insert(neighbor, types)
            self._incoming[vertex] = incoming
            self._outgoing[vertex] = outgoing
        return self

    def refresh_vertex(self, graph: Multigraph, vertex: int) -> None:
        """Rebuild the OTIL pair of one vertex from the current graph adjacency.

        An edge change between ``u`` and ``v`` only alters the tries of
        ``u`` and ``v`` (an OTIL indexes the multi-edges *incident on its
        vertex*), so refreshing the two endpoints after every insert/delete
        keeps the whole index exact in O(degree) per endpoint — no offline
        rebuild.  Also registers brand-new vertices with empty tries.
        """
        incoming = Otil()
        for neighbor, types in graph.in_neighbors(vertex).items():
            incoming.insert(neighbor, types)
        outgoing = Otil()
        for neighbor, types in graph.out_neighbors(vertex).items():
            outgoing.insert(neighbor, types)
        self._incoming[vertex] = incoming
        self._outgoing[vertex] = outgoing

    def neighbors(self, vertex: int, direction: str, edge_types: Iterable[int]) -> set[int]:
        """Return neighbours of ``vertex`` reachable via ``edge_types`` in ``direction``.

        ``direction`` follows the paper's sign convention relative to the
        *query vertex being expanded*: ``'+'`` asks for neighbours with an
        edge pointing towards ``vertex``; ``'-'`` for neighbours that
        ``vertex`` points to.
        """
        if direction == INCOMING:
            otil = self._incoming.get(vertex)
        elif direction == OUTGOING:
            otil = self._outgoing.get(vertex)
        else:
            raise ValueError(f"direction must be '+' or '-', got {direction!r}")
        if otil is None:
            return set()
        return otil.neighbors_with(edge_types)

    def otil(self, vertex: int, direction: str) -> Otil:
        """Return the OTIL structure of ``vertex`` for ``direction``."""
        store = self._incoming if direction == INCOMING else self._outgoing
        return store[vertex]

    def __len__(self) -> int:
        return len(self._incoming)

    def memory_items(self) -> int:
        """Return the total number of trie nodes across all vertices."""
        return sum(otil.node_count() for otil in self._incoming.values()) + sum(
            otil.node_count() for otil in self._outgoing.values()
        )
