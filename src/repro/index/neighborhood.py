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

import numpy as np

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
        #: Lazily built sorted posting arrays (vectorized backend).  Edits
        #: patch a memoised array copy-on-write instead of dropping it, so a
        #: hub vertex's arrays survive updates to its other neighbours.
        self._arrays: dict[int, np.ndarray] = {}

    def insert(self, neighbor: int, edge_types: Iterable[int]) -> None:
        """Set the ordered multi-edge between this vertex and ``neighbor``.

        A neighbour that is already indexed has its old multi-edge replaced:
        the old trie path is unlinked and only the postings of the types
        that differ are edited, so the Python work is O(|multi-edge|), not
        O(neighbours), plus one array copy per memoised posting that
        changes.  An empty ``edge_types`` is ignored; use :meth:`remove` to
        drop a neighbour.
        """
        new = frozenset(edge_types)
        if not new:
            return
        old = self._neighbor_edges.get(neighbor, frozenset())
        if new == old:
            return
        if old:
            self._unlink_path(neighbor, old)
        self._neighbor_edges[neighbor] = new
        level = self._roots
        for edge_type in sorted(new):
            node = level.get(edge_type)
            if node is None:
                node = OtilNode(edge_type)
                level[edge_type] = node
            node.neighbors.add(neighbor)
            level = node.children
        for edge_type in old - new:
            self._discard_posting(edge_type, neighbor)
        for edge_type in new - old:
            self._postings.setdefault(edge_type, set()).add(neighbor)
            array = self._arrays.get(edge_type)
            if array is not None:
                position = np.searchsorted(array, neighbor)
                self._arrays[edge_type] = np.insert(array, position, neighbor)

    def remove(self, neighbor: int) -> None:
        """Drop ``neighbor`` and its whole multi-edge (no-op when absent)."""
        old = self._neighbor_edges.pop(neighbor, None)
        if old is None:
            return
        self._unlink_path(neighbor, old)
        for edge_type in old:
            self._discard_posting(edge_type, neighbor)

    def _unlink_path(self, neighbor: int, edge_types: frozenset[int]) -> None:
        """Remove ``neighbor`` from the trie path of ``edge_types``, pruning empty nodes.

        Every neighbour on a node's inverted list passes through that node,
        so a node whose list becomes empty has no descendants left either.
        """
        level = self._roots
        for edge_type in sorted(edge_types):
            node = level[edge_type]
            node.neighbors.discard(neighbor)
            if not node.neighbors:
                del level[edge_type]
                return
            level = node.children

    def _discard_posting(self, edge_type: int, neighbor: int) -> None:
        posting = self._postings[edge_type]
        posting.discard(neighbor)
        if not posting:
            del self._postings[edge_type]
            self._arrays.pop(edge_type, None)
            return
        array = self._arrays.get(edge_type)
        if array is not None:
            position = np.searchsorted(array, neighbor)
            self._arrays[edge_type] = np.delete(array, position)

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

    def add_vertex(self, vertex: int) -> None:
        """Register a brand-new vertex with empty tries (no-op when known)."""
        if vertex not in self._incoming:
            self._incoming[vertex] = Otil()
            self._outgoing[vertex] = Otil()

    def update_edge(self, graph: Multigraph, source: int, target: int) -> None:
        """Re-index the multi-edge ``source -> target`` from the current graph.

        An OTIL indexes the multi-edges *incident on its vertex*, so a
        changed ``source -> target`` pair edits exactly one entry of
        ``N-(source)`` and one of ``N+(target)``: O(|multi-edge|) per
        changed pair, independent of either endpoint's degree.  Both
        endpoints must already be registered (:meth:`add_vertex`).
        """
        types = graph.edge_types(source, target)
        if types:
            self._outgoing[source].insert(target, types)
            self._incoming[target].insert(source, types)
        else:
            self._outgoing[source].remove(target)
            self._incoming[target].remove(source)

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
