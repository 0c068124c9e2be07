"""Directed, vertex-attributed multigraph (Definition 1 of the paper).

The graph ``G = (V, E, LV, LE)`` stores:

* ``V`` — dense integer vertex identifiers,
* ``E`` — directed edges between vertices, where a pair of vertices may be
  connected by *several* edge types at once (a multi-edge),
* ``LV`` — the vertex labelling that assigns each vertex a set of attribute
  identifiers (the ``<predicate, literal>`` tuples of Section 2.1.1),
* ``LE`` — the edge labelling that assigns each directed edge its set of
  edge-type identifiers (the predicates).

Edge labels are hash-consed: a graph has far fewer distinct type sets than
connected vertex pairs (271 against 14,650 on a 27.7k-triple DBpedia-like
sample), so each set is one interned ``frozenset`` that both adjacency maps
point at.  Labels are never mutated; an edit swaps in another label.

Every vertex implicitly carries the null attribute ``{-}`` from the paper,
so the attribute sets stored here only contain the real attribute ids.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["Multigraph"]

_NO_TYPES: frozenset[int] = frozenset()


class Multigraph:
    """A directed multigraph over integer vertices with set-valued edge labels."""

    def __init__(self) -> None:
        self._out: dict[int, dict[int, frozenset[int]]] = {}
        self._in: dict[int, dict[int, frozenset[int]]] = {}
        self._attributes: dict[int, set[int]] = {}
        #: Intern table of edge labels; labels a removal orphans stay (at
        #: most one per type set ever used).
        self._labels: dict[frozenset[int], frozenset[int]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: int) -> None:
        """Ensure ``vertex`` exists in the graph."""
        if vertex not in self._out:
            self._out[vertex] = {}
            self._in[vertex] = {}
            self._attributes[vertex] = set()

    def add_edge(self, source: int, target: int, edge_type: int) -> None:
        """Add a directed edge ``source -> target`` labelled ``edge_type``.

        Self-loops are rejected because Definition 1 requires
        ``(v, v') != (v', v)``; the multigraph transformation never creates
        them from well-formed RDF anyway.
        """
        if source == target:
            raise ValueError(f"self-loop on vertex {source} is not allowed by Definition 1")
        self.add_vertex(source)
        self.add_vertex(target)
        types = self._out[source].get(target, _NO_TYPES)
        if edge_type not in types:
            self._relabel(source, target, types | {edge_type})

    def _relabel(self, source: int, target: int, types: frozenset[int]) -> None:
        """Point both sides of ``source -> target`` at the interned ``types``."""
        if types:
            label = self._labels.setdefault(types, types)
            self._out[source][target] = label
            self._in[target][source] = label
        else:
            del self._out[source][target]
            del self._in[target][source]

    def copy_edges(self, other: Multigraph, vertex: int) -> None:
        """Copy every edge incident on ``vertex`` in ``other``, sharing its label objects."""
        self.add_vertex(vertex)
        for target, label in other.out_neighbors(vertex).items():
            self.add_vertex(target)
            self._relabel(vertex, target, label)
        for source, label in other.in_neighbors(vertex).items():
            self.add_vertex(source)
            self._relabel(source, vertex, label)

    def add_attribute(self, vertex: int, attribute: int) -> None:
        """Attach attribute id ``attribute`` to ``vertex`` (``LV``)."""
        self.add_vertex(vertex)
        self._attributes[vertex].add(attribute)

    # ------------------------------------------------------------------ #
    # removal (dynamic updates)
    # ------------------------------------------------------------------ #
    def remove_edge(self, source: int, target: int, edge_type: int) -> bool:
        """Remove ``edge_type`` from the edge ``source -> target``.

        Returns True when the type was present.  When the multi-edge loses
        its last type the vertex pair disappears from both adjacency maps,
        so neighbourhood views stay identical to a from-scratch build on
        the remaining triples.  Vertices are never removed: dictionary ids
        are dense and stable, and an isolated vertex cannot match any
        constrained query vertex.
        """
        types = self._out.get(source, {}).get(target, _NO_TYPES)
        if edge_type not in types:
            return False
        self._relabel(source, target, types - {edge_type})
        return True

    def remove_attribute(self, vertex: int, attribute: int) -> bool:
        """Detach attribute id ``attribute`` from ``vertex``; True when present."""
        attributes = self._attributes.get(vertex)
        if attributes is None or attribute not in attributes:
            return False
        attributes.discard(attribute)
        return True

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __contains__(self, vertex: int) -> bool:
        return vertex in self._out

    def __len__(self) -> int:
        return len(self._out)

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex ids."""
        return iter(self._out)

    def vertex_count(self) -> int:
        """Return |V|."""
        return len(self._out)

    def edge_count(self) -> int:
        """Return the number of directed vertex pairs connected by at least one edge."""
        return sum(len(targets) for targets in self._out.values())

    def multi_edge_count(self) -> int:
        """Return the total number of (edge, type) pairs — i.e. RDF resource triples."""
        return sum(len(types) for targets in self._out.values() for types in targets.values())

    def attributes(self, vertex: int) -> frozenset[int]:
        """Return ``LV(vertex)`` (without the implicit null attribute)."""
        return frozenset(self._attributes.get(vertex, ()))

    def attribute_count(self, vertex: int) -> int:
        """Return the number of real attributes attached to ``vertex``."""
        return len(self._attributes.get(vertex, ()))

    def edge_types(self, source: int, target: int) -> frozenset[int]:
        """Return ``LE(source, target)`` (the shared label); empty when no edge exists."""
        return self._out.get(source, {}).get(target, _NO_TYPES)

    def has_edge(self, source: int, target: int, edge_type: int | None = None) -> bool:
        """Return True when the edge (optionally with ``edge_type``) exists."""
        types = self._out.get(source, {}).get(target)
        if types is None:
            return False
        return True if edge_type is None else edge_type in types

    # ------------------------------------------------------------------ #
    # neighbourhood views
    # ------------------------------------------------------------------ #
    def out_neighbors(self, vertex: int) -> dict[int, frozenset[int]]:
        """Return ``{target: edge types}`` for outgoing edges of ``vertex``."""
        return self._out.get(vertex, {})

    def in_neighbors(self, vertex: int) -> dict[int, frozenset[int]]:
        """Return ``{source: edge types}`` for incoming edges of ``vertex``."""
        return self._in.get(vertex, {})

    def neighbors(self, vertex: int) -> set[int]:
        """Return all vertices adjacent to ``vertex`` in either direction."""
        return set(self._out.get(vertex, {})) | set(self._in.get(vertex, {}))

    def degree(self, vertex: int) -> int:
        """Return the number of distinct adjacent vertices (used for core/satellite)."""
        return len(self.neighbors(vertex))

    def out_degree(self, vertex: int) -> int:
        """Return the number of distinct outgoing neighbour vertices."""
        return len(self._out.get(vertex, {}))

    def in_degree(self, vertex: int) -> int:
        """Return the number of distinct incoming neighbour vertices."""
        return len(self._in.get(vertex, {}))

    def edges(self) -> Iterator[tuple[int, int, frozenset[int]]]:
        """Yield ``(source, target, edge types)`` for every directed multi-edge."""
        for source, targets in self._out.items():
            for target, types in targets.items():
                yield source, target, types

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def distinct_edge_types(self) -> set[int]:
        """Return the set of all edge-type ids used in the graph."""
        found: set[int] = set()
        for targets in self._out.values():
            for types in targets.values():
                found.update(types)
        return found

    def statistics(self) -> dict[str, int]:
        """Return Table-4 style counts for this multigraph."""
        return {
            "vertices": self.vertex_count(),
            "edges": self.multi_edge_count(),
            "edge_pairs": self.edge_count(),
            "edge_types": len(self.distinct_edge_types()),
            "attributed_vertices": sum(1 for attrs in self._attributes.values() if attrs),
        }
