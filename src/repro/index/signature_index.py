"""Vertex signature index ``S`` (Section 4.2).

The index stores one synopsis per data vertex and answers "give me every
data vertex whose synopsis dominates this query synopsis" — Lemma 1
guarantees this candidate set is a superset of the true matches.  The
synopses live in one dense ``(rows, 8)`` matrix, so a probe is a single
vectorized dominance mask over every row.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..multigraph.graph import Multigraph
from .synopsis import SYNOPSIS_FIELDS, dominates, query_synopsis, vertex_synopsis

__all__ = ["SignatureIndex"]


class SignatureIndex:
    """Dense synopsis matrix: one float64 row of 8 fields per data vertex.

    ``_rows`` maps a vertex to its row and ``_vertices`` maps a row back to
    its vertex.  Dynamic updates overwrite the vertex's row in place; a new
    vertex is appended, doubling the capacity when the matrix is full, so
    the matrix is exact after every update without any re-packing.
    """

    def __init__(self, graph: Multigraph | None = None):
        self._matrix = np.empty((0, SYNOPSIS_FIELDS), dtype=np.float64)
        self._vertices = np.empty(0, dtype=np.int64)
        self._rows: dict[int, int] = {}
        if graph is not None:
            self.build(graph)

    def build(self, graph: Multigraph) -> "SignatureIndex":
        """Compute every vertex synopsis into a fresh matrix."""
        vertices = list(graph.vertices())
        synopses = [vertex_synopsis(graph, vertex) for vertex in vertices]
        self._matrix = np.array(synopses, dtype=np.float64).reshape(-1, SYNOPSIS_FIELDS)
        self._vertices = np.array(vertices, dtype=np.int64)
        self._rows = {vertex: row for row, vertex in enumerate(vertices)}
        return self

    def refresh(self, graph: Multigraph, vertex: int) -> None:
        """Recompute the synopsis of ``vertex`` after its incident edges changed."""
        row = self._rows.get(vertex)
        if row is None:
            row = len(self._rows)
            if row == len(self._matrix):
                capacity = max(2 * row, 16)
                self._matrix = np.resize(self._matrix, (capacity, SYNOPSIS_FIELDS))
                self._vertices = np.resize(self._vertices, capacity)
            self._rows[vertex] = row
            self._vertices[row] = vertex
        self._matrix[row] = vertex_synopsis(graph, vertex)

    def synopsis(self, vertex: int) -> tuple[float, ...]:
        """Return the stored synopsis of ``vertex``."""
        return tuple(self._matrix[self._rows[vertex]].tolist())

    def candidates(
        self,
        incoming: Sequence[frozenset[int]],
        outgoing: Sequence[frozenset[int]],
    ) -> set[int]:
        """Return ``C_S(u)``: data vertices whose synopsis dominates the query's.

        ``incoming`` / ``outgoing`` are the multi-edges of the query vertex
        signature, exactly as produced by the query multigraph.
        """
        used = len(self._rows)
        mask = (self._matrix[:used] >= query_synopsis(incoming, outgoing)).all(axis=1)
        return set(self._vertices[:used][mask].tolist())

    def candidates_among(
        self,
        members: Iterable[int],
        incoming: Sequence[frozenset[int]],
        outgoing: Sequence[frozenset[int]],
    ) -> set[int]:
        """Return the subset of ``members`` whose synopsis dominates the query's.

        Membership-restricted variant of :meth:`candidates` for semi-join
        frontiers: the same mask, over the rows of the members present in
        the index only (a cluster halo may name vertices a shard lacks).
        """
        rows = self._rows
        selected = np.fromiter(
            (rows[vertex] for vertex in members if vertex in rows), dtype=np.int64
        )
        mask = (self._matrix[selected] >= query_synopsis(incoming, outgoing)).all(axis=1)
        return set(self._vertices[selected[mask]].tolist())

    def candidates_scan(
        self,
        incoming: Sequence[frozenset[int]],
        outgoing: Sequence[frozenset[int]],
    ) -> set[int]:
        """Pure-Python linear scan over the stored synopses (the tests' oracle)."""
        query_fields = query_synopsis(incoming, outgoing)
        used = len(self._rows)
        rows = zip(self._vertices[:used].tolist(), self._matrix[:used].tolist())
        return {vertex for vertex, fields in rows if dominates(query_fields, fields)}

    def __len__(self) -> int:
        return len(self._rows)
