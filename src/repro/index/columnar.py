"""Columnar (numpy) views over the index ensemble for the vectorized backend.

The scalar matcher works on Python sets; the vectorized backend works on
**sorted int64 posting arrays** and batch set algebra (`np.intersect1d`,
`searchsorted` membership).  This module holds the shared numpy plumbing:

* sorted-array helpers (:func:`as_sorted_array`, :func:`intersect_sorted`,
  :func:`in_sorted`);
* :class:`ColumnarEdges` — lazily built CSR adjacency per
  ``(edge type, direction)`` over the dense vertex-id space, with the
  sorted ``(source, neighbour)`` pair keys used for batched multi-edge
  verification.  The cache is dropped whenever an edge of the data graph
  changes (see :meth:`repro.index.manager.IndexSet.refresh_vertex`), so
  arrays stay exactly consistent under SPARQL UPDATE.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..multigraph.graph import Multigraph
from ..multigraph.query_graph import INCOMING, OUTGOING

__all__ = [
    "as_sorted_array",
    "intersect_sorted",
    "in_sorted",
    "ColumnarEdges",
]

def as_sorted_array(values: Iterable[int]):
    """Return ``values`` (unique ints) as a sorted int64 posting array."""
    array = np.fromiter(values, dtype=np.int64)
    array.sort()
    return array


def intersect_sorted(arrays) -> "np.ndarray":
    """Intersect sorted unique posting arrays, smallest first for early exit."""
    ordered = sorted(arrays, key=len)
    result = ordered[0]
    for other in ordered[1:]:
        if len(result) == 0:
            break
        result = np.intersect1d(result, other, assume_unique=True)
    return result


def in_sorted(sorted_array, values):
    """Boolean mask: which ``values`` are members of ``sorted_array``."""
    if len(sorted_array) == 0:
        return np.zeros(len(values), dtype=bool)
    positions = np.searchsorted(sorted_array, values)
    positions[positions == len(sorted_array)] = 0
    return sorted_array[positions] == values


class ColumnarEdges:
    """CSR adjacency per ``(edge type, direction)`` over dense vertex ids.

    For direction ``'+'`` row ``v`` lists the neighbours ``n`` with an edge
    ``n -> v`` of the given type; for ``'-'`` the neighbours ``v`` points
    to — the same sign convention as
    :meth:`repro.index.neighborhood.NeighborhoodIndex.neighbors`.  Rows are
    ascending and sorted within, so concatenated CSR slices preserve the
    scalar matcher's ``sorted(candidates)`` emission order, and the global
    ``source * stride + neighbour`` key array is itself sorted — batched
    pair membership is one ``searchsorted``.
    """

    def __init__(self) -> None:
        self._csr: dict[tuple[int, str], tuple] = {}
        self._stride = 0

    def invalidate(self) -> None:
        """Drop every cached CSR (called on any edge mutation)."""
        self._csr.clear()

    def stride(self, graph: Multigraph) -> int:
        """The pair-key stride: one past the largest vertex id."""
        if not self._csr:
            self._stride = max(graph.vertices(), default=-1) + 1
        return self._stride

    def csr(self, graph: Multigraph, edge_type: int, direction: str):
        """Return ``(indptr, neighbors, pair_keys)`` for one (type, direction).

        Built lazily from the live adjacency and memoised until
        :meth:`invalidate`; an unknown edge type yields empty arrays.
        """
        key = (edge_type, direction)
        cached = self._csr.get(key)
        if cached is not None:
            return cached
        if direction not in (INCOMING, OUTGOING):
            raise ValueError(f"direction must be '+' or '-', got {direction!r}")
        stride = self.stride(graph)
        sources: list[int] = []
        neighbors: list[int] = []
        for vertex in graph.vertices():
            adjacent = (
                graph.in_neighbors(vertex) if direction == INCOMING else graph.out_neighbors(vertex)
            )
            for neighbor, types in adjacent.items():
                if edge_type in types:
                    sources.append(vertex)
                    neighbors.append(neighbor)
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(neighbors, dtype=np.int64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.searchsorted(src, np.arange(stride + 1, dtype=np.int64))
        built = (indptr, dst, src * stride + dst)
        self._csr[key] = built
        return built

    def slice_count(self, graph: Multigraph, anchors, edge_type: int, direction: str) -> int:
        """The pair count :meth:`slice_neighbors` would produce, without gathering."""
        if not len(anchors):
            return 0
        indptr, _, _ = self.csr(graph, edge_type, direction)
        return int((indptr[anchors + 1] - indptr[anchors]).sum())

    def slice_neighbors(self, graph: Multigraph, anchors, edge_type: int, direction: str):
        """Batched CSR gather: the neighbours of every anchor, concatenated.

        Returns ``(rows, candidates)`` where ``rows[i]`` is the index into
        ``anchors`` that ``candidates[i]`` belongs to.  Row blocks follow
        anchor order and are sorted within — the vectorized analogue of
        iterating ``sorted(neighbors_with(...))`` anchor by anchor.
        """
        indptr, neighbors, _ = self.csr(graph, edge_type, direction)
        starts = indptr[anchors]
        counts = indptr[anchors + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rows = np.repeat(np.arange(len(anchors), dtype=np.int64), counts)
        # Position of each output inside its own run, then offset by the
        # run's CSR start: a fully vectorized multi-slice gather.
        run_starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - run_starts[rows]
        return rows, neighbors[starts[rows] + within]

    def pair_mask(self, graph: Multigraph, sources, targets, edge_type: int, direction: str):
        """Boolean mask: which ``(source, target)`` pairs carry ``edge_type``."""
        _, _, keys = self.csr(graph, edge_type, direction)
        return in_sorted(keys, sources * self.stride(graph) + targets)
