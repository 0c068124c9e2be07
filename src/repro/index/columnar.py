"""The neighbourhood index ``N`` (Section 4.3) as CSR adjacency over numpy.

The paper keeps two OTIL tries per data vertex (``N+`` for incoming
edges, ``N-`` for outgoing ones) to answer one question: given a matched
data vertex ``v``, a direction and a required multi-edge ``T'``, which
neighbours ``v'`` share a multi-edge ``⊇ T'`` with ``v``?  Here that
question is answered by **CSR row intersection**: one CSR per
``(edge type, direction)`` over the dense vertex-id space, whose row ``v``
is the sorted list of neighbours reaching ``v`` through that type.  The
neighbours carrying every type of ``T'`` are the intersection of the
rows of those types — exactly the OTIL's answer, which the differential
tests and ``assert_indexes_exact`` keep honest.

Both backends read the same arrays: the scalar matcher through
:meth:`ColumnarEdges.neighbors` (Python sets), the vectorized backend
through zero-copy row views, batched CSR gathers and the sorted
``(source, neighbour)`` pair keys used for multi-edge verification.

This module also holds the shared sorted-array helpers
(:func:`as_sorted_array`, :func:`intersect_sorted`, :func:`in_sorted`).
Every CSR is built in one vectorized pass when the index set is built;
SPARQL UPDATE then patches only the two CSRs of each changed edge's type
(:meth:`ColumnarEdges.apply`), so the arrays stay exactly what a fresh
build on the mutated graph would produce.
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


def _capacity(rows: int) -> int:
    """Row capacity (= pair-key stride) for ``rows`` vertex ids, with headroom.

    The headroom lets new vertices join without re-keying: rows past the
    last vertex are empty, and their ``indptr`` entries track the tail.
    """
    return rows + max(rows // 8, 64)


def _empty_csr(stride: int) -> tuple:
    empty = np.empty(0, dtype=np.int64)
    return np.zeros(stride + 1, dtype=np.int64), empty, empty


def _check_direction(direction: str) -> None:
    if direction not in (INCOMING, OUTGOING):
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")


class ColumnarEdges:
    """CSR adjacency per ``(edge type, direction)`` over dense vertex ids.

    ``direction`` follows the paper's sign convention relative to the
    vertex being expanded: for ``'+'`` row ``v`` lists the neighbours
    ``n`` with an edge ``n -> v`` of the given type; for ``'-'`` the
    neighbours ``v`` points to.  Rows are ascending and sorted within, so
    concatenated CSR slices preserve the scalar matcher's
    ``sorted(candidates)`` emission order, and the global
    ``source * stride + neighbour`` key array is itself sorted — batched
    pair membership is one ``searchsorted``.

    Every array is replaced, never written in place, so a tuple or row
    view handed to a reader stays valid while a writer patches the index.
    """

    def __init__(self, graph: Multigraph) -> None:
        #: The live graph; only the empty-type-set probe reads it.
        self._graph = graph
        #: ``(edge type, direction) -> (indptr, neighbors, pair_keys)``.
        self._csr: dict[tuple[int, str], tuple] = {}
        self._stride = 0
        self._empty: tuple = ()
        self._build(graph)

    @property
    def stride(self) -> int:
        """The pair-key stride: the row capacity, past the largest vertex id."""
        return self._stride

    def csr(self, edge_type: int, direction: str):
        """Return ``(indptr, neighbors, pair_keys)`` for one (type, direction).

        An edge type without edges yields an empty CSR.
        """
        _check_direction(direction)
        return self._csr.get((edge_type, direction), self._empty)

    def row(self, vertex: int, edge_type: int, direction: str):
        """Zero-copy sorted view of ``vertex``'s neighbours through ``edge_type``."""
        indptr, neighbors, _ = self.csr(edge_type, direction)
        if vertex >= self._stride:
            return neighbors[:0]
        return neighbors[indptr.item(vertex) : indptr.item(vertex + 1)]

    def neighbors(self, vertex: int, direction: str, edge_types: Iterable[int]) -> set[int]:
        """Neighbours of ``vertex`` whose multi-edge in ``direction`` ⊇ ``edge_types``.

        The Section 4.3 OTIL query, answered by intersecting the sorted
        CSR rows of the required types, smallest first.  An empty type set
        returns every neighbour on that side (from the graph adjacency); a
        type without edges returns the empty set.
        """
        rows = sorted((self.row(vertex, t, direction) for t in edge_types), key=len)
        if not rows:
            _check_direction(direction)
            graph = self._graph
            side = graph.in_neighbors if direction == INCOMING else graph.out_neighbors
            return set(side(vertex))
        result = set(rows[0].tolist())
        for other in rows[1:]:
            if not result:
                break
            result.intersection_update(other.tolist())
        return result

    def posting_entries(self) -> int:
        """Total neighbours over every row: 2 × Σ|multi-edge| (the size report)."""
        return sum(len(neighbors) for _, neighbors, _ in self._csr.values())

    def _build(self, graph: Multigraph) -> None:
        """Build the CSR of every (type, direction) in one pass over the edges."""
        sources: list[int] = []
        targets: list[int] = []
        widths: list[int] = []
        types: list[int] = []
        for source in graph.vertices():
            for target, edge_types in graph.out_neighbors(source).items():
                sources.append(source)
                targets.append(target)
                widths.append(len(edge_types))
                types.extend(edge_types)
        stride = _capacity(max(graph.vertices(), default=-1) + 1)
        src = np.repeat(np.asarray(sources, dtype=np.int64), widths)
        dst = np.repeat(np.asarray(targets, dtype=np.int64), widths)
        typ = np.asarray(types, dtype=np.int64)
        del sources, targets, widths, types  # free the Python lists before sorting
        row_ids = np.arange(stride + 1, dtype=np.int64)
        built: dict[tuple[int, str], tuple] = {}
        for direction, rows, neighbors in ((OUTGOING, src, dst), (INCOMING, dst, src)):
            order = np.lexsort((neighbors, rows, typ))
            rows, neighbors, by_type = rows[order], neighbors[order], typ[order]
            bounds = np.flatnonzero(np.diff(by_type)) + 1
            for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(by_type)]):
                if lo == hi:
                    continue
                block_rows, block = rows[lo:hi], neighbors[lo:hi]
                indptr = np.searchsorted(block_rows, row_ids)
                built[(int(by_type[lo]), direction)] = (indptr, block, block_rows * stride + block)
        self._stride = stride
        self._empty = _empty_csr(stride)
        self._csr = built

    # ------------------------------------------------------------------ #
    # incremental maintenance (dynamic updates)
    # ------------------------------------------------------------------ #
    def apply(self, graph: Multigraph, edges, new_vertices) -> None:
        """Patch the CSRs for a batch of changed edges.

        ``edges`` holds ``(source, target, edge type)`` triples whose
        presence may have changed; ``graph`` holds their final state.  Only
        the ``'+'`` and ``'-'`` CSRs of each changed type are touched:
        ``np.insert``/``np.delete`` on their neighbours and pair keys and
        ±1 on the tail of ``indptr``.  A vertex id past the row capacity
        grows and re-keys every CSR.
        """
        top = max(new_vertices, default=-1)
        if top >= self._stride:
            self._grow(top + 1)
        stride = self._stride
        changes: dict[tuple[int, str], dict[int, bool]] = {}
        for source, target, edge_type in edges:
            present = graph.has_edge(source, target, edge_type)
            changes.setdefault((edge_type, OUTGOING), {})[source * stride + target] = present
            changes.setdefault((edge_type, INCOMING), {})[target * stride + source] = present
        for key, wanted in changes.items():
            self._csr[key] = self._patch(self._csr.get(key, self._empty), wanted)

    def _patch(self, csr: tuple, wanted: dict[int, bool]) -> tuple:
        """Return ``csr`` with each pair key of ``wanted`` present or absent."""
        indptr, neighbors, keys = csr
        pairs = np.fromiter(wanted, dtype=np.int64, count=len(wanted))
        present = np.fromiter(wanted.values(), dtype=bool, count=len(wanted))
        cached = in_sorted(keys, pairs)
        added = np.sort(pairs[present & ~cached])
        dropped = pairs[~present & cached]
        if not len(added) and not len(dropped):
            return csr
        stride = self._stride
        if len(dropped):
            positions = np.searchsorted(keys, dropped)
            keys = np.delete(keys, positions)
            neighbors = np.delete(neighbors, positions)
        if len(added):
            positions = np.searchsorted(keys, added)
            keys = np.insert(keys, positions, added)
            neighbors = np.insert(neighbors, positions, added % stride)
        step = np.zeros(len(indptr), dtype=np.int64)
        np.add.at(step, added // stride + 1, 1)
        np.add.at(step, dropped // stride + 1, -1)
        return indptr + np.cumsum(step), neighbors, keys

    def _grow(self, rows: int) -> None:
        """Raise the row capacity to fit ``rows`` ids and re-key every CSR."""
        old, stride = self._stride, _capacity(rows)
        for key, (indptr, neighbors, keys) in self._csr.items():
            tail = np.full(stride - old, indptr[-1], dtype=np.int64)
            self._csr[key] = (
                np.concatenate((indptr, tail)),
                neighbors,
                keys // old * stride + neighbors,
            )
        self._stride = stride
        self._empty = _empty_csr(stride)

    # ------------------------------------------------------------------ #
    # batched reads (vectorized backend)
    # ------------------------------------------------------------------ #
    def slice_count(self, anchors, edge_type: int, direction: str) -> int:
        """The pair count :meth:`slice_neighbors` would produce, without gathering."""
        if not len(anchors):
            return 0
        indptr, _, _ = self.csr(edge_type, direction)
        return int((indptr[anchors + 1] - indptr[anchors]).sum())

    def slice_neighbors(self, anchors, edge_type: int, direction: str):
        """Batched CSR gather: the neighbours of every anchor, concatenated.

        Returns ``(rows, candidates)`` where ``rows[i]`` is the index into
        ``anchors`` that ``candidates[i]`` belongs to.  Row blocks follow
        anchor order and are sorted within — the vectorized analogue of
        iterating ``sorted(neighbors(...))`` anchor by anchor.
        """
        indptr, neighbors, _ = self.csr(edge_type, direction)
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

    def pair_mask(self, sources, targets, edge_type: int, direction: str):
        """Boolean mask: which ``(source, target)`` pairs carry ``edge_type``."""
        _, _, keys = self.csr(edge_type, direction)
        return in_sorted(keys, sources * self._stride + targets)
