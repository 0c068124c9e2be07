"""The neighbourhood index ``N`` (Section 4.3) as sorted pair keys over numpy.

The paper keeps two OTIL tries per data vertex (``N+`` for incoming
edges, ``N-`` for outgoing ones) to answer one question: given a matched
data vertex ``v``, a direction and a required multi-edge ``T'``, which
neighbours ``v'`` share a multi-edge ``⊇ T'`` with ``v``?  Here that
question is answered by **row intersection**: one sorted array of pair
keys ``(v << 32) | v'`` per ``(edge type, direction)``, whose run for
``v`` (its row) lists the neighbours reaching ``v`` through that type.
The neighbours carrying every type of ``T'`` are the intersection of the
rows of those types — exactly the OTIL's answer, which the differential
tests and ``assert_indexes_exact`` keep honest.  Rows are found by
binary search on the keys, so there are no per-vertex row pointers: the
index is 16 bytes per posting (key + neighbour), independent of the
number of edge types and vertices.

Both backends read the same arrays: the scalar matcher through
:meth:`ColumnarEdges.neighbors` (Python sets), the vectorized backend
through zero-copy row views, batched row gathers and the pair keys used
for multi-edge verification.

This module also holds the shared sorted-array helpers
(:func:`as_sorted_array`, :func:`intersect_sorted`, :func:`in_sorted`)
and the pair-key helpers the attribute index shares (:func:`row_view`,
:func:`patch_pairs`, :func:`check_ids`).  Every array is built in one
vectorized pass when the index set is built; SPARQL UPDATE then patches
only the two arrays of each changed edge's type
(:meth:`ColumnarEdges.apply`), so they stay exactly what a fresh build on
the mutated graph would produce.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

import numpy as np

from ..multigraph.graph import Multigraph
from ..multigraph.query_graph import INCOMING, OUTGOING

__all__ = [
    "as_sorted_array",
    "intersect_sorted",
    "in_sorted",
    "check_ids",
    "row_view",
    "patch_pairs",
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


def _check_direction(direction: str) -> None:
    if direction not in (INCOMING, OUTGOING):
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")


#: Pair keys are ``(row << ROW_SHIFT) | column``; both ids stay under 2**31.
ROW_SHIFT = 32
COLUMN_MASK = (1 << ROW_SHIFT) - 1
ID_LIMIT = 1 << 31
_EMPTY = np.empty(0, dtype=np.int64)
_NO_ARRAYS = (_EMPTY, _EMPTY)


def check_ids(top: int) -> None:
    """Raise when an id no longer fits the low half of a pair key."""
    if top >= ID_LIMIT:
        raise OverflowError(f"id {top} does not fit a pair key (ids must stay below 2**31)")


def row_view(column, keys, row: int):
    """Zero-copy view of ``column`` over ``row``'s run of the sorted pair ``keys``.

    The bounds are found by ``bisect`` on a memoryview of the keys: for one
    row, a numpy call costs more than the binary search itself.
    """
    view = memoryview(keys)
    start = bisect_left(view, row << ROW_SHIFT)
    return column[start : bisect_left(view, (row + 1) << ROW_SHIFT, start)]


def patch_pairs(column, keys, wanted: dict[int, bool]) -> tuple:
    """Return ``(column, keys)`` with each pair key of ``wanted`` present or absent.

    New arrays are returned (``np.insert`` / ``np.delete``), never edited
    in place, so views held by readers stay valid.
    """
    pairs = np.fromiter(wanted, dtype=np.int64, count=len(wanted))
    present = np.fromiter(wanted.values(), dtype=bool, count=len(wanted))
    cached = in_sorted(keys, pairs)
    added = np.sort(pairs[present & ~cached])
    dropped = pairs[~present & cached]
    if len(dropped):
        positions = np.searchsorted(keys, dropped)
        keys = np.delete(keys, positions)
        column = np.delete(column, positions)
    if len(added):
        positions = np.searchsorted(keys, added)
        keys = np.insert(keys, positions, added)
        column = np.insert(column, positions, added & COLUMN_MASK)
    return column, keys


class ColumnarEdges:
    """Sorted pair keys per ``(edge type, direction)`` over dense vertex ids.

    ``direction`` follows the paper's sign convention relative to the
    vertex being expanded: for ``'+'`` row ``v`` lists the neighbours
    ``n`` with an edge ``n -> v`` of the given type; for ``'-'`` the
    neighbours ``v`` points to.  Each (type, direction) stores two int64
    arrays of equal length: ``keys = (v << 32) | n`` sorted ascending,
    and ``neighbors = n`` in the same order.  Row ``v`` is the run of keys
    in ``[v << 32, (v + 1) << 32)``, found by binary search, so there is
    no row-pointer array and the index costs 16 bytes per posting whatever
    the number of types or vertices.  Rows come out ascending and sorted
    within, so concatenated row slices preserve the scalar matcher's
    ``sorted(candidates)`` emission order, and batched pair membership is
    one ``searchsorted`` on ``keys``.

    Every array is replaced, never written in place, so a tuple or row
    view handed to a reader stays valid while a writer patches the index.
    """

    def __init__(self, graph: Multigraph) -> None:
        #: The live graph; only the empty-type-set probe reads it.
        self._graph = graph
        #: ``(edge type, direction) -> (neighbors, keys)``.
        self._arrays: dict[tuple[int, str], tuple] = {}
        self._build(graph)

    def arrays(self, edge_type: int, direction: str):
        """Return ``(neighbors, keys)`` for one (type, direction).

        An edge type without edges yields two empty arrays.
        """
        _check_direction(direction)
        return self._arrays.get((edge_type, direction), _NO_ARRAYS)

    def row(self, vertex: int, edge_type: int, direction: str):
        """Zero-copy sorted view of ``vertex``'s neighbours through ``edge_type``."""
        return row_view(*self.arrays(edge_type, direction), vertex)

    def neighbors(self, vertex: int, direction: str, edge_types: Iterable[int]) -> set[int]:
        """Neighbours of ``vertex`` whose multi-edge in ``direction`` ⊇ ``edge_types``.

        The Section 4.3 OTIL query, answered by intersecting the sorted
        rows of the required types, smallest first.  An empty type set
        returns every neighbour on that side (from the graph adjacency); a
        type without edges returns the empty set.
        """
        _check_direction(direction)
        low, high = vertex << ROW_SHIFT, (vertex + 1) << ROW_SHIFT
        rows = []
        for edge_type in edge_types:  # :func:`row_view`, inlined: the scalar hot path
            neighbors, keys = self._arrays.get((edge_type, direction), _NO_ARRAYS)
            view = memoryview(keys)
            start = bisect_left(view, low)
            rows.append(neighbors[start : bisect_left(view, high, start)])
        if not rows:
            graph = self._graph
            side = graph.in_neighbors if direction == INCOMING else graph.out_neighbors
            return set(side(vertex))
        if len(rows) > 1:
            rows.sort(key=len)
        result = set(rows[0].tolist())
        for other in rows[1:]:
            if not result:
                break
            result.intersection_update(other.tolist())
        return result

    def posting_entries(self) -> int:
        """Total neighbours over every row: 2 × Σ|multi-edge| (the size report)."""
        return sum(len(neighbors) for neighbors, _ in self._arrays.values())

    def _build(self, graph: Multigraph) -> None:
        """Build the arrays of every (type, direction) in one pass over the edges."""
        check_ids(max(graph.vertices(), default=-1))
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
        src = np.repeat(np.asarray(sources, dtype=np.int64), widths)
        dst = np.repeat(np.asarray(targets, dtype=np.int64), widths)
        typ = np.asarray(types, dtype=np.int64)
        del sources, targets, widths, types  # free the Python lists before sorting
        built: dict[tuple[int, str], tuple] = {}
        for direction, rows, neighbors in ((OUTGOING, src, dst), (INCOMING, dst, src)):
            keys = (rows << ROW_SHIFT) | neighbors
            order = np.lexsort((keys, typ))
            keys, by_type = keys[order], typ[order]
            bounds = np.flatnonzero(np.diff(by_type)) + 1
            for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(by_type)]):
                if lo < hi:
                    block = keys[lo:hi]
                    built[(int(by_type[lo]), direction)] = (block & COLUMN_MASK, block)
        self._arrays = built

    # ------------------------------------------------------------------ #
    # incremental maintenance (dynamic updates)
    # ------------------------------------------------------------------ #
    def apply(self, graph: Multigraph, edges) -> None:
        """Patch the arrays for a batch of changed edges.

        ``edges`` holds ``(source, target, edge type)`` triples whose
        presence may have changed; ``graph`` holds their final state.  Only
        the ``'+'`` and ``'-'`` arrays of each changed type are touched
        (:func:`patch_pairs`); a new vertex needs nothing, since rows are
        found by key, not by position.
        """
        changes: dict[tuple[int, str], dict[int, bool]] = {}
        for source, target, edge_type in edges:
            check_ids(max(source, target))
            present = graph.has_edge(source, target, edge_type)
            changes.setdefault((edge_type, OUTGOING), {})[(source << ROW_SHIFT) | target] = present
            changes.setdefault((edge_type, INCOMING), {})[(target << ROW_SHIFT) | source] = present
        for key, wanted in changes.items():
            patched = patch_pairs(*self._arrays.get(key, _NO_ARRAYS), wanted)
            if len(patched[1]):
                self._arrays[key] = patched
            else:
                self._arrays.pop(key, None)

    # ------------------------------------------------------------------ #
    # batched reads (vectorized backend)
    # ------------------------------------------------------------------ #
    def slice_neighbors(self, anchors, edge_type: int, direction: str, limit: int | None = None):
        """Batched row gather: the neighbours of every anchor, concatenated.

        Returns ``(rows, candidates)`` where ``rows[i]`` is the index into
        ``anchors`` that ``candidates[i]`` belongs to.  Row blocks follow
        anchor order and are sorted within — the vectorized analogue of
        iterating ``sorted(neighbors(...))`` anchor by anchor.  Returns
        None, before gathering anything, when there would be more than
        ``limit`` pairs.
        """
        neighbors, keys = self.arrays(edge_type, direction)
        starts = keys.searchsorted(anchors << ROW_SHIFT)
        counts = keys.searchsorted((anchors + 1) << ROW_SHIFT) - starts
        total = int(counts.sum())
        if limit is not None and total > limit:
            return None
        if total == 0:
            return _EMPTY, _EMPTY
        rows = np.repeat(np.arange(len(anchors), dtype=np.int64), counts)
        # Position of each output inside its own run, then offset by the
        # run's start: a fully vectorized multi-slice gather.
        run_starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - run_starts[rows]
        return rows, neighbors[starts[rows] + within]

    def pair_mask(self, sources, targets, edge_type: int, direction: str):
        """Boolean mask: which ``(source, target)`` pairs carry ``edge_type``."""
        keys = self.arrays(edge_type, direction)[1]
        return in_sorted(keys, (sources << ROW_SHIFT) | targets)
