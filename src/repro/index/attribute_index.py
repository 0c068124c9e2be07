"""Attribute index ``A`` (Section 4.1): an inverted list per vertex attribute.

For every attribute id ``a`` the index stores the data vertices that carry
``a``.  Candidate solutions for a query vertex with attribute set ``u.A``
are obtained by intersecting the inverted lists of every attribute in
``u.A``.

The lists are one sorted int64 array of pair keys ``(a << 32) | vertex``
plus its vertex column, the layout of one array of the neighbourhood index
(:mod:`repro.index.columnar`): attribute ``a``'s inverted list is the run
of keys in ``[a << 32, (a + 1) << 32)``, read as a zero-copy view of the
vertex column.  The index costs 16 bytes per posting, with no Python set
per attribute (most attributes name a single vertex).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..multigraph.graph import Multigraph
from .columnar import COLUMN_MASK, ROW_SHIFT, check_ids, intersect_sorted, patch_pairs, row_view

__all__ = ["AttributeIndex"]


class AttributeIndex:
    """Inverted lists from attribute id to the data vertices carrying it."""

    def __init__(self, graph: Multigraph | None = None):
        #: ``(vertices, keys)``: sorted ``(attribute << 32) | vertex`` keys
        #: and their vertex column.  Replaced, never written in place, so a
        #: posting view handed to a reader stays valid across updates.
        empty = np.empty(0, dtype=np.int64)
        self._arrays: tuple = (empty, empty)
        if graph is not None:
            self.build(graph)

    def build(self, graph: Multigraph) -> "AttributeIndex":
        """(Re)build the inverted lists from the data multigraph."""
        check_ids(max(graph.vertices(), default=-1))
        keys = np.fromiter(
            (
                (attribute << ROW_SHIFT) | vertex
                for vertex in graph.vertices()
                for attribute in graph.attributes(vertex)
            ),
            dtype=np.int64,
        )
        keys.sort()
        self._arrays = (keys & COLUMN_MASK, keys)
        return self

    def apply(self, graph: Multigraph, pairs: Iterable[tuple[int, int]]) -> None:
        """Patch the lists for a batch of ``(vertex, attribute)`` pairs.

        ``graph`` holds each pair's final state; the arrays are replaced in
        one copy-on-write patch, so they stay identical to a from-scratch
        build on the mutated graph (size reporting included).
        """
        wanted: dict[int, bool] = {}
        for vertex, attribute in pairs:
            check_ids(max(vertex, attribute))
            wanted[(attribute << ROW_SHIFT) | vertex] = attribute in graph.attributes(vertex)
        if wanted:
            self._arrays = patch_pairs(*self._arrays, wanted)

    def posting_array(self, attribute: int):
        """Return the inverted list of ``attribute``: a sorted, zero-copy int64 view."""
        return row_view(*self._arrays, attribute)

    def candidate_array(self, attributes: set[int] | frozenset[int]):
        """Data vertices carrying *all* ``attributes``, as a sorted int64 array.

        An empty attribute set is a caller error because the null attribute
        ``{-}`` imposes no constraint; callers should not query the index in
        that case (Algorithm 1, line 1).
        """
        if not attributes:
            raise ValueError("attribute candidate lookup requires a non-empty attribute set")
        return intersect_sorted([self.posting_array(a) for a in attributes])

    def candidates(self, attributes: set[int] | frozenset[int]) -> set[int]:
        """:meth:`candidate_array` as a Python set (the scalar matcher's form)."""
        return set(self.candidate_array(attributes).tolist())

    def attribute_count(self) -> int:
        """Return the number of distinct attributes indexed."""
        keys = self._arrays[1]
        return len(np.unique(keys >> ROW_SHIFT))

    def __len__(self) -> int:
        return self.attribute_count()

    def memory_items(self) -> int:
        """Return the total number of postings (for Table-5 style size reporting)."""
        return len(self._arrays[1])
