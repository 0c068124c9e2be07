"""Attribute index ``A`` (Section 4.1): an inverted list per vertex attribute.

For every attribute id ``a`` the index stores the set of data vertices that
carry ``a``.  Candidate solutions for a query vertex with attribute set
``u.A`` are obtained by intersecting the inverted lists of every attribute
in ``u.A``.
"""

from __future__ import annotations

from ..multigraph.graph import Multigraph
from .columnar import as_sorted_array, intersect_sorted

__all__ = ["AttributeIndex"]


class AttributeIndex:
    """Inverted list from attribute id to the set of data vertices carrying it."""

    def __init__(self, graph: Multigraph | None = None):
        self._postings: dict[int, set[int]] = {}
        #: Lazily built sorted posting arrays for the vectorized backend,
        #: dropped per attribute on mutation so they never serve stale data.
        self._arrays: dict[int, object] = {}
        if graph is not None:
            self.build(graph)

    def build(self, graph: Multigraph) -> "AttributeIndex":
        """(Re)build the inverted lists from the data multigraph."""
        self._postings.clear()
        self._arrays.clear()
        for vertex in graph.vertices():
            for attribute in graph.attributes(vertex):
                self._postings.setdefault(attribute, set()).add(vertex)
        return self

    def add(self, vertex: int, attribute: int) -> None:
        """Incrementally register ``attribute`` on ``vertex``."""
        self._postings.setdefault(attribute, set()).add(vertex)
        self._arrays.pop(attribute, None)

    def remove(self, vertex: int, attribute: int) -> None:
        """Incrementally drop ``attribute`` from ``vertex``.

        Empty inverted lists are deleted so the index stays identical to a
        from-scratch build on the mutated graph (size reporting included).
        """
        posting = self._postings.get(attribute)
        if posting is None:
            return
        posting.discard(vertex)
        self._arrays.pop(attribute, None)
        if not posting:
            del self._postings[attribute]

    def vertices_with(self, attribute: int) -> frozenset[int]:
        """Return the vertices carrying ``attribute`` (empty when unknown)."""
        return frozenset(self._postings.get(attribute, ()))

    def candidates(self, attributes: set[int] | frozenset[int]) -> set[int]:
        """Return data vertices carrying *all* attributes in ``attributes``.

        An empty attribute set is a caller error because the null attribute
        ``{-}`` imposes no constraint; callers should not query the index in
        that case (Algorithm 1, line 1).
        """
        if not attributes:
            raise ValueError("attribute candidate lookup requires a non-empty attribute set")
        postings = sorted((self._postings.get(a, set()) for a in attributes), key=len)
        first = postings[0]
        if not first:
            return set()
        result = set(first)
        for posting in postings[1:]:
            result &= posting
            if not result:
                break
        return result

    def posting_array(self, attribute: int):
        """Return the inverted list of ``attribute`` as a sorted int64 array.

        Arrays are memoised per attribute and invalidated by :meth:`add` /
        :meth:`remove`, so under SPARQL UPDATE they stay byte-identical to a
        rebuild.
        """
        array = self._arrays.get(attribute)
        if array is None:
            array = as_sorted_array(self._postings.get(attribute, ()))
            self._arrays[attribute] = array
        return array

    def candidate_array(self, attributes: set[int] | frozenset[int]):
        """Columnar :meth:`candidates`: batch-intersect sorted posting arrays."""
        if not attributes:
            raise ValueError("attribute candidate lookup requires a non-empty attribute set")
        return intersect_sorted([self.posting_array(a) for a in attributes])

    def attribute_count(self) -> int:
        """Return the number of distinct attributes indexed."""
        return len(self._postings)

    def __len__(self) -> int:
        return len(self._postings)

    def memory_items(self) -> int:
        """Return the total number of postings (for Table-5 style size reporting)."""
        return sum(len(vertices) for vertices in self._postings.values())
