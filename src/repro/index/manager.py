"""The index ensemble ``I = {A, S, N}`` built during the offline stage.

``N`` is :class:`~repro.index.columnar.ColumnarEdges`, sorted pair keys
per (edge type, direction): both match backends read it, and updates
patch it per changed edge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..multigraph.builder import DataMultigraph
from .attribute_index import AttributeIndex
from .columnar import ColumnarEdges
from .signature_index import SignatureIndex

__all__ = ["IndexSet", "IndexBuildReport", "build_indexes"]


@dataclass
class IndexBuildReport:
    """Timing and size information for Table 5 (offline stage).

    The item counts are the stored index entries: attribute postings,
    synopsis rows, and posting entries of ``N`` (each ``(edge, type)``
    pair once per direction, i.e. 2 × Σ|multi-edge|).
    """

    attribute_seconds: float
    signature_seconds: float
    neighborhood_seconds: float
    attribute_items: int
    signature_items: int
    neighborhood_items: int

    @property
    def total_seconds(self) -> float:
        """Total index construction time."""
        return self.attribute_seconds + self.signature_seconds + self.neighborhood_seconds

    @property
    def total_items(self) -> int:
        """Total number of stored index entries (size proxy)."""
        return self.attribute_items + self.signature_items + self.neighborhood_items


class IndexSet:
    """The three index structures used by the online matching stage."""

    def __init__(
        self,
        attributes: AttributeIndex,
        signatures: SignatureIndex,
        neighborhoods: ColumnarEdges,
        report: IndexBuildReport | None = None,
    ):
        self.attributes = attributes
        self.signatures = signatures
        #: ``N``: sorted pair keys per (edge type, direction), patched per
        #: edge on update.
        self.neighborhoods = neighborhoods
        self.report = report

    @classmethod
    def build(cls, data: DataMultigraph) -> "IndexSet":
        """Build ``A``, ``S`` and ``N`` from the data multigraph, timing each."""
        graph = data.graph

        start = time.perf_counter()
        attributes = AttributeIndex(graph)
        attribute_seconds = time.perf_counter() - start

        start = time.perf_counter()
        signatures = SignatureIndex(graph)
        signature_seconds = time.perf_counter() - start

        start = time.perf_counter()
        neighborhoods = ColumnarEdges(graph)
        neighborhood_seconds = time.perf_counter() - start

        report = IndexBuildReport(
            attribute_seconds=attribute_seconds,
            signature_seconds=signature_seconds,
            neighborhood_seconds=neighborhood_seconds,
            attribute_items=attributes.memory_items(),
            signature_items=len(signatures),
            neighborhood_items=neighborhoods.posting_entries(),
        )
        return cls(attributes, signatures, neighborhoods, report)

    # ------------------------------------------------------------------ #
    # incremental maintenance (dynamic updates)
    # ------------------------------------------------------------------ #
    def apply(self, graph, attributes, edges, new_vertices) -> None:
        """Bring every index in line with ``graph`` after a batch of changes.

        Called when the outermost
        :meth:`repro.amber.mutation.GraphMutator.batch` block ends, with the
        ``(vertex, attribute)`` pairs and ``(source, target, edge type)``
        triples whose presence may have changed and the vertices the batch
        created; ``graph`` holds their final state.  ``A`` is patched once,
        each changed edge type patches its two arrays of ``N``, and the
        synopsis of every touched vertex is recomputed once, so the indexes
        stay exact without an offline rebuild.
        """
        if attributes:
            self.attributes.apply(graph, attributes)
        touched = set(new_vertices)
        for source, target, _ in edges:
            touched.update((source, target))
        for vertex in touched:
            self.signatures.refresh(graph, vertex)
        if edges:
            self.neighborhoods.apply(graph, edges)

def build_indexes(data: DataMultigraph) -> IndexSet:
    """Convenience wrapper mirroring the paper's notation ``I := {A, S, N}``."""
    return IndexSet.build(data)
