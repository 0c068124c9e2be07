"""The index ensemble ``I = {A, S, N}`` built during the offline stage.

``N`` is the CSR adjacency of :class:`~repro.index.columnar.ColumnarEdges`:
both match backends read it, and updates patch it per changed edge.
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
    synopsis rows, and CSR posting entries of ``N`` (each ``(edge, type)``
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
        #: ``N``: CSR adjacency per (edge type, direction), patched per edge
        #: on update.
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
    def apply_edge_changes(self, graph, edges, new_vertices) -> None:
        """Bring the edge-dependent indexes in line with ``graph`` after a batch.

        Called once per batch by :class:`repro.amber.mutation.GraphMutator`
        with the ``(source, target, edge type)`` triples it inserted or
        deleted and the vertices it created.  Each changed edge type patches
        its two CSRs of ``N`` and the synopsis of every touched vertex is
        recomputed once, so ``S`` and ``N`` stay exact without an offline
        rebuild.  The attribute index is maintained directly via
        :meth:`AttributeIndex.add` / :meth:`AttributeIndex.remove`.
        """
        touched = set(new_vertices)
        for source, target, _ in edges:
            touched.update((source, target))
        for vertex in touched:
            self.signatures.refresh(graph, vertex)
        self.neighborhoods.apply(graph, edges, new_vertices)


def build_indexes(data: DataMultigraph) -> IndexSet:
    """Convenience wrapper mirroring the paper's notation ``I := {A, S, N}``."""
    return IndexSet.build(data)
