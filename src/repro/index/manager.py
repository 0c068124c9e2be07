"""The index ensemble ``I = {A, S, N}`` built during the offline stage."""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..multigraph.builder import DataMultigraph
from .attribute_index import AttributeIndex
from .columnar import ColumnarEdges
from .neighborhood import NeighborhoodIndex
from .signature_index import SignatureIndex

__all__ = ["IndexSet", "IndexBuildReport", "build_indexes"]


@dataclass
class IndexBuildReport:
    """Timing and size information for Table 5 (offline stage)."""

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
        neighborhoods: NeighborhoodIndex,
        report: IndexBuildReport | None = None,
    ):
        self.attributes = attributes
        self.signatures = signatures
        self.neighborhoods = neighborhoods
        self.report = report
        #: Columnar CSR adjacency per (edge type, direction), built lazily
        #: by the vectorized backend and dropped on any edge mutation.
        self.columnar = ColumnarEdges()

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
        neighborhoods = NeighborhoodIndex(graph)
        neighborhood_seconds = time.perf_counter() - start

        report = IndexBuildReport(
            attribute_seconds=attribute_seconds,
            signature_seconds=signature_seconds,
            neighborhood_seconds=neighborhood_seconds,
            attribute_items=attributes.memory_items(),
            signature_items=len(signatures),
            neighborhood_items=neighborhoods.memory_items(),
        )
        return cls(attributes, signatures, neighborhoods, report)

    # ------------------------------------------------------------------ #
    # incremental maintenance (dynamic updates)
    # ------------------------------------------------------------------ #
    def refresh_vertex(self, graph, vertex: int) -> None:
        """Re-derive the edge-dependent indexes of one vertex from ``graph``.

        Called by :class:`repro.amber.mutation.GraphMutator` for both
        endpoints of every inserted/deleted edge (and for brand-new
        vertices): the OTIL pair is rebuilt locally and the synopsis is
        recomputed, so ``S`` and ``N`` stay exact without an offline
        rebuild.  The attribute index is maintained directly via
        :meth:`AttributeIndex.add` / :meth:`AttributeIndex.remove`.
        """
        self.neighborhoods.refresh_vertex(graph, vertex)
        self.signatures.refresh(graph, vertex)
        # Edge (or new-vertex) churn invalidates the CSR snapshots wholesale;
        # they rebuild lazily from the live adjacency on next use, so the
        # vectorized backend always matches a from-scratch build.
        self.columnar.invalidate()


def build_indexes(data: DataMultigraph) -> IndexSet:
    """Convenience wrapper mirroring the paper's notation ``I := {A, S, N}``."""
    return IndexSet.build(data)
