"""Rebuild-equivalence check shared by the update tests.

``assert_indexes_exact`` compares every index an update maintains in place
with a fresh build on the same (mutated) graph: attribute postings,
synopses and the signature matrix, the full OTIL pair of every vertex
(trie paths, multi-edges, postings, memoised posting arrays) and every
cached CSR of the columnar adjacency.
"""

from __future__ import annotations

import numpy as np

from repro.index.attribute_index import AttributeIndex
from repro.index.columnar import ColumnarEdges
from repro.index.neighborhood import NeighborhoodIndex, Otil
from repro.index.signature_index import SignatureIndex
from repro.index.synopsis import data_synopsis, signature_of

__all__ = [
    "assert_indexes_exact",
    "assert_otil_equal",
    "assert_columnar_exact",
    "warm_index_caches",
]


def warm_index_caches(engine) -> None:
    """Build every CSR and memoise every OTIL posting array of ``engine``.

    Queries only fill the caches their plans touch (the single engine reads
    CSRs, the cluster scatter reads posting arrays); warming all of them
    before a mutation makes every in-place patch observable.
    """
    indexes = engine.indexes
    indexes.columnar.stride(engine.data.graph)
    for vertex in engine.data.graph.vertices():
        for direction in "+-":
            otil = indexes.neighborhoods.otil(vertex, direction)
            for edge_type in list(otil._postings):
                otil.posting_array(edge_type)


def _trie(level: dict) -> dict:
    """The trie below ``level`` as nested ``{type: (neighbours, children)}``."""
    return {
        edge_type: (frozenset(node.neighbors), _trie(node.children))
        for edge_type, node in level.items()
    }


def assert_otil_equal(maintained: Otil, fresh: Otil) -> None:
    """Assert a maintained OTIL is indistinguishable from a freshly built one."""
    assert _trie(maintained._roots) == _trie(fresh._roots)
    assert maintained._neighbor_edges == fresh._neighbor_edges
    for neighbor in fresh._neighbor_edges:
        assert maintained.multi_edge(neighbor) == fresh.multi_edge(neighbor)
    assert maintained._postings == fresh._postings
    # Memoised arrays are read back before anything re-memoises them, so a
    # stale patch (or a memo left behind for a vanished type) shows.
    for edge_type in set(maintained._arrays) | set(fresh._postings):
        expected = sorted(fresh._postings.get(edge_type, ()))
        assert maintained.posting_array(edge_type).tolist() == expected, edge_type
    assert maintained.node_count() == fresh.node_count()
    assert len(maintained) == len(fresh)


def assert_columnar_exact(columnar: ColumnarEdges, graph) -> None:
    """Assert every cached CSR equals a fresh :class:`ColumnarEdges` build.

    ``indptr`` is compared over the id range both cover (the maintained
    one may carry more headroom, whose rows must be empty); pair keys are
    compared under the maintained stride.
    """
    if columnar._csr is None:
        return
    fresh = ColumnarEdges()
    fresh.stride(graph)  # builds every key
    stride = columnar.stride(graph)
    for key in set(columnar._csr) | set(fresh._csr):
        indptr, neighbors, keys = columnar.csr(graph, *key)
        fresh_indptr, fresh_neighbors, _ = fresh.csr(graph, *key)
        shared = min(len(indptr), len(fresh_indptr))
        assert np.array_equal(indptr[:shared], fresh_indptr[:shared]), key
        assert (indptr[shared:] == len(neighbors)).all(), key
        assert (fresh_indptr[shared:] == len(fresh_neighbors)).all(), key
        assert np.array_equal(neighbors, fresh_neighbors), key
        rows = np.repeat(np.arange(len(fresh_indptr) - 1), np.diff(fresh_indptr))
        assert np.array_equal(keys, rows * stride + fresh_neighbors), key


def assert_indexes_exact(engine) -> None:
    """Assert every maintained index of ``engine`` equals a fresh build on its graph.

    ``engine`` is anything with ``data.graph`` and ``indexes`` — an
    :class:`~repro.AmberEngine` or one shard of a sharded engine.
    """
    graph = engine.data.graph
    indexes = engine.indexes
    assert indexes.attributes._postings == AttributeIndex(graph)._postings
    for vertex in graph.vertices():
        expected = data_synopsis(signature_of(graph, vertex))
        assert indexes.signatures.synopsis(vertex) == expected
    fresh_signatures = SignatureIndex(graph)
    probes = [
        ([], []),
        ([], [frozenset({0})]),
        ([frozenset({0})], []),
        ([frozenset({0, 1})], [frozenset({1})]),
    ]
    for incoming, outgoing in probes:
        maintained = indexes.signatures.candidates(incoming, outgoing)
        assert maintained == fresh_signatures.candidates(incoming, outgoing)
        assert maintained == indexes.signatures.candidates_scan(incoming, outgoing)
    fresh_neighborhoods = NeighborhoodIndex(graph)
    assert len(indexes.neighborhoods) == len(fresh_neighborhoods)
    for vertex in graph.vertices():
        for direction in "+-":
            assert_otil_equal(
                indexes.neighborhoods.otil(vertex, direction),
                fresh_neighborhoods.otil(vertex, direction),
            )
    assert_columnar_exact(indexes.columnar, graph)
